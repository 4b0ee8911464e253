import numpy as np
import pytest

from helpers import choi_matrix
from oracles import apply_semigroup, duality_check, full_generator, gkls_matrix
from qsslab import operators as op
from qsslab.model import (
    ModelSpec,
    gkls_superop,
    left_mul,
    right_mul,
    sandwich,
    two_qubit_both,
    two_qubit_site1,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def random_model(rng, d):
    h = random_hermitian(rng, d)
    n_jumps = int(rng.integers(1, 3))
    jumps = tuple(
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(n_jumps)
    )
    p0 = np.zeros((d, d), dtype=complex)
    p0[0, 0] = 1.0
    return ModelSpec(dim=d, hamiltonian=h, jump_ops=jumps, p0=p0)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_modelspec_validation():
    eye = np.eye(2, dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="Hermitian"):
        ModelSpec(dim=2, hamiltonian=np.array([[0, 1], [0, 0]]), jump_ops=(), p0=p0)
    with pytest.raises(ValueError, match="rank"):
        ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), jump_ops=(), p0=eye)
    with pytest.raises(ValueError, match="dimension"):
        ModelSpec(dim=3, hamiltonian=np.zeros((3, 3)), jump_ops=(eye,), p0=np.diag([1.0, 0, 0]))
    spec = ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), jump_ops=(), p0=p0)
    assert spec.p0_rank == 1
    assert np.allclose(spec.p0_perp, np.diag([0.0, 1.0]))


def test_multiplication_superoperators():
    rng = np.random.default_rng(5)
    d = 3
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.allclose(op.devectorize(left_mul(a) @ op.vectorize(x)), a @ x)
    assert np.allclose(op.devectorize(right_mul(b) @ op.vectorize(x)), x @ b)
    assert np.allclose(op.devectorize(sandwich(a, b) @ op.vectorize(x)), a @ x @ b)
    # one product per entry, as np.kron forms it: equal to the byte, also for
    # the rectangular compression V^dag x V
    v = b[:, :2]
    assert left_mul(a).tobytes() == np.kron(np.eye(d), a).tobytes()
    assert right_mul(b).tobytes() == np.kron(b.T, np.eye(d)).tobytes()
    assert sandwich(v.conj().T, v).tobytes() == np.kron(v.T, v.conj().T).tobytes()


def test_generator_trace_and_unitality():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        spec = random_model(rng, d)
        schr = full_generator(spec)
        heis = schr.conj().T
        ident = op.vectorize(np.eye(d))
        # trace preservation (Schrodinger) and unitality (its adjoint, Heisenberg)
        assert np.linalg.norm(ident.conj() @ schr) < 1e-10 * max(1, np.linalg.norm(schr))
        assert np.linalg.norm(heis @ ident) < 1e-10 * max(1, np.linalg.norm(heis))


def test_duality_pairing():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        spec = random_model(rng, d)
        x = random_density(rng, d)
        y = random_hermitian(rng, d)
        assert duality_check(spec, 0.8, x, y) < 1e-10


def test_apply_semigroup_contract():
    spec = two_qubit_site1(1.0)
    prop = op.Propagator(full_generator(spec))
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    assert np.allclose(apply_semigroup(prop, 0.0, rho), rho)
    with pytest.raises(ValueError):
        apply_semigroup(prop, -0.1, rho)
    # semigroup law
    t, s = 0.4, 0.9
    lhs = apply_semigroup(prop, t + s, rho)
    rhs = apply_semigroup(prop, t, apply_semigroup(prop, s, rho))
    assert np.linalg.norm(lhs - rhs) < 1e-10
    # density preservation
    evolved = apply_semigroup(prop, 1.3, rho)
    op.validate_density(evolved)


@pytest.mark.parametrize("cond_limit", [op.EXPM_COND_LIMIT, 0.0], ids=["spectral", "fallback"])
def test_batched_apply_semigroup_matches_scalar_calls(monkeypatch, cond_limit):
    # one Propagator.apply call for the whole grid, each slice bit for bit
    # the scalar call's, on both propagator paths
    monkeypatch.setattr(op, "EXPM_COND_LIMIT", cond_limit)
    rng = np.random.default_rng(11)
    for spec in (two_qubit_site1(1.0), two_qubit_both(1.0)):
        prop = op.Propagator(full_generator(spec))
        assert prop.spectral == (cond_limit > 0)
        x = random_hermitian(rng, 4)
        times = (0.0, 0.1, 0.5, 1.0, 2.0, 0.0, 2.0**20)
        stack = apply_semigroup(prop, times, x)
        assert stack.shape == (len(times), 4, 4)
        for t, got in zip(times, stack):
            # byte equality also sees signed zeros; C order as devectorize gives
            assert got.flags.c_contiguous
            assert got.tobytes() == apply_semigroup(prop, t, x).tobytes()
        assert stack[0].tobytes() == x.tobytes()
        assert apply_semigroup(prop, [], x).shape == (0, 4, 4)
        for bad in ((0.5, -0.1), (1.0, np.inf), (np.nan,)):
            with pytest.raises(ValueError):
                apply_semigroup(prop, bad, x)


def test_fallback_propagator_applies_one_vector_at_many_times():
    # the branch collision omega = 1/2 is defective: scaling-and-squaring
    prop = op.Propagator(full_generator(two_qubit_site1(0.5)))
    assert not prop.spectral
    vec = np.arange(16, dtype=complex)
    rows = prop.apply(np.array([1.0, 2.0]), vec)
    assert rows.shape == (2, 16)
    for t, row in zip((1.0, 2.0), rows):
        assert row.tobytes() == prop.apply(t, vec).tobytes()


def test_choi_positivity_on_fixtures():
    for spec in (two_qubit_site1(1.0), two_qubit_both(1.0)):
        gen = full_generator(spec)
        prop = op.Propagator(gen)
        assert prop.spectral
        for t in (0.1, 1.0):
            c = choi_matrix(prop.apply(t, np.eye(len(gen))).T)
            ok, min_eig = op.psd_check(0.5 * (c + c.conj().T), tol=1e-8)
            assert ok, f"Choi not PSD at t={t}: min eig {min_eig}"


def _perp_index_oracle(omega, both):
    """Hand-built compressed generator on span{|01>,|10>,|11>}."""
    e = np.eye(3, dtype=complex)
    h_hat = 0.5 * omega * (np.outer(e[0], e[1]) + np.outer(e[1], e[0]))
    jumps = [np.outer(e[0], e[2])]  # site-1 decay: |11> -> |01>
    k_hat = np.diag([0.0, 1.0, 1.0]).astype(complex)
    if both:
        jumps.append(np.outer(e[1], e[2]))  # site-2 decay: |11> -> |10>
        k_hat = np.diag([1.0, 1.0, 2.0]).astype(complex)
    g_hat = -1j * h_hat - 0.5 * k_hat

    def act(rho):
        out = g_hat @ rho + rho @ g_hat.conj().T
        for l in jumps:
            out = out + l @ rho @ l.conj().T
        return out

    return act


@pytest.mark.parametrize("both", [False, True])
def test_fixture_generator_against_hand_oracle(both):
    rng = np.random.default_rng(43)
    omega = 0.7
    spec = two_qubit_both(omega) if both else two_qubit_site1(omega)
    gen = full_generator(spec)
    act = _perp_index_oracle(omega, both)
    for _ in range(10):
        rho_hat = random_hermitian(rng, 3)
        rho = np.zeros((4, 4), dtype=complex)
        rho[1:, 1:] = rho_hat
        image = op.devectorize(gen @ op.vectorize(rho))
        assert np.linalg.norm(image[1:, 1:] - act(rho_hat)) < 1e-12


def test_gkls_superop_matches_the_textbook_generator():
    # G x + x G^dag + sum L x L^dag with G = -iH - 1/2 sum L^dag L against the
    # oracle's -i[H, x] + sum (L x L^dag - 1/2 {L^dag L, x}): bit for bit on the
    # fixtures, to rounding on random models and on a stack of them
    for factory in (two_qubit_site1, two_qubit_both):
        for omega in (0.3, 0.475, 1.0):
            spec = factory(omega)
            assert np.array_equal(full_generator(spec), gkls_matrix(spec.hamiltonian, spec.jump_ops))
    rng = np.random.default_rng(29)
    for d in (2, 3, 5, 8):
        spec = random_model(rng, d)
        ref = gkls_matrix(spec.hamiltonian, spec.jump_ops)
        assert op.frob(gkls_superop(spec.effective_drift(), spec.jump_ops) - ref) <= 1e-14 * op.frob(ref)
    p0 = np.diag([1.0, 0.0, 0.0, 0.0])
    specs = [
        ModelSpec(dim=4, hamiltonian=random_hermitian(rng, 4), p0=p0,
                  jump_ops=tuple(rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))))
        for _ in range(3)
    ]
    stack = gkls_superop(np.array([s.effective_drift() for s in specs]),
                         np.array([s.jump_ops for s in specs]).swapaxes(0, 1))
    for gen, spec in zip(stack, specs):
        ref = gkls_matrix(spec.hamiltonian, spec.jump_ops)
        assert op.frob(gen - ref) <= 1e-14 * op.frob(ref)
        assert np.array_equal(gen, gkls_superop(spec.effective_drift(), spec.jump_ops))


def test_fixture_shapes_and_labels():
    spec = two_qubit_site1(0.3)
    assert spec.dim == 4 and spec.p0_rank == 1 and len(spec.jump_ops) == 1
    assert "site1" in spec.label
    spec = two_qubit_both(1.0)
    assert len(spec.jump_ops) == 2
    assert np.allclose(spec.p0, np.diag([1.0, 0, 0, 0]))
