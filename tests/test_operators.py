import numpy as np
import pytest
import scipy.linalg as sla

import propcheck
from oracles import gkls_matrix
from qsslab import operators as op
from qsslab.model import two_qubit_site1
from qsslab.structure import hermitian_frame, restrict
from qsslab.trajectory import build_kernel


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_as_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        op.as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        op.as_operator(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        op.as_operator(np.array([[np.inf * 1j, 0], [0, 1]]))
    out = op.as_operator([[1, 0], [0, 1]])
    assert out.dtype == complex


def test_hermiticity_helpers():
    a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    assert op.is_hermitian(a)
    assert op.hermiticity_defect(a) == 0.0
    b = a.copy()
    b[0, 1] += 1e-6
    assert not op.is_hermitian(b)
    assert op.hermiticity_defect(b) == pytest.approx(1e-6, rel=1e-6)


def test_psd_check_verdicts():
    ok, mn = op.psd_check(np.diag([1.0, 0.0, 2.0]).astype(complex))
    assert ok and mn == pytest.approx(0.0, abs=1e-14)
    ok, mn = op.psd_check(np.diag([1.0, -1e-3]).astype(complex))
    assert not ok and mn == pytest.approx(-1e-3)
    with pytest.raises(ValueError, match="not Hermitian"):
        op.psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a stack gets one verdict and one smallest eigenvalue per matrix
    ok, mn = op.psd_check(np.stack([np.diag([1.0, 0.0]), np.diag([1.0, -1e-3])]).astype(complex))
    assert ok.tolist() == [True, False] and mn == pytest.approx([0.0, -1e-3], abs=1e-14)
    with pytest.raises(ValueError, match="not Hermitian"):
        op.psd_check(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


def test_validate_density():
    rho = np.diag([0.25, 0.75]).astype(complex)
    op.validate_density(rho)
    with pytest.raises(ValueError, match="trace"):
        op.validate_density(2 * rho)
    with pytest.raises(ValueError, match="PSD"):
        op.validate_density(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        op.validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_projection_rank():
    p = np.diag([1.0, 0.0, 1.0]).astype(complex)
    assert op.projection_rank(p) == 2
    assert op.projection_rank(np.eye(3, dtype=complex)) == 3
    with pytest.raises(ValueError):
        op.projection_rank(np.diag([0.5, 1.0]).astype(complex))
    with pytest.raises(ValueError):
        op.projection_rank(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_vectorize_column_stacking():
    x = np.array([[1.0, 3.0], [2.0, 4.0]], dtype=complex)
    assert np.array_equal(op.vectorize(x), np.array([1, 2, 3, 4], dtype=complex))
    assert np.array_equal(op.devectorize(op.vectorize(x)), x)
    with pytest.raises(ValueError, match="perfect square"):
        op.devectorize(np.zeros(5))


def test_vectorize_kron_identity():
    # vec(A X B) = kron(B.T, A) vec(X)
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = rng.integers(2, 5)
        a, b, x = (random_complex(rng, d) for _ in range(3))
        lhs = op.vectorize(a @ x @ b)
        rhs = np.kron(b.T, a) @ op.vectorize(x)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_expm_matches_scipy():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = rng.integers(2, 6)
        a = random_complex(rng, d)
        t = float(rng.uniform(0.1, 2.0))
        ref = sla.expm(t * a)
        assert np.linalg.norm(op.Propagator(a).apply(t, np.eye(d)).T - ref) < 1e-9 * np.linalg.norm(ref)


def test_expm_defective_fallback():
    # Jordan block: eigendecomposition is useless, must fall back
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert not op.Propagator(a).spectral
    exact = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert np.allclose(op.expm(2.0 * a), exact)
    assert np.allclose(op.Propagator(a).apply(2.0, np.eye(2)).T, exact)


def test_expm_rejects_bad_time():
    # directly, and through the fallback of a propagator, which is handed times
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    prop = op.Propagator(a)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            op.expm(bad * np.ones((2, 2)))
        with pytest.raises(ValueError):
            prop.apply(bad, np.ones(2))
        with pytest.raises(ValueError):
            prop.trace_rows([1.0, bad])


def _stable(rng, n, norm):
    """A random complex n x n matrix of 1-norm ``norm`` whose spectral abscissa is 0."""
    a = random_complex(rng, n)
    a -= np.linalg.eigvals(a).real.max() * np.eye(n)
    return a * (norm / np.linalg.norm(a, 1))


def test_expm_matches_scipy_over_norms():
    # two backward-stable exponentials differ by O(eps * ||a||_1) relative: the
    # exponential's own condition number grows with the norm.  A spectral
    # abscissa of 0 keeps exp(a) finite at 1-norms up to 1e4
    rng = np.random.default_rng(19)
    for log_norm in np.linspace(-3.0, 4.0, 36):
        a = _stable(rng, int(rng.integers(3, 37)), 10.0**log_norm)
        ref = sla.expm(a)
        bound = 1e-15 * max(1.0, np.linalg.norm(a, 1)) * np.linalg.norm(ref)
        assert np.linalg.norm(op.expm(a) - ref) <= bound


def test_expm_matches_scipy_on_the_defective_restriction():
    # the site-1 restriction at the branch collision has a Jordan block of
    # size 3; it and its adjoint decay to 0 by t = 2^41
    gen = restrict(two_qubit_site1(0.5)).gen
    times = 2.0 ** np.arange(-4, 42)
    for a in (gen, op.adjoint(gen)):
        got = op.expm(times[:, None, None] * a)
        for t, e in zip(times, got):
            assert np.max(np.abs(e - sla.expm(t * a))) <= 1e-15


def _mixed_stack(rng):
    """Matrices of 1-norms 1e-3 .. 1e4 and a zero one: their scaling powers differ."""
    stack = [_stable(rng, 6, 10.0**e) for e in np.linspace(-3.0, 4.0, 29)]
    return np.array(stack + [np.zeros((6, 6))])


def test_expm_stack_matches_each_matrix_alone():
    rng = np.random.default_rng(8)
    stack = _mixed_stack(rng)
    got = op.expm(stack)
    for a, e in zip(stack, got):
        assert np.array_equal(op.expm(a), e)
    nested = op.expm(stack[:28].reshape(4, 7, 6, 6))
    assert np.array_equal(nested.reshape(28, 6, 6), got[:28])
    assert op.expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_expm_chunks_do_not_move_a_bit(monkeypatch):
    # 601 times of the sampler's fallback propagator in expm calls of 7, the last of 6
    rng = np.random.default_rng(9)
    prop = build_kernel(restrict(two_qubit_site1(0.5))).loop
    times = np.linspace(0.0, 6.0, 601)
    vecs = _complex(rng, 601, len(prop.mat))
    rows, applied = prop.trace_rows(times), prop.apply(times, vecs)
    with monkeypatch.context() as m:
        m.setattr(op, "EXPM_CHUNK_ENTRIES", 7 * prop.mat.size)
        assert np.array_equal(prop.trace_rows(times), rows)
        assert np.array_equal(prop.apply(times, vecs), applied)


def test_expm_rejects_non_finite_input():
    # one bad entry anywhere in a stack, and a matrix that is not square
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        a = np.zeros((3, 4, 4), dtype=complex)
        a[2, 1, 3] = bad
        with pytest.raises(ValueError):
            op.expm(a)
        with pytest.raises(ValueError):
            op.expm(a[2])
    with pytest.raises(ValueError):
        op.expm(np.zeros((2, 3)))


def test_propagator_matches_scipy_on_random_generator():
    rng = np.random.default_rng(6)
    d = 6
    h = random_complex(rng, d)
    h = 0.5 * (h + h.conj().T)
    jumps = [random_complex(rng, d) for _ in range(2)]
    a = gkls_matrix(h, jumps)
    prop = op.Propagator(a)
    assert prop.spectral
    vec = op.vectorize(np.eye(d) / d)
    for t in (0.1, 1.0, 10.0):
        ref = sla.expm(t * a)
        assert np.linalg.norm(prop.apply(t, np.eye(d * d)).T - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(prop.apply(t, vec) - ref @ vec) <= 1e-12 * np.linalg.norm(ref @ vec)


def test_propagator_falls_back_on_defective_nojump_generator():
    # the sampler's (m^2 + 1) no-jump generator of the site-1 fixture at the
    # branch collision inherits the restriction's near-defective eigenbasis
    kernel = build_kernel(restrict(two_qubit_site1(0.5)))
    prop = kernel.loop
    assert not prop.spectral and prop.mat.shape == (10, 10)
    vec = kernel.row(np.diag([0.0, 0.5, 0.5, 0.0]))
    times = np.array([0.0, 0.7, 3.0])
    for t in times:
        ref = sla.expm(t * prop.mat)
        assert np.linalg.norm(op.expm(t * prop.mat) - ref) <= 1e-14 * np.linalg.norm(ref)
    assert np.array_equal(prop.apply(times, vec), [op.expm(t * prop.mat) @ vec for t in times])


@pytest.mark.parametrize("omega", [1.0, 0.5], ids=["spectral", "fallback"])
def test_coords_read_the_survival_curve_its_derivative_and_the_states(omega):
    # x and dx give the loop's survival trace and its time derivative through
    # trace_rows, and apply reuses coef (V^-1 vec; None on the fallback)
    kernel = build_kernel(restrict(two_qubit_site1(omega)))
    prop = kernel.loop
    assert prop.spectral == (omega == 1.0)
    vecs = np.array([kernel.row(np.diag(p).astype(complex)) for p in ([0, 0.5, 0.5, 0], [0, 0, 0.2, 0.8])])
    coef, x, dx = prop.coords(vecs)
    if prop.spectral:
        assert np.array_equal(coef, op.rowdot(prop.v_inv, vecs))
    else:
        assert coef is None and np.array_equal(x, vecs) and np.array_equal(dx, op.rowdot(prop.mat, vecs))
    times = np.array([0.3, 2.0])
    assert np.array_equal(prop.apply(times, vecs, coef), prop.apply(times, vecs))
    trace_row = np.append(op.vectorize(np.eye(3)), 1.0)
    for coords, mat in ((x, np.eye(10)), (dx, prop.mat)):
        curve = (coords * prop.trace_rows(times)).sum(-1).real
        expected = [(trace_row @ mat @ sla.expm(t * prop.mat) @ v).real for t, v in zip(times, vecs)]
        assert np.allclose(curve, expected, atol=1e-12)


def test_eig_general_sorted_and_accurate():
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = rng.integers(2, 6)
        a = random_complex(rng, d)
        w, v = op.eig_general(a)
        assert np.all(np.diff(w.real) <= 1e-12)
        for j in range(d):
            assert np.linalg.norm(a @ v[:, j] - w[j] * v[:, j]) < 1e-9 * max(
                1.0, np.linalg.norm(a)
            )
            assert np.linalg.norm(v[:, j]) == pytest.approx(1.0, abs=1e-12)


def test_eig_general_stack_is_each_matrix_alone_bit_for_bit():
    # numpy returns complex vectors for a whole stack once one matrix has a
    # complex eigenvalue; a real-spectrum matrix is still normalized in float64,
    # so its vectors are the bits (and, in .real, the dtype) it gets alone
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((9, 9)) for _ in range(6)]
    mats += [x + x.T for x in rng.standard_normal((3, 9, 9))]
    w, v = op.eig_general(np.stack(mats))
    assert v.dtype == complex
    dtypes = set()
    for a, w_k, v_k in zip(mats, w, v):
        w_1, v_1 = op.eig_general(a)
        dtypes.add(v_1.dtype)
        assert np.array_equal(w_1, w_k)
        assert np.array_equal(v_1, v_k.real if v_1.dtype == float else v_k)
    assert dtypes == {np.dtype(float), np.dtype(complex)}


def test_eig_general_order_is_a_property_of_the_matrix():
    # real parts within roundoff tie, so a conjugate pair is listed + first; a
    # permuted copy of the real matrix R of a dense restriction lists the same
    # eigenvalues in the same order, and R's pairs are exact conjugates
    rng = np.random.default_rng(81)
    pairs = 0
    for _ in range(6):
        restr = restrict(propcheck.random_subharmonic_model(rng, d=8, rank=3))
        frame = hermitian_frame(restr.m)
        a = (frame.conj().T @ restr.gen @ frame).real
        p = np.eye(len(a))[rng.permutation(len(a))]
        w, _ = op.eig_general(a)
        w_perm, _ = op.eig_general(p @ a @ p.T)
        assert np.max(np.abs(w - w_perm)) <= 1e-12 * max(1.0, np.linalg.norm(a))
        tied = np.abs(np.diff(w.real)) <= 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.all(np.diff(w.imag)[tied] <= 0)
        pairs += np.sum(tied & (w[1:] == w[:-1].conj()))
    assert pairs >= 10


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_rowdot_is_the_matrix_vector_product():
    rng = np.random.default_rng(12)
    for n in (1, 4, 9, 16, 36, 144):
        a, x = _complex(rng, n, n), _complex(rng, 50, n)
        got = op.rowdot(a, x)
        for b in range(50):
            ref = a @ x[b]
            assert np.linalg.norm(got[b] - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [4, 9, 16, 36])
def test_rowdot_rows_are_independent_bit_for_bit(n):
    # each row is one gemv of one shape and layout: the same bits for the row
    # alone, in any subset of rows, from a strided or offset buffer, and for
    # an F-ordered copy of the matrix, which rowdot makes C-contiguous
    rng = np.random.default_rng(n)
    a, x = _complex(rng, n, n), _complex(rng, 300, n)
    full = op.rowdot(a, x)
    for _ in range(5):
        rows = rng.permutation(300)[: rng.integers(1, 300)]
        assert np.array_equal(op.rowdot(a, x[rows]), full[rows])
    for b in range(0, 300, 23):
        assert np.array_equal(op.rowdot(a, x[b]), full[b])
    strided = np.zeros((300, 2 * n), complex)
    strided[:, ::2] = x
    assert np.array_equal(op.rowdot(a, strided[:, ::2]), full)
    offset = np.zeros(300 * n + 1, complex)[1:].reshape(300, n)
    offset[:] = x
    assert np.array_equal(op.rowdot(a, offset), full)
    assert np.array_equal(op.rowdot(np.asfortranarray(a), x), full)
    assert np.array_equal(op.rowdot(a, np.asfortranarray(x)), full)


def test_eig_general_known_spectrum():
    a = np.diag([3.0, -1.0, 2.0]).astype(complex)
    w, _ = op.eig_general(a)
    assert np.allclose(w, [3.0, 2.0, -1.0])
