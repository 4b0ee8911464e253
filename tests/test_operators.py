import numpy as np
import pytest
import scipy.linalg as sla

import propcheck
from qsslab import operators as op
from qsslab.model import gkls_matrix, two_qubit_site1
from qsslab.structure import restrict
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
        assert np.linalg.norm(op.Propagator(a).matrix(t) - ref) < 1e-9 * np.linalg.norm(ref)


def test_expm_defective_fallback():
    # Jordan block: eigendecomposition is useless, must fall back
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = op.Propagator(a).matrix(2.0)
    assert np.allclose(out, np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_expm_rejects_bad_time():
    with pytest.raises(ValueError):
        op.Propagator(np.eye(2)).matrix(np.inf)


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
        assert np.linalg.norm(prop.matrix(t) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(prop.apply(t, vec) - ref @ vec) <= 1e-12 * np.linalg.norm(ref @ vec)


def test_propagator_falls_back_on_defective_nojump_generator():
    # the sampler's (m^2 + 1) no-jump generator of the site-1 fixture at the
    # branch collision inherits the restriction's near-defective eigenbasis
    kernel = build_kernel(two_qubit_site1(0.5))
    prop = kernel.loop
    assert not prop.spectral and prop.mat.shape == (10, 10)
    vec = kernel.row(np.diag([0.0, 0.5, 0.5, 0.0]))
    times = np.array([0.0, 0.7, 3.0])
    for t in times:
        ref = sla.expm(t * prop.mat)
        assert np.array_equal(prop.matrix(t), ref)
    curve = (prop.trace_coords(vec) * prop.trace_rows(times)).sum(-1).real
    trace_row = np.append(op.vectorize(np.eye(3)), 1.0)
    expected = [(trace_row @ sla.expm(t * prop.mat) @ vec).real for t in times]
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


def test_eig_general_order_is_a_property_of_the_matrix():
    # real parts within roundoff tie, so a conjugate pair is listed + first
    # whichever member the solve gave the larger real part; a permuted copy
    # of a dense restriction lists the same eigenvalues in the same order
    rng = np.random.default_rng(81)
    pairs = 0
    for _ in range(6):
        a = restrict(propcheck.random_subharmonic_model(rng, d=8, rank=3)).gen
        p = np.eye(len(a))[rng.permutation(len(a))]
        w, _ = op.eig_general(a)
        w_perm, _ = op.eig_general(p @ a @ p.T)
        assert np.max(np.abs(w - w_perm)) <= 1e-12 * max(1.0, np.linalg.norm(a))
        tied = np.abs(np.diff(w.real)) <= 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.all(np.diff(w.imag)[tied] <= 0)
        pairs += np.sum(tied & (np.abs(w[1:] - w[:-1].conj()) <= 1e-12))
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
