import numpy as np
import pytest
import scipy.linalg as sla

import propcheck
from helpers import fast_decay_model
from qsslab import operators as op
from qsslab import qss
from qsslab.model import ModelSpec, two_qubit_both, two_qubit_site1
from qsslab.operators import adjoint, devectorize, frob, vectorize
from qsslab.qss import (
    ExtractionResult,
    QssCertificate,
    QssTheoryError,
    _pencil_roots,
    _psd_range,
    absorbing_implies_positive_rate,
    extract_qss,
    perron_structure,
    real_eigen_candidates,
    verify_qss,
)
from qsslab.structure import absorption_operator, restrict

SQRT3_4 = np.sqrt(3.0) / 4.0


def analysis(spec):
    restr = restrict(spec)
    cands = real_eigen_candidates(restr)
    return restr, extract_qss(cands)


def test_site1_omega03_two_pure_states():
    _, result = analysis(two_qubit_site1(0.3))
    assert len(result.families) == 2
    by_alpha = {round(f.alpha, 6): f for f in result.families}
    assert set(by_alpha) == {0.1, 0.9}
    # nu_+ has weight alpha_- = 0.9 on |01>, nu_- the mirror image
    for alpha, major in ((0.1, 0.9), (0.9, 0.1)):
        fam = by_alpha[alpha]
        nu = fam.anchor.nu
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = major
        expected[2, 2] = 1.0 - major
        expected[1, 2] = 0.3j
        expected[2, 1] = -0.3j
        assert np.max(np.abs(nu - expected)) < 1e-9
        assert abs(np.trace(nu @ nu).real - 1.0) < 1e-9  # pure
        assert fam.param_interval is None


def test_site1_omega03_rejections():
    _, result = analysis(two_qubit_site1(0.3))
    reasons = {round(r.alpha, 6): r.reason for r in result.rejected}
    assert "not PSD" in reasons[1.0]
    assert "empty PSD slice" in reasons[0.5]
    # pure-coherence sectors carry no trace-one element at all
    for alpha in (0.55, 0.95):
        assert "no trace-one element" in reasons[alpha]


def test_site1_omega1_segment_family():
    _, result = analysis(two_qubit_site1(1.0))
    assert len(result.families) == 1
    fam = result.families[0]
    assert abs(fam.alpha - 0.5) < 1e-9
    assert len(fam.herm_basis) == 2
    assert fam.param_interval is not None
    lo, hi = fam.param_interval
    # midpoint state: nu11 = nu22 = 1/2, nu12 = i/4
    anchor = fam.anchor.nu
    assert abs(anchor[1, 1] - 0.5) < 1e-9
    assert abs(anchor[2, 2] - 0.5) < 1e-9
    assert abs(anchor[1, 2] - 0.25j) < 1e-9
    # endpoint states realize Re nu12 = +-sqrt(3)/4
    ends = sorted(c.nu[1, 2].real for c in fam.endpoints)
    assert abs(ends[0] + SQRT3_4) < 1e-9
    assert abs(ends[1] - SQRT3_4) < 1e-9
    for c in fam.endpoints:
        assert abs(c.nu[1, 2].imag - 0.25) < 1e-9
        w = np.linalg.eigvalsh(0.5 * (c.nu + c.nu.conj().T))
        assert w[0] >= -1e-9
        assert c.residual_eigen < 1e-9


def test_both_sites_family_and_rejection():
    _, result = analysis(two_qubit_both(1.0))
    assert len(result.families) == 1
    fam = result.families[0]
    assert abs(fam.alpha - 1.0) < 1e-9
    expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    assert np.max(np.abs(fam.anchor.nu - expected)) < 1e-9
    reasons = {round(r.alpha, 6): r.reason for r in result.rejected}
    assert "not PSD" in reasons[2.0]


def test_both_sites_segment_members_are_genuine():
    # every state commuting with the exchange Hamiltonian on the
    # one-excitation sector survives conditioning; the admissible segment
    # therefore runs over Re nu12 in [-1/2, 1/2]
    spec = two_qubit_both(1.0)
    _, result = analysis(spec)
    fam = result.families[0]
    assert fam.param_interval is not None
    ends = sorted(c.nu[1, 2].real for c in fam.endpoints)
    assert abs(ends[0] + 0.5) < 1e-9 and abs(ends[1] - 0.5) < 1e-9
    for c in fam.endpoints:
        assert c.residual_eigen < 1e-9
        assert verify_qss(spec, c).residual_defn < 1e-9


def test_verify_qss_residuals_on_fixtures():
    for spec in (two_qubit_site1(1.0), two_qubit_site1(0.3), two_qubit_both(1.0)):
        _, result = analysis(spec)
        for fam in result.families:
            for cert in (fam.anchor,) + fam.endpoints:
                report = verify_qss(spec, cert)
                assert report.ok
                assert report.max_residual <= 1e-8
                assert report.alpha_log_crosscheck <= 1e-7


def test_verification_gives_the_anchor_definition_residual():
    # analyze reports verify_qss's residual_defn as the anchor's, the one
    # definition residual there is; test_full_space_oracle recomputes it
    rng = np.random.default_rng(11)
    specs = [two_qubit_site1(1.0), two_qubit_site1(0.3), two_qubit_both(1.0), two_qubit_both(0.0)]
    specs += [propcheck.random_subharmonic_model(rng) for _ in range(30)]
    for spec in specs:
        _, result = analysis(spec)
        for fam in result.families:
            assert verify_qss(spec, fam.anchor).residual_defn < 1e-9


def test_perron_marking():
    restr, result = analysis(two_qubit_site1(0.3))
    marked = perron_structure(restr, result)
    perron = [f for f in marked.families if f.anchor.is_perron]
    assert len(perron) == 1
    assert abs(perron[0].alpha - 0.1) < 1e-9
    other = [f for f in marked.families if not f.anchor.is_perron]
    assert len(other) == 1 and abs(other[0].alpha - 0.9) < 1e-9


def test_perron_existence_failure_raises():
    restr, _ = analysis(two_qubit_site1(1.0))
    empty = ExtractionResult(families=(), rejected=())
    with pytest.raises(QssTheoryError, match="existence") as exc:
        perron_structure(restr, empty)
    assert "\n" not in str(exc.value)  # printed as a one-line CLI error
    spectrum = np.array2string(np.sort_complex(restr.eig[0]), max_line_width=np.inf)
    assert str(exc.value) == f"Perron existence failed: no QSS family found; spectrum {spectrum}"


def test_absorbing_implies_positive_rate():
    absorption = absorption_operator(two_qubit_both(1.0))
    restr, result = analysis(two_qubit_both(1.0))
    marked = perron_structure(restr, result)
    assert absorbing_implies_positive_rate(absorption, marked.families[0].anchor)
    fake = QssCertificate(alpha=0.0, nu=marked.families[0].anchor.nu)
    assert not absorbing_implies_positive_rate(absorption, fake)
    non_absorbing = absorption_operator(two_qubit_site1(0.0))
    assert absorbing_implies_positive_rate(non_absorbing, fake)


def test_near_bifurcation_defective_cluster():
    # at omega = 1/2 the two decay branches collide in a double root; with a
    # loose realness tolerance extraction still produces the merged family
    restr = restrict(two_qubit_site1(0.5))
    cands = real_eigen_candidates(restr, real_tol=1e-6)
    result = extract_qss(cands)
    alphas = [f.alpha for f in result.families]
    assert any(abs(a - 0.5) < 1e-4 for a in alphas)


def test_candidates_sorted_and_hermitian():
    restr = restrict(two_qubit_site1(0.3))
    cands = real_eigen_candidates(restr)
    alphas = [c.alpha for c in cands.candidates]
    assert alphas == sorted(alphas)
    for cand in cands.candidates:
        for b in cand.herm_basis:
            assert op.is_hermitian(b, 1e-10)
            assert abs(np.linalg.norm(b) - 1.0) < 1e-10


def block_model(d, unitary=None):
    """H = 0 and L_k = |0><k|: every state on range(p0_perp) is a QSS at alpha = 1.

    ``unitary`` rotates range(p0_perp); the extreme QSSs are its pure states.
    """
    u = np.eye(d, dtype=complex)
    if unitary is not None:
        u[1:, 1:] = unitary
    jumps = []
    for k in range(1, d):
        l = np.zeros((d, d), dtype=complex)
        l[0, k] = 1.0
        jumps.append(u @ l @ u.conj().T)
    p0 = np.zeros((d, d), dtype=complex)
    p0[0, 0] = 1.0
    return ModelSpec(dim=d, hamiltonian=np.zeros((d, d)), jump_ops=tuple(jumps), p0=p0)


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_block_model_endpoints_are_pure(d):
    _, result = analysis(block_model(d))
    assert len(result.families) == 1
    fam = result.families[0]
    assert abs(fam.alpha - 1.0) < 1e-9
    assert len(fam.herm_basis) == (d - 1) ** 2
    assert len(fam.endpoints) == 4
    for c in fam.endpoints:
        w = np.linalg.eigvalsh(c.nu)
        assert w[0] >= -1e-9
        assert w[-2] <= 1e-9  # rank 1
        assert c.residual_eigen < 1e-9


def _smallest_supported_direction(fam, nu, support_tol=1e-9):
    """Smallest singular value of c -> (1 - P_nu) sum_i c_i d_i.

    The d_i span the traceless part of the family's eigenspace.  A positive
    value certifies that no direction of the slice is supported on supp nu,
    i.e. that nu is an extreme point of the PSD slice.
    """
    basis = np.array(fam.herm_basis)
    traces = np.einsum("kii->k", basis).real
    dirs = np.tensordot(sla.null_space(traces[None, :]).T, basis, axes=1)
    w, v = np.linalg.eigh(nu)
    support = v[:, w > support_tol]
    off = dirs - support @ (support.conj().T @ dirs)
    flat = off.reshape(len(dirs), -1)
    return np.linalg.svd(np.hstack([flat.real, flat.imag]), compute_uv=False)[-1]


def test_high_dim_endpoints_carry_extremality_certificate():
    specs = [block_model(d) for d in (3, 4, 5)]
    specs += [block_model(4, random_unitary(3, 17)), two_qubit_site1(0.0), two_qubit_both(0.0)]
    checked = 0
    for spec in specs:
        _, result = analysis(spec)
        for fam in result.families:
            if len(fam.herm_basis) < 3:
                continue
            assert fam.param_interval is None
            for c in fam.endpoints:
                assert np.linalg.eigvalsh(c.nu)[0] >= -1e-9
                assert _smallest_supported_direction(fam, c.nu) > 1e-6
                checked += 1
    assert checked >= 4 * len(specs)


def test_psd_range_when_min_norm_point_is_not_psd():
    # the segment between a pure P and R = diag(.9, .1, 0): its line's
    # minimum-norm point lies beyond R and is not PSD
    psi = np.sqrt([0.95, 0.0, 0.05])
    p = np.outer(psi, psi).astype(complex)
    r = np.diag([0.9, 0.1, 0.0]).astype(complex)
    d = r - p
    s0 = -np.vdot(d, p).real / np.vdot(d, d).real
    nu0 = p + s0 * d
    assert np.linalg.eigvalsh(nu0)[0] < -1e-3
    lo, hi = _psd_range(nu0, d)
    assert abs(lo + s0) < 1e-12  # P
    assert abs(hi - (1.0 - s0)) < 1e-12  # R
    # a direction that leaves the negative diagonal entry of nu0 alone
    swap_12 = np.zeros((3, 3), dtype=complex)
    swap_12[0, 1] = swap_12[1, 0] = 1.0
    assert _psd_range(nu0, swap_12) is None


def _pencil(rng, n, rank, null_sign=1.0):
    """Random Hermitian a and b with rank(b) = rank; a's block on null(b) is
    definite with sign ``null_sign``."""
    h = propcheck._rand_hermitian(rng, n)
    q, _ = np.linalg.qr(propcheck._rand_complex(rng, (n, n)))
    beta = rng.uniform(0.2, 2.0, rank) * rng.choice([-1.0, 1.0], rank)
    b = (q[:, :rank] * beta) @ adjoint(q[:, :rank])
    null = q[:, rank:] @ adjoint(q[:, rank:])
    return h + null_sign * (np.linalg.norm(h, 2) + 1.0) * null, b


def test_pencil_roots_match_the_generalized_eigenvalues():
    # oracle: scipy's QZ eigenvalues of (a, -b), whose finite ones are the
    # roots of det(a + t b); b of every rank, down to b = 0 (no roots)
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for rank in range(n + 1):
            a, b = _pencil(rng, n, rank)
            ref = sla.eigvals(a, -b)
            ref = list(ref[np.abs(ref) < 1e8])  # QZ leaves null(b) at inf or near it
            roots = _pencil_roots(a, b)
            assert len(roots) == len(ref) == rank
            for r in roots:
                k = int(np.argmin(np.abs(np.array(ref) - r)))
                assert abs(ref.pop(k) - r) <= 1e-8 * max(1.0, abs(r)), (n, rank)
            if rank < n:  # a negative definite on null(b): no a + t b is PSD
                assert _pencil_roots(*_pencil(rng, n, rank, null_sign=-1.0)) is None


def _psd_range_with_qz(x, d):
    """``_psd_range`` as it was on the finite roots of scipy's generalized eigensolve."""
    u, s, _ = np.linalg.svd(np.hstack([x, d]))
    u = u[:, s > qss.FACE_TOL * s[0]]
    a, b = adjoint(u) @ x @ u, adjoint(u) @ d @ u
    roots = sla.eigvals(a, -b)
    roots = np.sort(roots[np.isfinite(roots)].real)
    if len(roots) > 1:
        mid_eigs = [qss._min_eig(a + 0.5 * (r0 + r1) * b) for r0, r1 in zip(roots, roots[1:])]
        k = int(np.argmax(mid_eigs))
        if mid_eigs[k] >= -op.TOL_PSD:
            return roots[k], roots[k + 1]
    return next(((r, r) for r in roots if qss._min_eig(a + r * b) >= -op.TOL_PSD), None)


def test_psd_range_matches_the_generalized_eigensolve():
    # trace-one x and traceless d, each of random rank, so that b is often
    # singular on the joint range; x is shifted down so some slices are empty
    rng = np.random.default_rng(43)
    seen = {"empty": 0, "interval": 0, "singular d": 0}
    for _ in range(300):
        n = int(rng.integers(2, 6))
        g = propcheck._rand_complex(rng, (n, int(rng.integers(1, n + 1))))
        x = g @ adjoint(g)
        x = x / np.trace(x).real - rng.uniform(0.0, 0.3) * np.eye(n) / n
        g = propcheck._rand_complex(rng, (n, int(rng.integers(2, n + 1))))
        c = rng.uniform(0.5, 2.0, g.shape[1])
        weights = np.sum(np.abs(g) ** 2, axis=0)
        c[-1] = -(c[:-1] @ weights[:-1]) / weights[-1]  # traceless
        d = (g * c) @ adjoint(g)
        got, want = _psd_range(x, d), _psd_range_with_qz(x, d)
        seen["empty"] += got is None
        seen["interval"] += got is not None
        seen["singular d"] += g.shape[1] < n
        assert (got is None) == (want is None)
        if got is not None:
            assert np.allclose(got, want, rtol=1e-8, atol=1e-8)
    assert min(seen.values()) >= 30


@pytest.mark.parametrize(
    "spec, half_width",
    [(two_qubit_both(1.0), 1.0 / np.sqrt(2.0)), (two_qubit_site1(1.0), np.sqrt(3.0 / 8.0))],
)
def test_segment_intervals_are_exact(spec, half_width):
    _, result = analysis(spec)
    lo, hi = result.families[0].param_interval
    assert abs(lo + half_width) < 1e-14
    assert abs(hi - half_width) < 1e-14


def test_lazy_residuals_equal_direct_calls():
    # anchors and endpoints of every family, read after Perron marking (whose
    # replace() must carry the restriction and rho_hat along)
    dims = set()
    for factory in (two_qubit_site1, two_qubit_both):
        for omega in (0.0, 0.25, 1.0):
            restr, result = analysis(factory(omega))
            for fam in perron_structure(restr, result).families:
                dims.add(len(fam.herm_basis))
                for c in (fam.anchor,) + fam.endpoints:
                    assert c.restr is restr
                    assert np.array_equal(restr.embed(c.rho_hat), c.nu)
                    assert c.residual_eigen == qss._eigen_residual(restr, c.alpha, c.rho_hat)
                    assert max(c.residual_eigen, verify_qss(restr.spec, c).residual_defn) < 1e-9
    assert dims == {1, 2, 4}


def _hermitian_basis_by_columns(vectors, tol=1e-8):
    """The per-column construction of ``qss._hermitian_basis``, kept as its reference."""
    cols = []
    for j in range(vectors.shape[1]):
        v = devectorize(vectors[:, j])
        cols.append(vectorize(0.5 * (v + adjoint(v))))
        cols.append(vectorize(0.5j * (v - adjoint(v))))
    stacked = np.column_stack(cols)
    real_stacked = np.vstack([stacked.real, stacked.imag])
    u, s, _ = np.linalg.svd(real_stacked, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    half = stacked.shape[0]
    basis = []
    for j in range(rank):
        b = devectorize(u[:half, j] + 1j * u[half:, j])
        b = 0.5 * (b + adjoint(b))
        basis.append(b / frob(b))
    return tuple(basis)


def test_hermitian_basis_matches_per_column_reference(monkeypatch):
    # the eigenvector column sets the fixtures hand to _hermitian_basis
    fixture_inputs = []
    stacked = qss._hermitian_basis

    def recording(vectors):
        fixture_inputs.append(vectors)
        return stacked(vectors)

    monkeypatch.setattr(qss, "_hermitian_basis", recording)
    for factory in (two_qubit_site1, two_qubit_both):
        for omega in (0.0, 0.25, 0.5, 1.0):
            real_eigen_candidates(restrict(factory(omega)))
    rng = np.random.default_rng(9)
    random_inputs = []
    for m in range(2, 7):
        for k in range(1, 5):
            z = rng.standard_normal((m * m, k + 1)) + 1j * rng.standard_normal((m * m, k + 1))
            random_inputs += [z[:, :k], np.ascontiguousarray(z[:, 1:])]
    # the SVD input, not only the basis, must be equal to the bit
    svd_inputs = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svd_inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert len(fixture_inputs) > 20
    for vectors in fixture_inputs + random_inputs:
        svd_inputs.clear()
        got, ref = stacked(vectors), _hermitian_basis_by_columns(vectors)
        assert len(svd_inputs) == 2 and np.array_equal(svd_inputs[0], svd_inputs[1])
        assert len(got) == len(ref) and all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_verify_flags_an_evolution_that_underflows(monkeypatch):
    spec = fast_decay_model()
    restr, result = analysis(spec)
    anchor = perron_structure(restr, result).families[0].anchor
    assert anchor.alpha == pytest.approx(400.0)
    monkeypatch.setattr(qss, "apply_semigroup", lambda prop, t, x: np.zeros(np.shape(t) + np.shape(x)))
    report = verify_qss(spec, anchor)
    assert not report.ok
    assert report.residual_defn == report.residual_repeated == report.alpha_log_crosscheck == np.inf
