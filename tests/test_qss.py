import numpy as np
import pytest

from qsslab import operators as op
from qsslab.model import two_qubit_both, two_qubit_site1
from qsslab.qss import (
    ExtractionResult,
    QssCertificate,
    QssTheoryError,
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
    _, result = analysis(two_qubit_both(1.0))
    fam = result.families[0]
    assert fam.param_interval is not None
    ends = sorted(c.nu[1, 2].real for c in fam.endpoints)
    assert abs(ends[0] + 0.5) < 1e-9 and abs(ends[1] - 0.5) < 1e-9
    for c in fam.endpoints:
        assert c.residual_eigen < 1e-9
        assert c.residual_defn < 1e-9


def test_verify_qss_residuals_on_fixtures():
    for spec in (two_qubit_site1(1.0), two_qubit_site1(0.3), two_qubit_both(1.0)):
        _, result = analysis(spec)
        for fam in result.families:
            for cert in (fam.anchor,) + fam.endpoints:
                report = verify_qss(spec, cert)
                assert report.ok
                assert report.max_residual <= 1e-8
                assert report.alpha_log_crosscheck <= 1e-7


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


def test_absorbing_implies_positive_rate():
    absorption = absorption_operator(two_qubit_both(1.0))
    restr, result = analysis(two_qubit_both(1.0))
    marked = perron_structure(restr, result)
    assert absorbing_implies_positive_rate(absorption, marked.families[0].anchor)
    fake = QssCertificate(
        alpha=0.0,
        nu=marked.families[0].anchor.nu,
        residual_eigen=0.0,
        residual_defn=0.0,
    )
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
