import os

import numpy as np
import pytest

from qsslab import cli, qss, structure
from qsslab import operators as op
from qsslab.classical import RateMatrix, embed
from qsslab.model import ModelSpec, apply_semigroup, two_qubit_both, two_qubit_site1
from qsslab.structure import (
    StructureError,
    absorption_operator,
    check_irreducible,
    check_subharmonic,
    restrict,
)


def raising_model():
    # |00><00| is not invariant under a raising jump operator
    raise_1 = np.zeros((4, 4), dtype=complex)
    raise_1[2, 0] = 1.0  # |10><00|
    p0 = np.diag([1.0, 0, 0, 0]).astype(complex)
    return ModelSpec(dim=4, hamiltonian=np.zeros((4, 4)), jump_ops=(raise_1,), p0=p0)


def test_subharmonic_fixtures():
    for spec in (two_qubit_site1(1.0), two_qubit_site1(0.3), two_qubit_both(1.0)):
        report = check_subharmonic(spec)
        assert report.verdict
        assert report.algebraic_residual < 1e-12
        assert report.semigroup_residual >= -1e-9


def test_subharmonic_negative():
    report = check_subharmonic(raising_model())
    assert not report.verdict
    assert report.algebraic_residual > 0.5


def test_restrict_requires_subharmonic():
    with pytest.raises(StructureError, match="subharmonic"):
        restrict(raising_model())


def test_restrict_canonical_isometry_and_roundtrip():
    restr = restrict(two_qubit_site1(1.0))
    assert restr.m == 3
    expected = np.zeros((4, 3), dtype=complex)
    expected[1, 0] = expected[2, 1] = expected[3, 2] = 1.0
    assert np.allclose(restr.isometry, expected)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(restr.compress(restr.embed(x)), x)


def test_restricted_operators_match_hand_forms():
    omega = 0.7
    restr = restrict(two_qubit_site1(omega))
    e = np.eye(3, dtype=complex)
    h_hat = 0.5 * omega * (np.outer(e[0], e[1]) + np.outer(e[1], e[0]))
    g_expected = -1j * h_hat - 0.5 * np.diag([0.0, 1.0, 1.0])
    assert np.allclose(restr.g_hat, g_expected)
    assert len(restr.jumps_hat) == 1
    assert np.allclose(restr.jumps_hat[0], np.outer(e[0], e[2]))


def _sorted_spectrum(restr):
    w, _ = op.eig_general(restr.gen_schr.mat)
    return sorted((round(z.real, 8), round(z.imag, 8)) for z in w)


def test_restricted_spectrum_site1_omega03():
    # roots of the decoupled linear systems for the restricted generator
    expected = sorted(
        (x, 0.0)
        for x in (-0.1, -0.5, -0.5, -0.55, -0.55, -0.9, -0.95, -0.95, -1.0)
    )
    got = _sorted_spectrum(restrict(two_qubit_site1(0.3)))
    for (re_g, im_g), (re_e, im_e) in zip(got, expected):
        assert abs(re_g - re_e) < 1e-8 and abs(im_g - im_e) < 1e-8


def test_restricted_spectrum_site1_omega1():
    s3 = np.sqrt(3.0)
    expected = sorted(
        [(-0.5, 0.0), (-0.5, 0.0), (-1.0, 0.0),
         (-0.5, s3 / 2), (-0.5, -s3 / 2),
         (-0.75, s3 / 4), (-0.75, -s3 / 4),
         (-0.75, s3 / 4), (-0.75, -s3 / 4)]
    )
    got = _sorted_spectrum(restrict(two_qubit_site1(1.0)))
    for (re_g, im_g), (re_e, im_e) in zip(got, expected):
        assert abs(re_g - re_e) < 1e-8 and abs(im_g - im_e) < 1e-8


def test_restricted_spectrum_both_omega1():
    expected = sorted(
        [(-1.0, 1.0), (-1.0, -1.0), (-1.0, 0.0), (-1.0, 0.0),
         (-1.5, 0.5), (-1.5, -0.5), (-1.5, 0.5), (-1.5, -0.5),
         (-2.0, 0.0)]
    )
    got = _sorted_spectrum(restrict(two_qubit_both(1.0)))
    for (re_g, im_g), (re_e, im_e) in zip(got, expected):
        assert abs(re_g - re_e) < 1e-8 and abs(im_g - im_e) < 1e-8


def test_restriction_subunital():
    for spec in (two_qubit_site1(1.0), two_qubit_both(1.0)):
        restr = restrict(spec)
        ident = np.eye(restr.m, dtype=complex)
        for t in (0.5, 1.0, 2.0):
            evolved = apply_semigroup(restr.gen_heis, t, ident)
            diff = ident - evolved
            w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
            assert w[0] >= -1e-9


def test_absorption_both_sites_is_absorbing():
    report = absorption_operator(two_qubit_both(1.0))
    assert report.is_absorbing
    assert np.linalg.norm(report.a_op - np.eye(4)) < 1e-6
    assert report.residual_harmonic < 1e-8
    assert report.convergence_gap <= 1e-8


def test_absorption_site1_coupled_is_absorbing():
    report = absorption_operator(two_qubit_site1(1.0))
    assert report.is_absorbing


def test_absorption_site1_uncoupled_dark_state():
    # without exchange coupling the site-2 excitation never decays
    report = absorption_operator(two_qubit_site1(0.0))
    assert not report.is_absorbing
    assert np.allclose(report.a_op, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-8)
    restr = restrict(two_qubit_site1(0.0))
    w, _ = op.eig_general(restr.gen_schr.mat)
    assert np.min(np.abs(w)) < 1e-9  # alpha = 0 eigenvalue present


def test_irreducibility_fixtures_are_reducible():
    for spec in (two_qubit_site1(1.0), two_qubit_both(1.0)):
        report = check_irreducible(restrict(spec))
        assert not report.verdict
        assert report.witness is not None
        assert report.witness.shape[1] < 3


def test_irreducibility_classical_connected_chain():
    rm = RateMatrix(
        n=3,
        q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]),
        absorbing_set=(2,),
    )
    report = check_irreducible(restrict(embed(rm)))
    assert report.verdict
    assert report.witness is None


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_analyze_decomposes_each_generator_once(models_dir, monkeypatch, tmp_path):
    # heisenberg, schrodinger and restricted generators plus g_hat in the
    # irreducibility search: one dense eigensolve each
    dense_eig = _count_calls(monkeypatch, np.linalg, "eig")
    subharmonic = _count_calls(monkeypatch, structure, "check_subharmonic")
    eig_general = _count_calls(monkeypatch, op, "eig_general")
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    assert len(dense_eig) <= 5
    assert len(subharmonic) == 1
    assert len(eig_general) == 1


def test_simulate_checks_subharmonicity_once(models_dir, monkeypatch, tmp_path):
    subharmonic = _count_calls(monkeypatch, structure, "check_subharmonic")
    path = os.path.join(models_dir, "two_qubit_site1.json")
    rc = cli.main(
        ["simulate", path, "--start", "qss", "--samples", "20", "--out", str(tmp_path / "s.json")]
    )
    assert rc == 0
    assert len(subharmonic) == 1


def test_simulate_skips_the_analyze_only_stages(models_dir, monkeypatch, tmp_path):
    calls = [
        _count_calls(monkeypatch, structure, "absorption_operator"),
        _count_calls(monkeypatch, structure, "check_irreducible"),
        _count_calls(monkeypatch, qss, "verify_qss"),
    ]
    path = os.path.join(models_dir, "two_qubit_both.json")
    rc = cli.main(["simulate", path, "--samples", "20", "--out", str(tmp_path / "s.json")])
    assert rc == 0
    assert calls == [[], [], []]
