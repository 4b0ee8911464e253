import os

from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

from qsslab import cli, qss, structure
from qsslab import operators as op
from qsslab.classical import RateMatrix, embed
from qsslab.model import (
    HEISENBERG,
    SCHRODINGER,
    ModelSpec,
    Superop,
    apply_semigroup,
    build_generator,
    two_qubit_both,
    two_qubit_site1,
)
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


@pytest.mark.parametrize("omega", [0.5 - 1e-6, 0.5, 0.5 + 1e-6])
def test_absorption_at_the_branch_collision_matches_the_long_time_limit(omega):
    # the Heisenberg eigenbasis is singular to working precision at omega = 1/2,
    # so only the left/right kernel projector gets the limit right there
    spec = two_qubit_site1(omega)
    heis = build_generator(spec, HEISENBERG).mat
    limit = op.devectorize(sla.expm(400.0 * heis) @ op.vectorize(spec.p0))
    report = absorption_operator(spec)
    assert np.max(np.abs(report.a_op - limit)) <= 1e-9
    assert report.is_absorbing


def test_absorption_with_a_multidimensional_heisenberg_kernel():
    # H = 0, L = |0><2|, p0 = |0><0|: |1> is dark, |2> decays into range(p0)
    jump = np.zeros((3, 3), dtype=complex)
    jump[0, 2] = 1.0
    spec = ModelSpec(dim=3, hamiltonian=np.zeros((3, 3)), jump_ops=(jump,),
                     p0=np.diag([1.0, 0.0, 0.0]).astype(complex))
    heis = build_generator(spec, HEISENBERG).mat
    w = np.linalg.eigvals(heis)
    assert np.sum(np.abs(w) <= 1e-9 * max(1.0, op.frob(heis))) >= 2
    report = structure.Analysis(spec).absorption
    assert np.max(np.abs(report.a_op - np.diag([1.0, 0.0, 1.0]))) <= 1e-9
    assert not report.is_absorbing


@pytest.mark.parametrize("omega", [5e-4, 1e-3, 1e-2])
def test_small_omega_absorption_is_exact(omega):
    # the slowest restricted rate is ~omega^2, far above the kernel cut, so
    # the restricted Heisenberg kernel is empty and A(p0) = 1 exactly
    report = absorption_operator(two_qubit_site1(omega))
    assert np.max(np.abs(report.a_op - np.eye(4))) <= 1e-14
    assert report.is_absorbing


@pytest.mark.parametrize("spec", [two_qubit_site1(1.0), two_qubit_both(0.3)], ids=["site1", "both"])
def test_analysis_propagators_match_independent_generators(spec):
    # the restricted generators against compressions of the independently
    # built full-space ones, whose propagators eigendecompose them afresh
    restr = structure.Analysis(spec).restriction
    v, one = restr.isometry, np.eye(restr.m)
    compress, embed = np.kron(v.T, v.conj().T), np.kron(v.conj(), v)
    for picture, gen in ((HEISENBERG, restr.gen_heis), (SCHRODINGER, restr.gen_schr)):
        ref = Superop(mat=compress @ build_generator(spec, picture).mat @ embed, picture=picture, dim=restr.m)
        assert np.array_equal(gen.mat, ref.mat)
        assert gen.propagator.spectral
        vec = op.vectorize(one if picture == HEISENBERG else one / restr.m)
        for t in (0.1, 1.0, 10.0):
            want = ref.propagator.matrix(t)
            got = gen.propagator.matrix(t)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            want_vec = want @ vec
            assert np.linalg.norm(gen.propagator.apply(t, vec) - want_vec) <= 1e-12 * np.linalg.norm(
                want_vec
            )


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


def _count_sizes(monkeypatch, owner, name, sizes):
    original = getattr(owner, name)

    def counting(a, *args, **kwargs):
        sizes[np.shape(a)[0]] += 1
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_analyze_decomposes_each_generator_once(models_dir, monkeypatch, tmp_path):
    # one m^2 x m^2 solve serves the restriction in both pictures, g_hat
    # (m x m) seeds the irreducibility search, and no d^2 x d^2 matrix is
    # eigendecomposed
    sizes = Counter()
    _count_sizes(monkeypatch, np.linalg, "eig", sizes)
    _count_sizes(monkeypatch, sla, "eig", sizes)
    subharmonic = _count_calls(monkeypatch, structure, "check_subharmonic")
    eig_general = _count_calls(monkeypatch, op, "eig_general")
    matrix = _count_calls(monkeypatch, op.Propagator, "matrix")
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    m = 3
    assert sizes == {m * m: 1, m: 1}
    assert len(subharmonic) == 1
    assert len(eig_general) == 1
    # every propagator of this model is spectral, so apply_semigroup never
    # forms exp(tL)
    assert matrix == []


def test_each_time_grid_is_one_propagator_call(models_dir, monkeypatch, tmp_path):
    # analyze: subharmonicity 1, absorption 1 (converged within the first block
    # of eight doublings), the definition residual of the one reported anchor 1
    # (the segment ends are reported by nu alone and never certified),
    # verification 1 + 3 for the repeated cycle.  sweep reads only the decay
    # rates, so it evolves nothing.
    apply = _count_calls(monkeypatch, op.Propagator, "apply")
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    assert len(apply) == 7
    apply.clear()
    assert cli.main(["sweep", path, "--range", "0:1:41", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(apply) == 0


def test_only_analyze_certifies_and_only_what_it_reports(models_dir, monkeypatch, tmp_path):
    # certificate residuals are computed on first read: sweep reads only the
    # decay rates and simulate only the Perron anchor's nu
    calls = [
        _count_calls(monkeypatch, qss, "_eigen_residual"),
        _count_calls(monkeypatch, qss, "_defn_residual"),
    ]
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["sweep", path, "--range", "0:1:41", "--out", str(tmp_path / "s.csv")]) == 0
    assert cli.main(["simulate", path, "--samples", "20", "--out", str(tmp_path / "s.json")]) == 0
    assert calls == [[], []]
    # analyze reads them of its one family's anchor, not of the segment ends
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [["_eigen_residual"], ["_defn_residual"]]


def test_sweep_solves_one_restriction_per_point(models_dir, monkeypatch, tmp_path):
    sizes = Counter()
    _count_sizes(monkeypatch, np.linalg, "eig", sizes)
    _count_sizes(monkeypatch, sla, "eig", sizes)
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["sweep", path, "--range", "0.1:1.0:4", "--out", str(tmp_path / "s.csv")]) == 0
    assert sizes == {3 * 3: 4}


def test_simulate_solves_only_the_nojump_generator_in_full(models_dir, monkeypatch, tmp_path):
    sizes = Counter()
    _count_sizes(monkeypatch, np.linalg, "eig", sizes)
    _count_sizes(monkeypatch, sla, "eig", sizes)
    path = os.path.join(models_dir, "two_qubit_site1.json")
    rc = cli.main(["simulate", path, "--samples", "20", "--out", str(tmp_path / "s.json")])
    assert rc == 0
    d, m = 4, 3
    assert sizes == {d * d: 1, m * m: 1}


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
