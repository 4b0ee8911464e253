import os

from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

from propcheck import random_subharmonic_model
from qsslab import cli, model, qss, structure, trajectory
from qsslab import operators as op
from qsslab.classical import RateMatrix, embed
from qsslab.model import (
    ModelSpec,
    apply_semigroup,
    build_generator,
    two_qubit_both,
    two_qubit_site1,
)
from qsslab.structure import (
    StructureError,
    absorption_operator,
    algebra_dimension,
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
    w, _ = op.eig_general(restr.gen)
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
            evolved = apply_semigroup(restr.propagator.adjoint(), t, ident)
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
    w, _ = op.eig_general(restr.gen)
    assert np.min(np.abs(w)) < 1e-9  # alpha = 0 eigenvalue present


@pytest.mark.parametrize("omega", [0.5 - 1e-6, 0.5, 0.5 + 1e-6])
def test_absorption_at_the_branch_collision_matches_the_long_time_limit(omega):
    # the eigenbasis has condition number ~4e10 at omega = 1/2; the kernel
    # projector from the kernel rows of V^-1 still gets the limit right there
    spec = two_qubit_site1(omega)
    heis = op.adjoint(build_generator(spec))
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
    heis = op.adjoint(build_generator(spec))
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
    full = build_generator(spec)
    for heisenberg in (True, False):
        ref = op.Propagator(compress @ (op.adjoint(full) if heisenberg else full) @ embed)
        prop = restr.propagator.adjoint() if heisenberg else restr.propagator
        assert np.array_equal(prop.mat, ref.mat)
        assert prop.spectral
        vec = op.vectorize(one if heisenberg else one / restr.m)
        for t in (0.1, 1.0, 10.0):
            want = ref.matrix(t)
            got = prop.matrix(t)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            want_vec = want @ vec
            assert np.linalg.norm(prop.apply(t, vec) - want_vec) <= 1e-12 * np.linalg.norm(want_vec)


@pytest.mark.parametrize("omega", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("family", [two_qubit_site1, two_qubit_both])
def test_heisenberg_propagator_is_the_adjoint_of_a_fresh_solve(family, omega):
    # propagator.adjoint() adjoins the decomposition of S; Propagator(adjoint(S))
    # solves S^dag afresh.  At the site-1 branch collision both take the fallback.
    restr = restrict(family(omega))
    got, fresh = restr.propagator.adjoint(), op.Propagator(op.adjoint(restr.gen))
    assert got.spectral == fresh.spectral == (family(omega).label != two_qubit_site1(0.5).label)
    assert np.array_equal(got.mat, fresh.mat)
    assert np.array_equal(got.w, restr.eig[0].conj())
    if got.spectral:
        scale = op.frob(got.mat)
        assert op.frob(got.mat @ got.v - got.v * got.w) <= 1e-12 * scale
        assert op.frob(got.v_inv @ got.v - np.eye(len(got.w))) <= 1e-12
    vec = op.vectorize(np.eye(restr.m))
    times = np.array([0.0, 0.1, 1.0, 10.0])
    want = fresh.apply(times, vec)
    assert np.linalg.norm(got.apply(times, vec) - want) <= 1e-12 * np.linalg.norm(want)


def test_kernel_projector_needs_an_invertible_eigenbasis_only_for_a_kernel(monkeypatch):
    # a singular V (one eigenvector zeroed) leaves no kernel projector when
    # the kernel is non-empty (site 1 uncoupled: the dark state); an absorbing
    # p0 has an empty kernel and still gets A(p0) = 1 exactly
    solve = op.eig_general

    def singular_eig(a):
        w, v = solve(a)
        v = v.copy()
        v[:, 1] = 0.0
        return w, v

    monkeypatch.setattr(op, "eig_general", singular_eig)
    with pytest.raises(op.EigenSolveError, match="singular eigenbasis"):
        absorption_operator(two_qubit_site1(0.0))
    report = absorption_operator(two_qubit_both(1.0))
    assert np.array_equal(report.a_op, np.eye(4))


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
    assert report.note == "irreducible (algebra dimension 4 = m^2)"


def _naive_algebra_dimension(ops) -> int:
    """Rank of the span of all words in ``ops``, regrown in full every round."""
    m = ops[0].shape[0]
    words = [np.eye(m, dtype=complex)]
    rank = 1
    while True:
        words = words + [a @ w for a in ops for w in words]
        u, s, _ = np.linalg.svd(np.array([w.ravel() for w in words]).T, full_matrices=False)
        words = [col.reshape(m, m) for col in u[:, s > 1e-9 * s[0]].T]
        if len(words) == rank:
            return rank
        rank = len(words)


def _old_closure_verdict(restr) -> bool:
    """The seeded closure search alone: irreducible iff it finds no witness."""
    return structure._witness_search(restr) is None


def _burnside_cases():
    omegas = (0.0, 1e-6, 1e-3, 0.015, 0.25, 0.5, 0.5 + 1e-12, 0.75, 1.0)
    fixtures = [(f"{name}-{w:.13g}", factory(w)) for name, factory in
                (("site1", two_qubit_site1), ("both", two_qubit_both)) for w in omegas]
    rng = np.random.default_rng(5150)
    randoms = [(f"random-{k}", random_subharmonic_model(rng)) for k in range(6)]
    randoms += [("random-d6", random_subharmonic_model(rng, d=6, rank=3))]
    return dict(fixtures + randoms)


BURNSIDE_CASES = _burnside_cases()


@pytest.mark.parametrize("spec", BURNSIDE_CASES.values(), ids=BURNSIDE_CASES.keys())
def test_burnside_verdict_is_the_algebra_dimension_and_matches_the_closure_search(spec):
    restr = restrict(spec)
    ops = [restr.g_hat] + list(restr.jumps_hat)
    dim = _naive_algebra_dimension(ops)
    assert algebra_dimension(ops) == dim
    report = check_irreducible(restr)
    assert report.verdict == (dim == restr.m**2) == _old_closure_verdict(restr)
    if report.verdict:
        assert report.note == f"irreducible (algebra dimension {dim} = m^2)"
    else:
        assert report.note == f"invariant subspace of dimension {report.witness.shape[1]} found"


def _with_spectator(spec: ModelSpec, k: int = 2) -> ModelSpec:
    one = np.eye(k)
    return ModelSpec(dim=spec.dim * k, hamiltonian=np.kron(spec.hamiltonian, one),
                     jump_ops=tuple(np.kron(l, one) for l in spec.jump_ops), p0=np.kron(spec.p0, one))


def test_idle_spectator_makes_an_irreducible_restriction_reducible():
    rm = RateMatrix(
        n=3,
        q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]),
        absorbing_set=(2,),
    )
    restr = restrict(_with_spectator(embed(rm)))
    assert restr.m == 4
    assert algebra_dimension([restr.g_hat] + list(restr.jumps_hat)) == 4  # M_2 (x) 1_2
    report = check_irreducible(restr)
    assert not report.verdict
    assert report.note == "invariant subspace of dimension 2 found"
    for a in [restr.g_hat] + list(restr.jumps_hat):  # the witness is invariant
        image = a @ report.witness
        assert np.linalg.norm(image - report.witness @ (report.witness.conj().T @ image)) <= 1e-10


def test_reducible_restriction_without_a_closure_witness():
    # on range(p0_perp) = span(e1, e2): L1 = |u><u_perp|, L2 = |u><u| with
    # u = (e1 + e2)/sqrt(2), so span(u) is invariant (block upper triangular
    # in the basis u, u_perp) and g_hat = -1/2 is scalar.  The eigenvectors
    # of g_hat are e1, e2, whose closures are everything, as are those of the
    # random Hermitian combinations: only the algebra dimension tells.
    u = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    u_perp = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    spec = ModelSpec(dim=3, hamiltonian=np.zeros((3, 3)),
                     jump_ops=(np.outer(u, u_perp), np.outer(u, u)),
                     p0=np.diag([1.0, 0.0, 0.0]).astype(complex))
    restr = restrict(spec)
    assert np.allclose(restr.g_hat, -0.5 * np.eye(2))
    assert _old_closure_verdict(restr)  # the search alone would say irreducible
    report = check_irreducible(restr)
    assert not report.verdict
    assert report.witness is None
    assert report.note == "reducible (algebra dimension 3 < m^2; no witness found)"


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
    # one m^2 x m^2 solve serves the restriction and its adjoint, g_hat
    # (m x m) seeds the witness search of the reducible restriction, and no
    # d^2 x d^2 matrix is built (only simulate's kernel builds one), let alone
    # eigendecomposed
    sizes = Counter()
    _count_sizes(monkeypatch, np.linalg, "eig", sizes)
    _count_sizes(monkeypatch, sla, "eig", sizes)
    subharmonic = _count_calls(monkeypatch, structure, "check_subharmonic")
    eig_general = _count_calls(monkeypatch, op, "eig_general")
    matrix = _count_calls(monkeypatch, op.Propagator, "matrix")
    full_space = [
        _count_calls(monkeypatch, model, "gkls_matrix"),
        _count_calls(monkeypatch, model, "build_generator"),
        _count_calls(monkeypatch, trajectory, "build_generator"),
    ]
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    m = 3
    assert sizes == {m * m: 1, m: 1}
    assert len(subharmonic) == 1
    assert len(eig_general) == 1
    # every propagator of this model is spectral, so apply_semigroup never
    # forms exp(tL)
    assert matrix == []
    assert full_space == [[], [], []]


def test_each_time_grid_is_one_propagator_call(models_dir, monkeypatch, tmp_path):
    # analyze: absorption 1 (converged within the first block of eight
    # doublings), verification 1 + 3 for the repeated cycle; the verification's
    # grid also gives the one reported anchor's definition residual (the
    # segment ends are reported by nu alone and never certified).
    # Subharmonicity is algebraic and evolves nothing, and neither does sweep,
    # which reads only the decay rates.
    apply = _count_calls(monkeypatch, op.Propagator, "apply")
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    assert len(apply) == 5
    apply.clear()
    assert cli.main(["sweep", path, "--range", "0:1:41", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(apply) == 0


def test_only_analyze_certifies_and_only_what_it_reports(models_dir, monkeypatch, tmp_path):
    # certificate residuals are computed on first read: sweep reads only the
    # decay rates and simulate only the Perron anchor's nu
    calls = [
        _count_calls(monkeypatch, qss, "_eigen_residual"),
        _count_calls(monkeypatch, qss, "verify_qss"),
    ]
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["sweep", path, "--range", "0:1:41", "--out", str(tmp_path / "s.csv")]) == 0
    assert cli.main(["simulate", path, "--samples", "20", "--out", str(tmp_path / "s.json")]) == 0
    assert calls == [[], []]
    # analyze reads the eigen residual of its one family's anchor, not of the
    # segment ends; the definition residual comes from its one verify_qss
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [["_eigen_residual"], ["verify_qss"]]


def test_sweep_solves_one_restriction_per_point(models_dir, monkeypatch, tmp_path):
    sizes = Counter()
    _count_sizes(monkeypatch, np.linalg, "eig", sizes)
    _count_sizes(monkeypatch, sla, "eig", sizes)
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["sweep", path, "--range", "0.1:1.0:4", "--out", str(tmp_path / "s.csv")]) == 0
    assert sizes == {3 * 3: 4}


def test_each_command_builds_only_the_propagators_it_evolves_with(models_dir, monkeypatch, tmp_path):
    # the restriction's propagator is built on first use: analyze builds it
    # once (m^2), simulate builds its loop (m^2 + 1) and no-jump (d^2)
    # propagators only, and sweep (through the defective omega = 1/2, where
    # a propagator would take the expm fallback) and classical build none
    sizes = Counter()
    init = op.Propagator.__init__

    def counting(self, a, *args, **kwargs):
        sizes[np.shape(a)[0]] += 1
        init(self, a, *args, **kwargs)

    monkeypatch.setattr(op.Propagator, "__init__", counting)
    site1 = os.path.join(models_dir, "two_qubit_site1.json")
    d, m = 4, 3
    for argv, want in (
        (["analyze", site1], {m * m: 1}),
        (["simulate", site1, "--samples", "20"], {m * m + 1: 1, d * d: 1}),
        (["sweep", site1, "--range", "0:1:5"], {}),
        (["classical", os.path.join(models_dir, "classical_two_state.json")], {}),
    ):
        sizes.clear()
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert sizes == want, argv[0]


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
