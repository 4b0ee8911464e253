import json
import os

from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

from helpers import model_to_doc, rotated, with_spectator
from oracles import apply_semigroup, full_generator
from propcheck import random_subharmonic_model
from qsslab import cli, model, qss, structure, trajectory
from qsslab import operators as op
from qsslab.classical import RateMatrix, embed
from qsslab.model import (
    ModelSpec,
    two_qubit_both,
    two_qubit_site1,
)
from qsslab.structure import (
    StructureError,
    absorption_operator,
    algebra_basis,
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


def test_a_stacked_restriction_is_the_lone_one_bit_for_bit():
    # sweep solves its grid as one stack and analyze a stack of one: each
    # model's restriction, eigenpairs and clusters are the same bits either way,
    # with real and complex spectra in one stack, and in a rotated frame
    specs = [two_qubit_site1(w) for w in np.linspace(0.0, 1.0, 9)]
    specs += [rotated(two_qubit_site1(w), 5) for w in (0.3, 0.5, 0.7)]
    stacked = structure.restrict_stack(specs)
    assert {bool((r.eig[0].imag == 0).all()) for r in stacked} == {True, False}
    for spec, got in zip(specs, stacked):
        want = restrict(spec)
        for name in ("isometry", "gen", "g_hat"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for x, y in zip(got.eig, want.eig):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert all(np.array_equal(x, y) for x, y in zip(got.jumps_hat, want.jumps_hat))
        assert len(got.real_clusters) == len(want.real_clusters)
        for x, y in zip(got.real_clusters, want.real_clusters):
            assert np.array_equal(x.members, y.members) and x.mean == y.mean
            assert np.array_equal(x.coords, y.coords)


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
            evolved = apply_semigroup(op.Propagator(op.adjoint(restr.gen)), t, ident)
            diff = ident - evolved
            w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
            assert w[0] >= -1e-9


def test_absorption_both_sites_is_absorbing():
    report = absorption_operator(restrict(two_qubit_both(1.0)))
    assert report.is_absorbing
    assert np.linalg.norm(report.a_op - np.eye(4)) < 1e-6
    assert report.residual_harmonic < 1e-8
    restr = restrict(two_qubit_both(1.0))
    cut = structure.KERNEL_CUT * op.frob(restr.gen)
    assert report.kernel_margin == np.min(np.abs(restr.eig[0])) - cut  # every |w| is outside
    assert report.kernel_margin > 0.99


def test_kernel_margin_when_every_eigenvalue_is_in_the_kernel():
    # H = 0 and no jump: the restriction is 0, its kernel holds the whole
    # spectrum and the margin is the cut's distance to the largest |w|, 0
    spec = ModelSpec(dim=3, hamiltonian=np.zeros((3, 3)), jump_ops=(),
                     p0=np.diag([1.0, 0.0, 0.0]).astype(complex))
    report = absorption_operator(restrict(spec))
    assert report.kernel_margin == structure.KERNEL_CUT
    assert np.array_equal(report.a_op, spec.p0) and not report.is_absorbing
    # the dark state: kernel eigenvalue 0 (inside), the nearest outside is 1/2
    report = absorption_operator(restrict(two_qubit_site1(0.0)))
    scale = op.frob(restrict(two_qubit_site1(0.0)).gen)
    assert abs(report.kernel_margin - (0.5 - structure.KERNEL_CUT * scale)) <= 1e-12


def test_absorption_site1_coupled_is_absorbing():
    report = absorption_operator(restrict(two_qubit_site1(1.0)))
    assert report.is_absorbing


def test_absorption_site1_uncoupled_dark_state():
    # without exchange coupling the site-2 excitation never decays
    report = absorption_operator(restrict(two_qubit_site1(0.0)))
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
    heis = op.adjoint(full_generator(spec))
    limit = op.devectorize(sla.expm(400.0 * heis) @ op.vectorize(spec.p0))
    report = absorption_operator(restrict(spec))
    assert np.max(np.abs(report.a_op - limit)) <= 1e-9
    assert report.is_absorbing


def test_absorption_with_a_multidimensional_heisenberg_kernel():
    # H = 0, L = |0><2|, p0 = |0><0|: |1> is dark, |2> decays into range(p0)
    jump = np.zeros((3, 3), dtype=complex)
    jump[0, 2] = 1.0
    spec = ModelSpec(dim=3, hamiltonian=np.zeros((3, 3)), jump_ops=(jump,),
                     p0=np.diag([1.0, 0.0, 0.0]).astype(complex))
    heis = op.adjoint(full_generator(spec))
    w = np.linalg.eigvals(heis)
    assert np.sum(np.abs(w) <= 1e-9 * max(1.0, op.frob(heis))) >= 2
    report = absorption_operator(restrict(spec))
    assert np.max(np.abs(report.a_op - np.diag([1.0, 0.0, 1.0]))) <= 1e-9
    assert not report.is_absorbing


@pytest.mark.parametrize("omega", [5e-4, 1e-3, 1e-2])
def test_small_omega_absorption_is_exact(omega):
    # the slowest restricted rate is ~omega^2, far above the kernel cut, so
    # the restricted Heisenberg kernel is empty and A(p0) = 1 exactly
    report = absorption_operator(restrict(two_qubit_site1(omega)))
    assert np.max(np.abs(report.a_op - np.eye(4))) <= 1e-14
    assert report.is_absorbing


@pytest.mark.parametrize("spec", [two_qubit_site1(1.0), two_qubit_both(0.3)], ids=["site1", "both"])
def test_analysis_propagators_match_independent_generators(spec):
    # the restricted generators against compressions of the independently
    # built full-space ones, whose propagators eigendecompose them afresh
    restr = restrict(spec)
    v, one = restr.isometry, np.eye(restr.m)
    compress, embed = np.kron(v.T, v.conj().T), np.kron(v.conj(), v)
    full = full_generator(spec)
    for heisenberg in (True, False):
        ref = op.Propagator(compress @ (op.adjoint(full) if heisenberg else full) @ embed)
        prop = op.Propagator(op.adjoint(restr.gen)) if heisenberg else op.Propagator(restr.gen, restr.eig)
        assert np.array_equal(prop.mat, ref.mat)
        assert prop.spectral
        vec = op.vectorize(one if heisenberg else one / restr.m)
        for t in (0.1, 1.0, 10.0):
            want = ref.apply(t, np.eye(len(ref.mat))).T
            got = prop.apply(t, np.eye(len(prop.mat))).T
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            want_vec = want @ vec
            assert np.linalg.norm(prop.apply(t, vec) - want_vec) <= 1e-12 * np.linalg.norm(want_vec)


@pytest.mark.parametrize("omega", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("family", [two_qubit_site1, two_qubit_both])
def test_heisenberg_propagator_is_dual_to_the_restriction(family, omega):
    # Propagator(adjoint(S)) solves S^dag afresh; the restriction's pairs serve S.
    # tr(x^dag T_t(y)) = tr(T*_t(x)^dag y) with x = 1_m.  At the site-1 branch
    # collision both take the fallback.
    restr = restrict(family(omega))
    schr, heis = op.Propagator(restr.gen, restr.eig), op.Propagator(op.adjoint(restr.gen))
    assert schr.spectral == heis.spectral == (family(omega).label != two_qubit_site1(0.5).label)
    assert np.array_equal(schr.w, restr.eig[0])
    rng = np.random.default_rng(3)
    one, y = op.vectorize(np.eye(restr.m)), rng.standard_normal(restr.m**2)
    for t in (0.0, 0.1, 1.0, 10.0):
        lhs, rhs = np.vdot(one, schr.apply(t, y)), np.vdot(heis.apply(t, one), y)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(y)


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
        absorption_operator(restrict(two_qubit_site1(0.0)))
    report = absorption_operator(restrict(two_qubit_both(1.0)))
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


def _assert_invariant_witness(restr, witness):
    # m x k, orthonormal, proper and invariant under g_hat and every jump
    m, k = witness.shape
    assert m == restr.m and 0 < k < m
    assert np.linalg.norm(witness.conj().T @ witness - np.eye(k)) <= 1e-10
    for a in [restr.g_hat] + list(restr.jumps_hat):
        image = a @ witness
        assert np.linalg.norm(image - witness @ (witness.conj().T @ image)) <= 1e-10


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
def test_burnside_verdict_is_the_algebra_dimension_and_a_reducible_one_has_a_witness(spec):
    restr = restrict(spec)
    ops = [restr.g_hat] + list(restr.jumps_hat)
    dim = _naive_algebra_dimension(ops)
    assert algebra_basis(ops).shape[1] == dim
    report = check_irreducible(restr)
    assert report.verdict == (dim == restr.m**2)
    if report.verdict:
        assert report.note == f"irreducible (algebra dimension {dim} = m^2)"
    else:
        _assert_invariant_witness(restr, report.witness)
        assert report.note == f"invariant subspace of dimension {report.witness.shape[1]} found"


def spectator_model():
    # the connected chain of test_irreducibility_classical_connected_chain and an idle qubit
    rm = RateMatrix(
        n=3,
        q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]),
        absorbing_set=(2,),
    )
    return with_spectator(embed(rm))


def two_block_model():
    # H and L keep span(e1) and span(e2, e3) of range(p0_perp) apart: the algebra is
    # C + M_2, semisimple, and its commutant is spanned by the two block projections
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = 0.3
    h[2:, 2:] = [[0.7, 0.2 - 0.4j], [0.2 + 0.4j, -0.5]]
    l = np.zeros((4, 4), dtype=complex)
    l[2, 3] = 1.0
    return ModelSpec(dim=4, hamiltonian=h, jump_ops=(l,), p0=np.diag([1.0, 0, 0, 0]).astype(complex))


def test_idle_spectator_makes_an_irreducible_restriction_reducible():
    restr = restrict(spectator_model())
    assert restr.m == 4
    assert algebra_basis([restr.g_hat] + list(restr.jumps_hat)).shape[1] == 4  # M_2 (x) 1_2
    report = check_irreducible(restr)
    assert not report.verdict
    assert report.note == "invariant subspace of dimension 2 found"
    _assert_invariant_witness(restr, report.witness)


def test_reducible_restriction_without_a_closure_witness():
    # on range(p0_perp) = span(e1, e2): L1 = |u><u_perp|, L2 = |u><u| with
    # u = (e1 + e2)/sqrt(2), so span(u) is invariant (block upper triangular
    # in the basis u, u_perp) and g_hat = -1/2 is scalar.  The eigenvectors
    # of g_hat are e1, e2, whose invariant closures are everything, so no
    # search seeded by them finds span(u); the radical of the algebra, spanned
    # by |u><u_perp|, has range span(u)
    u = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    u_perp = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    spec = ModelSpec(dim=3, hamiltonian=np.zeros((3, 3)),
                     jump_ops=(np.outer(u, u_perp), np.outer(u, u)),
                     p0=np.diag([1.0, 0.0, 0.0]).astype(complex))
    restr = restrict(spec)
    assert np.allclose(restr.g_hat, -0.5 * np.eye(2))
    assert algebra_basis([restr.g_hat] + list(restr.jumps_hat)).shape[1] == 3
    report = check_irreducible(restr)
    assert not report.verdict
    assert report.note == "invariant subspace of dimension 1 found"
    _assert_invariant_witness(restr, report.witness)
    assert abs(np.vdot(report.witness[:, 0], restr.compress(np.outer(u, u)) @ report.witness[:, 0]) - 1) <= 1e-12


def test_a_witness_that_fails_the_invariance_check_is_not_reported(monkeypatch):
    restr = restrict(two_qubit_both(1.0))
    monkeypatch.setattr(structure, "_invariant_subspace", lambda ops, basis: np.eye(restr.m)[:, :1])
    report = check_irreducible(restr)
    assert not report.verdict
    assert report.witness is None
    assert report.note == "reducible (algebra dimension 5 < m^2; no witness found)"


def test_a_commutant_lost_to_rounding_gives_no_witness(monkeypatch):
    # an algebra basis that rounding has cut down to the identity: no radical, so
    # the commutant branch runs, and the operators of an irreducible chain commute
    # only with the scalars: no witness, and no error
    rm = RateMatrix(
        n=3,
        q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]),
        absorbing_set=(2,),
    )
    restr = restrict(embed(rm))
    m = restr.m
    identity = np.eye(m, dtype=complex).reshape(m * m, 1) / np.sqrt(m)
    ops = np.array([restr.g_hat, *restr.jumps_hat])
    assert structure._invariant_subspace(ops, identity).shape == (m, 0)
    monkeypatch.setattr(structure, "algebra_basis", lambda ops: identity)
    report = check_irreducible(restr)
    assert not report.verdict
    assert report.witness is None
    assert report.note == "reducible (algebra dimension 1 < m^2; no witness found)"


@pytest.mark.parametrize("spec", [two_qubit_site1(1.0), two_qubit_both(0.0), spectator_model(), two_block_model()],
                         ids=["site1-omega1", "both-omega0", "spectator", "two-blocks"])
def test_the_witness_dimension_does_not_depend_on_the_frame(spec):
    # the radical's range, or the smallest eigenspace of a commutant element:
    # the two-block model's eigenspaces have dimensions 1 and 2
    dims = set()
    for seed in range(5):
        restr = restrict(rotated(spec, seed))
        report = check_irreducible(restr)
        _assert_invariant_witness(restr, report.witness)
        dims.add(report.witness.shape[1])
    assert len(dims) == 1


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_sizes(monkeypatch, owner, name, sizes):
    # one count per call, by the shape solved: (n, n) alone or (k, n, n) as a stack
    original = getattr(owner, name)

    def counting(a, *args, **kwargs):
        sizes[np.shape(a)] += 1
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_analyze_decomposes_each_generator_once(models_dir, monkeypatch, tmp_path):
    # one m^2 x m^2 solve serves the restriction and its kernel, the witness
    # of the reducible restriction is read off its algebra without an
    # eigensolve of g_hat, and no d^2 x d^2 matrix is built (only simulate's kernel builds one), let alone
    # eigendecomposed
    sizes, superops = Counter(), Counter()  # superops: gkls_superop calls by the shape of their drift
    _count_sizes(monkeypatch, np.linalg, "eig", sizes)
    _count_sizes(monkeypatch, sla, "eig", sizes)
    for owner in (structure, trajectory):
        _count_sizes(monkeypatch, owner, "gkls_superop", superops)
    subharmonic = _count_calls(monkeypatch, structure, "check_subharmonic")
    eig_general = _count_calls(monkeypatch, op, "eig_general")
    cells = _count_calls(monkeypatch, op, "_CellTable")
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    d, m = 4, 3
    assert sizes == {(1, m * m, m * m): 1}
    assert len(subharmonic) == 1
    assert len(eig_general) == 1
    # analyze evolves nothing, so it forms no exp(tL)
    assert cells == []
    assert superops == {(1, m, m): 1}
    # simulate restricts again, and only its records build the no-jump generator in full
    argv = ["simulate", path, "--samples", "20", "--records", str(tmp_path / "r.jsonl")]
    assert cli.main(argv + ["--out", str(tmp_path / "s.json")]) == 0
    assert superops == {(1, m, m): 2, (d, d): 1}


def test_each_model_checks_the_subharmonic_criterion_once(models_dir, monkeypatch, tmp_path):
    # restrict takes each model's verdict once and the restriction keeps it: one
    # residual per analyze and per simulate, and one per point of a sweep
    residual = _count_calls(monkeypatch, structure, "check_subharmonic")
    path = os.path.join(models_dir, "two_qubit_site1.json")
    for argv, calls in (
        (["analyze", path], 1),
        (["analyze", os.path.join(models_dir, "two_qubit_both.json")], 1),
        (["simulate", path, "--samples", "20"], 1),
        (["sweep", path, "--range", "0:1:41"], 41),
    ):
        residual.clear()
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert len(residual) == calls, argv[0]


def test_analyze_and_sweep_evolve_nothing(models_dir, monkeypatch, tmp_path):
    # analyze: subharmonicity is algebraic, absorption reads the restriction's
    # kernel and verification one residual, also at the defective omega = 1/2;
    # sweep reads only the decay rates; every evolution goes through Propagator.apply
    apply = _count_calls(monkeypatch, op.Propagator, "apply")
    cells = _count_calls(monkeypatch, op, "_CellTable")
    half = tmp_path / "site1_half.json"
    half.write_text(json.dumps(model_to_doc(two_qubit_site1(0.5))))
    path = os.path.join(models_dir, "two_qubit_site1.json")
    for argv, code in (([path], 0), ([os.path.join(models_dir, "two_qubit_both.json")], 0), ([str(half)], 0)):
        assert cli.main(["analyze", *argv, "--out", str(tmp_path / "report.json")]) == code
    assert apply == cells == []
    assert cli.main(["sweep", path, "--range", "0:1:41", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(apply) == 0


def test_only_analyze_certifies_and_only_what_it_reports(models_dir, monkeypatch, tmp_path):
    # certificate residuals are computed on first read: sweep reads only the
    # decay rates and simulate only the Perron anchor's nu
    calls = [
        _count_calls(monkeypatch, qss, "_residual"),
        _count_calls(monkeypatch, qss, "verify_qss"),
    ]
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["sweep", path, "--range", "0:1:41", "--out", str(tmp_path / "s.csv")]) == 0
    assert cli.main(["simulate", path, "--samples", "20", "--out", str(tmp_path / "s.json")]) == 0
    assert calls == [[], []]
    # analyze computes the residual of its one family's anchor once, not of the
    # segment ends: its eigen residual and its one verify_qss share it
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [["_residual"], ["verify_qss"]]


def test_sweep_decides_its_slices_in_stacked_solves(models_dir, monkeypatch, tmp_path):
    # sweep prints only the rates, so it builds no slice geometry: no face walk,
    # no segment orientation, no embedded basis and no certificate.  Deciding the
    # slices of a chunk takes a fixed number of numpy.linalg calls: a 401-point
    # chunk makes no more than a 41-point one.  The points share their p0, which
    # is validated once
    geometry = [_count_calls(monkeypatch, qss, name) for name in ("_walk_to_extreme", "_leads_negative", "_certificate")]
    geometry.append(_count_calls(monkeypatch, structure.RestrictedGenerator, "embed"))
    p0_checks = _count_calls(monkeypatch, op, "projection_rank")
    linalg, inside = Counter(), []
    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "cholesky", "solve", "inv", "cond", "norm", "qr"):
        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            linalg[_name] += bool(inside)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rates = qss.rates_stack

    def extracting(restrs):
        inside.append(True)
        try:
            return rates(restrs)
        finally:
            inside.pop()

    monkeypatch.setattr(qss, "rates_stack", extracting)
    # one eigvalsh tests every 1-D eigenspace; the 2-D intervals take one svd, eigh,
    # cholesky, solve, eigvals and eigvalsh; each >= 3-D eigenspace at omega = 0 one
    # svd for its directions and one eigvalsh for its anchor
    pinned = {
        "two_qubit_site1": {"eigvalsh": 3, "svd": 2, "eigh": 1, "cholesky": 1, "solve": 1, "eigvals": 1},
        "two_qubit_both": {"eigvalsh": 3, "svd": 2, "eigh": 1, "cholesky": 1, "solve": 1, "eigvals": 1},
    }
    for family, want in pinned.items():
        path = os.path.join(models_dir, f"{family}.json")
        for grid in ("0:1:41", "0:1:401"):
            linalg.clear()
            p0_checks.clear()
            model._projection_rank.cache_clear()
            assert cli.main(["sweep", path, "--range", grid, "--out", str(tmp_path / "s.csv")]) == 0
            assert +linalg == want, (family, grid)
            assert len(p0_checks) == 1  # the family's p0 is validated once per sweep
    assert geometry == [[], [], [], []]


def test_sweep_solves_one_restriction_per_point(models_dir, monkeypatch, tmp_path):
    sizes = Counter()
    _count_sizes(monkeypatch, np.linalg, "eig", sizes)
    _count_sizes(monkeypatch, sla, "eig", sizes)
    path = os.path.join(models_dir, "two_qubit_site1.json")
    assert cli.main(["sweep", path, "--range", "0.1:1.0:4", "--out", str(tmp_path / "s.csv")]) == 0
    # the four points' 9 x 9 restrictions as one stack, and no other eigensolve
    assert sizes == {(4, 3 * 3, 3 * 3): 1}


def test_each_command_builds_only_the_propagators_it_evolves_with(models_dir, monkeypatch, tmp_path):
    # analyze evolves nothing and builds none; simulate builds its loop
    # propagator (m^2 + 1) and, for the final states of --records only, the
    # no-jump one (d^2); sweep (through the defective omega = 1/2, where a
    # propagator would take the cell-table fallback) and classical build none
    sizes = Counter()
    init = op.Propagator.__init__

    def counting(self, a, *args, **kwargs):
        sizes[np.shape(a)[0]] += 1
        init(self, a, *args, **kwargs)

    monkeypatch.setattr(op.Propagator, "__init__", counting)
    site1 = os.path.join(models_dir, "two_qubit_site1.json")
    d, m = 4, 3
    for argv, want in (
        (["analyze", site1], {}),
        (["simulate", site1, "--samples", "20"], {m * m + 1: 1}),
        (["simulate", site1, "--samples", "20", "--records", str(tmp_path / "r.jsonl")],
         {m * m + 1: 1, d * d: 1}),
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
    argv = ["simulate", path, "--samples", "20", "--out", str(tmp_path / "s.json")]
    d, m = 4, 3
    assert cli.main(argv) == 0
    assert sizes == {(1, m * m, m * m): 1}
    sizes.clear()
    assert cli.main(argv + ["--records", str(tmp_path / "r.jsonl")]) == 0
    assert sizes == {(d * d, d * d): 1, (1, m * m, m * m): 1}  # the final states of the records


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
