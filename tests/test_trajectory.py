import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import propcheck
from helpers import assert_same_lines
from oracles import (
    gen_tilde,
    interjump_gaps,
    jump_map,
    measure_weight,
    nojump_generator,
    nojump_survival,
    records,
    sample_trajectory,
    sector_sum,
    truncated_exp_mean,
)
from qsslab import modelio, operators, trajectory
from qsslab.model import two_qubit_both, two_qubit_site1
from qsslab.operators import frob, vectorize
from qsslab.structure import StructureError, restrict
from qsslab.qss import extract_qss, perron_structure
from qsslab.trajectory import (
    TrajectoryError,
    STEP,
    TIME_TOL,
    _bracket,
    build_kernel,
    jump_statistics,
    sample_trajectories,
    stream_uniforms,
)
from test_structure import raising_model


def both_sites_qss():
    restr = restrict(two_qubit_both(1.0))
    return extract_qss(restr).families[0].anchor.nu


def perron_qss(spec):
    restr = restrict(spec)
    result = perron_structure(restr, extract_qss(restr))
    return next(f.anchor.nu for f in result.families if f.is_perron)


SAMPLER_MODELS = (two_qubit_both(1.0), two_qubit_site1(1.0), two_qubit_site1(0.3))


def test_no_kernel_without_a_subharmonic_p0():
    # build_kernel takes a restriction, and restrict refuses such a model
    with pytest.raises(StructureError, match="subharmonic"):
        restrict(raising_model())


def test_tilde_generator_preserves_trace():
    spec = two_qubit_both(1.0)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    for t in (0.3, 1.0, 4.0):
        from oracles import apply_semigroup

        evolved = apply_semigroup(operators.Propagator(gen_tilde(spec)), t, rho)
        assert abs(np.trace(evolved).real - 1.0) < 1e-10


def test_nojump_survival_exponential_identity():
    # from the QSS, the detector-weighted survival is exactly exp(-(1+alpha) t)
    spec = two_qubit_both(1.0)
    nu = both_sites_qss()
    for t in np.linspace(0.0, 6.0, 61):
        _, perp = nojump_survival(spec, nu, t)
        assert abs(perp - np.exp(-2.0 * t)) < 1e-8
    with pytest.raises(ValueError):
        nojump_survival(spec, nu, -1.0)


def test_sampling_determinism_and_stream_split():
    # at seed 42 streams 3 and 4 may both end without a jump (on this model the
    # trace plateaus at 1/2) and so give equal records: the split is a property
    # of the draws
    kernel = build_kernel(restrict(two_qubit_both(1.0)))
    nu = both_sites_qss()
    rec_a = sample_trajectory(kernel, nu, 6.0, seed=42, stream=3)
    rec_b = sample_trajectory(kernel, nu, 6.0, seed=42, stream=3)
    assert rec_a.jump_times == rec_b.jump_times
    assert rec_a.final_weight == rec_b.final_weight
    assert np.array_equal(rec_a.final_state, rec_b.final_state)
    assert all(np.array_equal(a, b) for a, b in zip(rec_a.post_jump_states, rec_b.post_jump_states))
    for r in range(12):
        u3, u4 = stream_uniforms(42, 3, 2, r)
        assert u3 != u4


def numpy_uniform(seed, stream, r):
    """Uniform r of a sampler stream from numpy by a second path: ``Philox(key=K)``
    advanced to the counter before block (stream, r // 4 + 1, 0, 0), read by a
    ``Generator``."""
    bits = np.random.Philox(key=np.random.SeedSequence(seed).generate_state(2, np.uint64))
    bits.advance(stream - 1 + ((r // 4 + 1) << 64))
    return np.random.Generator(bits).random(4)[r % 4]


@pytest.mark.parametrize(
    "seed",
    [0, 5, 1234, 2**31 - 1, 2**32 - 1, 2**32 + 7, 2**64 - 1, 2**70 + 3, 2**128, 2**130 + 5,
     2**200 + 12345],
)
def test_stream_uniforms_match_numpy_philox(seed):
    # oracle: numpy's own SeedSequence, Philox (advanced, not given a counter)
    # and Generator, built here only; rounds 0 .. 11 span three blocks
    for first_stream, n in ((0, 300), (17, 5), (2**31, 2), (2**32 - 3, 3)):
        for r in range(12):
            got = stream_uniforms(seed, first_stream, n, r)
            assert got.shape == (n,)
            for i in range(n):
                assert got[i] == numpy_uniform(seed, first_stream + i, r)


def test_stream_domain():
    # SeedSequence takes no negative entropy; streams are the documented
    # [0, 2**32)
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=-1)
    with pytest.raises(ValueError, match="seed"):
        stream_uniforms(-1, 0, 1, 0)
    for first_stream, n in ((2**32, 1), (2**32 - 1, 2), (-1, 1)):
        with pytest.raises(ValueError, match="streams"):
            stream_uniforms(5, first_stream, n, 0)
    assert stream_uniforms(5, 2**32 - 1, 1, 0).shape == (1,)
    kernel = build_kernel(restrict(two_qubit_both(1.0)))
    nu = both_sites_qss()
    with pytest.raises(ValueError, match="seed"):
        sample_trajectories(kernel, nu, 6.0, seed=-1, n=2)
    with pytest.raises(ValueError, match="seed"):
        sample_trajectories(kernel, nu, 6.0, seed=-1, n=0)
    with pytest.raises(ValueError, match="streams"):
        sample_trajectory(kernel, nu, 6.0, seed=1, stream=2**32)


def test_record_invariants():
    for spec in SAMPLER_MODELS[:2]:
        kernel = build_kernel(restrict(spec))
        batch = sample_trajectories(kernel, perron_qss(spec), 6.0, seed=1, n=300)
        for rec in records(batch):
            times = list(rec.jump_times)
            assert times == sorted(times)
            assert all(0 <= t <= rec.horizon for t in times)
            assert rec.n_jumps == len(rec.post_jump_states)
            # every trajectory ends censored: at the horizon or in the absorbed branch
            assert rec.censored is True
            for state in rec.post_jump_states:
                assert abs(np.trace(state).real - 1.0) < 1e-10
        stats = jump_statistics(batch, alpha=1.0)
        assert stats.censoring_fraction == sum(r.n_jumps == 0 for r in records(batch)) / len(batch)


def test_records_independent_of_batch_size():
    # every record of a batch is bit-identical to the same stream sampled in
    # any other batch size, across chunk boundaries
    for spec in SAMPLER_MODELS:
        kernel = build_kernel(restrict(spec))
        nu = perron_qss(spec)
        ref = records(sample_trajectories(kernel, nu, 6.0, seed=11, n=400))
        for n in (1, 3, 17, 64):
            for rec, other in zip(records(sample_trajectories(kernel, nu, 6.0, seed=11, n=n)), ref):
                assert rec.stream == other.stream
                assert rec.jump_times == other.jump_times
                assert rec.final_weight == other.final_weight
                assert np.array_equal(rec.final_state, other.final_state)
                assert len(rec.post_jump_states) == len(other.post_jump_states)
                for a, b in zip(rec.post_jump_states, other.post_jump_states):
                    assert np.array_equal(a, b)
        single = sample_trajectory(kernel, nu, 6.0, seed=11, stream=250)
        assert single.jump_times == ref[250].jump_times
        assert single.final_weight == ref[250].final_weight


def test_records_independent_of_batch_size_on_random_models():
    # the fixtures' jump corners hold zeros, which hide the summation order of a
    # trace; on random models a one-row chunk must still sum like a full one
    rng = np.random.default_rng(2024)
    for seed in range(12):
        spec = propcheck.random_subharmonic_model(rng)
        rho0 = propcheck.random_density(rng, spec.dim)
        kernel = build_kernel(restrict(spec))
        lines = "".join(modelio.record_lines(sample_trajectories(kernel, rho0, 3.0, seed, 40)))
        lines = lines.splitlines(keepends=True)
        for stream in range(0, 40, 4):
            single = sample_trajectories(kernel, rho0, 3.0, seed, 1, first_stream=stream)
            assert_same_lines("".join(modelio.record_lines(single)), lines[stream])


def test_nojump_generator_matches_the_textbook_form():
    # the kernel builds L - 1/2 {p0_perp, .} as the GKLS form of (G - 1/2 p0_perp, L):
    # bit for bit the oracle's on the fixtures, to rounding on random models
    specs = [f(omega) for f in (two_qubit_site1, two_qubit_both) for omega in (0.3, 0.475, 1.0)]
    for spec in specs:
        assert np.array_equal(build_kernel(restrict(spec)).nojump.mat, nojump_generator(spec))
    rng = np.random.default_rng(29)
    for d in (4, 6, 8):
        spec = propcheck.random_subharmonic_model(rng, d=d)
        ref = nojump_generator(spec)
        assert frob(build_kernel(restrict(spec)).nojump.mat - ref) <= 1e-14 * frob(ref)


def test_fallback_records_independent_of_batch_size():
    # at the branch collision both propagators take the expm fallback: each
    # row's exponential is its own matrix of one stacked call, so a record
    # does not depend on the batch it was sampled in
    kernel = build_kernel(restrict(two_qubit_site1(0.5)))
    assert not kernel.loop.spectral and not kernel.nojump.spectral
    rho0 = np.diag([0.0, 0.5, 0.5, 0.0])
    few = sample_trajectories(kernel, rho0, 6.0, 3, 40)
    many = sample_trajectories(kernel, rho0, 6.0, 3, 300)
    lines = "".join(modelio.record_lines(many)).splitlines(keepends=True)
    assert_same_lines("".join(modelio.record_lines(few)), "".join(lines[:40]))
    assert few.counts.sum() > 40


def test_records_independent_of_the_chunk_size(monkeypatch):
    # a chunk holds at most CHUNK_ENTRIES = rows x (m^2 + 1) entries; cut down to
    # 7 rows, a round of 60 live trajectories takes 9 chunks, the last of 4 rows
    rng = np.random.default_rng(515)
    for _ in range(3):
        spec = propcheck.random_subharmonic_model(rng, d=3)
        rho0 = propcheck.random_density(rng, spec.dim)
        kernel = build_kernel(restrict(spec))
        whole = list(modelio.record_lines(sample_trajectories(kernel, rho0, 3.0, 9, 60)))
        with monkeypatch.context() as m:
            m.setattr(trajectory, "CHUNK_ENTRIES", 7 * (kernel.isometry.shape[1]**2 + 1))
            chunked = list(modelio.record_lines(sample_trajectories(kernel, rho0, 3.0, 9, 60)))
        assert_same_lines("".join(chunked), "".join(whole))
        assert "".join(whole).count("\n") == 60


def test_jump_times_invert_the_survival_curve():
    # oracle independent of the scan and bisection: redraw uniform r of each
    # stream from numpy for its r-th jump; the no-jump survival over each gap equals its draw,
    # and the survival up to the horizon stays at or above the last draw.  The
    # mixed starts of random models carry trace outside the corner, which a
    # jump must clear
    longest = 0
    cases = [(spec, perron_qss(spec), 150) for spec in SAMPLER_MODELS[:2]]
    rng = np.random.default_rng(206)
    for _ in range(3):
        spec = propcheck.random_subharmonic_model(rng, d=4)
        cases.append((spec, propcheck.random_density(rng, spec.dim), 400))
    for spec, nu, n in cases:
        kernel = build_kernel(restrict(spec))
        n_jumps = 0
        for rec in records(sample_trajectories(kernel, nu, 6.0, seed=23, n=n)):
            longest = max(longest, rec.n_jumps)
            rho, prev = nu, 0.0
            for r, (t, state) in enumerate(zip(rec.jump_times, rec.post_jump_states)):
                total, _ = nojump_survival(spec, rho, t - prev)
                assert abs(total - numpy_uniform(23, rec.stream, r)) < 1e-8
                rho, prev = state, t
                n_jumps += 1
            total, _ = nojump_survival(spec, rho, rec.horizon - prev)
            assert total >= numpy_uniform(23, rec.stream, rec.n_jumps)
        assert n_jumps > 100
    assert longest >= 8  # some stream draws from a third block of four


def test_kernel_eigenpairs_come_from_the_restriction(monkeypatch):
    # A = [[S^ - 1, 0], [-vec(1)^T S^, 0]] has the pairs (w - 1, (v, -w tr v / (w - 1)))
    # of S^ and (0, e_last); only the d^2 x d^2 final-state propagator solves,
    # when it is first read
    rng = np.random.default_rng(303)
    specs = [*SAMPLER_MODELS, *(propcheck.random_subharmonic_model(rng, d=d) for d in (3, 4, 6, 8))]
    for spec in specs:
        restr = restrict(spec)
        sizes = []
        eig = np.linalg.eig

        def counting_eig(a):
            sizes.append(len(a))
            return eig(a)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eig", counting_eig)
            kernel = build_kernel(restr)
            assert sizes == []
            kernel.nojump
        assert sizes == [spec.dim**2]
        loop = kernel.loop
        assert loop.spectral and loop.mat.shape == (restr.m**2 + 1,) * 2
        assert frob(loop.mat @ loop.v - loop.v * loop.w) <= 1e-12 * max(1.0, frob(loop.mat))


def test_sampling_loop_runs_on_the_restriction(monkeypatch):
    # every matrix the loop hands to rowdot is (m^2 + 1)-sized; after the last
    # segment, reading the final states makes one d^2-sized apply
    rng = np.random.default_rng(304)
    cases = [(spec, perron_qss(spec)) for spec in SAMPLER_MODELS[:2]]
    for d in (3, 5, 7):
        spec = propcheck.random_subharmonic_model(rng, d=d)
        cases.append((spec, propcheck.random_density(rng, d)))
    rowdot, apply, segment = operators.rowdot, operators.Propagator.apply, trajectory._segment
    for spec, rho0 in cases:
        kernel = build_kernel(restrict(spec))
        n = kernel.isometry.shape[1]**2 + 1
        events = []

        def logging_rowdot(a, x):
            events.append(("rowdot", a.shape))
            return rowdot(a, x)

        def logging_apply(prop, *args, **kwargs):
            events.append(("apply", len(prop.mat)))
            return apply(prop, *args, **kwargs)

        def logging_segment(*args):
            events.append(("segment", None))
            return segment(*args)

        with monkeypatch.context() as m:
            m.setattr(operators, "rowdot", logging_rowdot)
            m.setattr(operators.Propagator, "apply", logging_apply)
            m.setattr(trajectory, "_segment", logging_segment)
            sample_trajectories(kernel, rho0, 3.0, 5, 200).final_states
        last = max(i for i, (kind, _) in enumerate(events) if kind == "segment")
        assert all(size == (n, n) for kind, size in events[:last] if kind == "rowdot")
        assert all(size == n for kind, size in events[:last] if kind == "apply")
        assert [size for kind, size in events[last:] if kind == "apply"] == [n, spec.dim**2]


def test_zero_jump_final_states_match_the_spec_built_oracle():
    # a trajectory without a jump ends in S_h(rho0) / tr, with weight tr S_h(rho0),
    # which the loop's survival trace gives too: the no-jump generator built from
    # the model, exponentiated by scipy
    rng = np.random.default_rng(305)
    for _ in range(8):
        spec = propcheck.random_subharmonic_model(rng, d=int(rng.integers(3, 7)))
        rho0 = propcheck.random_density(rng, spec.dim)  # p0 mass and p0/p0_perp coherences
        kernel = build_kernel(restrict(spec))
        batch = sample_trajectories(kernel, rho0, 1.0, 7, 200)
        evolved = scipy.linalg.expm(nojump_generator(spec)) @ vectorize(rho0)
        weight = np.trace(evolved.reshape(spec.dim, spec.dim)).real
        state = evolved.reshape(spec.dim, spec.dim).T / weight
        # the loop's survival trace of the start row, (vec 1_m, 1) after exp(A)
        x = kernel.loop.coords(kernel.row(rho0))[1]
        assert abs((x * kernel.loop.trace_rows(1.0)).sum().real - weight) <= 1e-12
        none = batch.counts == 0
        assert none.sum() >= 10
        assert np.abs(batch.final_weights[none] - weight).max() <= 1e-12
        assert np.abs(batch.final_states[none] - state).max() <= 1e-12


def test_fallback_propagator_samples_like_the_spectral_one(monkeypatch):
    spec = two_qubit_both(1.0)
    nu = perron_qss(spec)
    spectral = records(sample_trajectories(build_kernel(restrict(spec)), nu, 6.0, seed=5, n=30))
    monkeypatch.setattr(operators, "EXPM_COND_LIMIT", 0.0)
    kernel = build_kernel(restrict(spec))
    assert not kernel.loop.spectral
    fallback = records(sample_trajectories(kernel, nu, 6.0, seed=5, n=30))
    assert sum(r.n_jumps for r in spectral) > 10
    for a, b in zip(spectral, fallback):
        assert a.n_jumps == b.n_jumps
        assert np.allclose(a.jump_times, b.jump_times, rtol=0.0, atol=1e-9)


class _LoopPropagator:
    """The sampler's view of its propagator: ``coords``, ``trace_rows`` and ``apply``, nothing else."""

    __slots__ = ("_prop",)

    def __init__(self, prop):
        self._prop = prop

    def coords(self, vecs):
        return self._prop.coords(vecs)

    def trace_rows(self, times):
        return self._prop.trace_rows(times)

    def apply(self, t, vec, coef=None):
        return self._prop.apply(t, vec, coef)


@pytest.mark.parametrize("cond_limit", [operators.EXPM_COND_LIMIT, 0.0], ids=["spectral", "fallback"])
def test_the_sampler_leaves_the_exponential_path_to_the_propagator(monkeypatch, cond_limit):
    # which path a propagator takes is its own business: a stand-in with only
    # the three methods gives every batch of the real propagator bit for bit
    monkeypatch.setattr(operators, "EXPM_COND_LIMIT", cond_limit)
    spec = two_qubit_both(1.0)
    kernel = build_kernel(restrict(spec))
    assert kernel.loop.spectral == (cond_limit > 0)
    stand_in = dataclasses.replace(kernel, loop=_LoopPropagator(kernel.loop))
    nu = perron_qss(spec)
    for seed, n in ((5, 40), (8, 3)):
        want = sample_trajectories(kernel, nu, 6.0, seed, n)
        got = sample_trajectories(stand_in, nu, 6.0, seed, n)
        for name in ("counts", "jump_times", "post_jump_states", "last", "final_states", "final_weights"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert want.counts.sum() > 0


def _scan_bracket(x, at_end, table, grid, u, remaining):
    """Linear-scan reference for ``_bracket``: the grid in order, 32 points at a time.

    Assumes nothing of the curve's shape: a row fires at its first grid point
    ``k <= ceil(remaining / STEP)`` below ``u``, where points past
    ``remaining`` take ``at_end``.
    """
    n_steps = np.ceil(remaining / STEP).astype(int)
    k_hit = np.full(len(u), -1)
    todo = np.arange(len(u))
    for k0 in range(0, len(grid), 32):
        todo = todo[n_steps[todo] >= k0]
        if not todo.size:
            break
        ks = np.arange(k0, min(k0 + 32, len(grid)))
        curve = (x[todo, None, :] * table[ks]).sum(-1).real
        curve = np.where(grid[ks] > remaining[todo, None], at_end[todo, None], curve)
        below = (curve < u[todo, None]) & (ks <= n_steps[todo, None])
        hit = below.any(1)
        k_hit[todo[hit]] = ks[below[hit].argmax(1)]
        todo = todo[~hit]
    return k_hit >= 0, k_hit


def test_bracket_matches_the_linear_scan(monkeypatch):
    # every segment of 10^4 streams per fixture, bracketed by binary search
    # and by the linear scan, on the spectral and on the fallback propagator
    segment = trajectory._segment
    for spec in SAMPLER_MODELS[:2]:
        segments = []

        def capture(prop, table, grid, vecs, u, remaining):
            segments.append((grid, vecs, u, remaining))
            return segment(prop, table, grid, vecs, u, remaining)

        kernel = build_kernel(restrict(spec))
        with monkeypatch.context() as m:
            m.setattr(trajectory, "_segment", capture)
            sample_trajectories(kernel, perron_qss(spec), 6.0, seed=42, n=10_000)
            m.setattr(operators, "EXPM_COND_LIMIT", 0.0)
            fallback = build_kernel(restrict(spec)).loop
        assert not fallback.spectral
        grid = segments[0][0]
        vecs, u, remaining = (np.concatenate(parts) for parts in list(zip(*segments))[1:])
        for prop in (kernel.loop, fallback):
            x = prop.coords(vecs)[1]
            times, at = np.unique(remaining, return_inverse=True)
            at_end = (x * prop.trace_rows(times)[at]).sum(-1).real
            table = prop.trace_rows(grid)
            fired, k_hit = _bracket(x, at_end, table, grid, u, remaining)
            for c in range(0, len(u), 1024):
                rows = slice(c, c + 1024)
                ref_fired, ref_k = _scan_bracket(x[rows], at_end[rows], table, grid, u[rows],
                                                 remaining[rows])
                assert np.array_equal(fired[rows], ref_fired)
                assert np.array_equal(k_hit[rows], ref_k)
            assert 0 < fired.sum() < len(u) and (k_hit > 0).any()


@pytest.mark.parametrize("seed", range(4))
def test_bracket_is_the_first_grid_point_below_the_draw(seed):
    # random decreasing curves sum_j x_j exp(w_j t), with remaining times that
    # span the grid, fall within one step of 0 or end on a grid point, and draws
    # that fire at index 1 or at 0 because the curve at t = 0 rounds below u
    rng = np.random.default_rng(seed)
    n, k = 3000, 5
    grid = STEP * np.arange(601)
    w = -rng.uniform(0.1, 3.0, k) + 0j
    table = np.exp(grid[:, None] * w)
    x = rng.uniform(0.0, 1.0, (n, k)) / k + 0j
    remaining = rng.uniform(0.0, grid[-1], n)
    remaining[:300] = rng.uniform(0.0, STEP, 300)
    remaining[300:400] = grid[rng.integers(1, len(grid), 100)]
    start, one = x.sum(-1).real, (x * table[1]).sum(-1).real
    u = rng.uniform(0.0, 1.0, n) * start
    u[400:600] = 0.5 * (start + one)[400:600]  # between the values at 0 and at one step
    u[600:800] = np.nextafter(start, np.inf)[600:800]  # just above the value at 0
    at_end = (x * np.exp(remaining[:, None] * w)).sum(-1).real
    u[:150] = (at_end + rng.uniform(0.0, 1.0, n) * (start - at_end))[:150]  # fire within a short remaining
    fired, k_hit = _bracket(x, at_end, table, grid, u, remaining)
    want_fired, want_k = _scan_bracket(x, at_end, table, grid, u, remaining)
    assert np.array_equal(fired, want_fired) and np.array_equal(k_hit, want_k)
    assert (k_hit[600:800] == 0).all() and (k_hit[400:600] <= 1).all() and (k_hit[400:600] == 1).any()
    assert (k_hit[:150] == 1).sum() > 100 and (~fired).any() and (k_hit > 100).any()


def test_each_batch_derives_its_philox_key_once(monkeypatch):
    # one SeedSequence per sample_trajectories call, however many rounds it runs,
    # and one Philox draw per four rounds
    seed_sequences, rounds = [], []
    seed_sequence, philox = np.random.SeedSequence, np.random.Philox
    monkeypatch.setattr(np.random, "SeedSequence", lambda *a, **k: seed_sequences.append(a) or seed_sequence(*a, **k))
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: rounds.append(k) or philox(*a, **k))
    spec = two_qubit_site1(1.0)
    batch = sample_trajectories(build_kernel(restrict(spec)), perron_qss(spec), 6.0, seed=7, n=500)
    n_rounds = batch.counts.max() + 1
    assert len(seed_sequences) == 1 and n_rounds > 5
    assert len(rounds) == -(-n_rounds // 4)


def _segment_calls(monkeypatch, kernel, rho0, n):
    """Every ``_segment`` call of ``n`` streams (horizon 6, seed 42), pooled:
    ``(vecs, u, remaining, fired, t)`` and the number of times its Newton
    rounds evaluated, i.e. every ``trace_rows`` time after the first call."""
    prop = kernel.loop
    segment, trace_rows = trajectory._segment, prop.trace_rows
    calls, evaluations = [], []

    def capture(prop, table, grid, vecs, u, remaining):
        sizes = []

        def counting(times):
            sizes.append(np.size(times))
            return trace_rows(times)

        with monkeypatch.context() as m:
            m.setattr(prop, "trace_rows", counting)
            fired, t, sig = segment(prop, table, grid, vecs, u, remaining)
        calls.append((vecs, u, remaining, fired, t))
        evaluations.append(sum(sizes[1:]))
        return fired, t, sig

    with monkeypatch.context() as m:
        m.setattr(trajectory, "_segment", capture)
        sample_trajectories(kernel, rho0, 6.0, seed=42, n=n)
    return [np.concatenate(parts) for parts in zip(*calls)], sum(evaluations)


def test_jump_times_lie_within_time_tol_of_the_crossing(monkeypatch):
    # the contract of the Newton refinement: f(t - TIME_TOL) >= u >= f(t + TIME_TOL),
    # clamped to [0, remaining], with f the survival curve by the sampler's row formula
    rng = np.random.default_rng(77)
    cases = [(spec, perron_qss(spec), 10_000, False) for spec in SAMPLER_MODELS[:2]]
    cases += [(spec, perron_qss(spec), 2000, True) for spec in SAMPLER_MODELS[:2]]
    for _ in range(5):
        spec = propcheck.random_subharmonic_model(rng)
        cases.append((spec, propcheck.random_density(rng, spec.dim), 1000, False))
    n_fired = 0
    for spec, rho0, n, fallback in cases:
        with monkeypatch.context() as m:
            if fallback:
                m.setattr(operators, "EXPM_COND_LIMIT", 0.0)
            kernel = build_kernel(restrict(spec))
            prop = kernel.loop
            assert prop.spectral is not fallback
            (vecs, u, remaining, fired, t), _ = _segment_calls(m, kernel, rho0, n)
        x = prop.coords(vecs[fired])[1]
        before = (x * prop.trace_rows(np.maximum(t[fired] - TIME_TOL, 0.0))).sum(-1).real
        after = (x * prop.trace_rows(np.minimum(t[fired] + TIME_TOL, remaining[fired]))).sum(-1).real
        assert (before >= u[fired]).all() and (u[fired] >= after).all()
        n_fired += fired.sum()
    assert n_fired >= 1000


def test_newton_refines_in_a_few_rounds(monkeypatch):
    # bisection from the 0.01 bracket to TIME_TOL takes 27 rounds; Newton about 4
    for spec in SAMPLER_MODELS[:2]:
        (*_, fired, _), evaluations = _segment_calls(monkeypatch, build_kernel(restrict(spec)), perron_qss(spec),
                                                     10_000)
        assert fired.sum() >= 1000
        assert evaluations / fired.sum() <= 6


def test_survival_curve_is_non_increasing_on_the_grid():
    # the premise of the binary search: tr S_t(rho) of a post-jump state never
    # rises from one grid point to the next, beyond roundoff
    rng = np.random.default_rng(4242)
    specs = list(SAMPLER_MODELS[:2]) + [propcheck.random_subharmonic_model(rng) for _ in range(30)]
    grid = STEP * np.arange(3001)
    for case, spec in enumerate(specs):
        kernel = build_kernel(restrict(spec))
        prop = kernel.loop
        table = prop.trace_rows(grid)
        for _ in range(5):
            post = jump_map(spec, propcheck.random_density(rng, spec.dim))
            curve = (prop.coords(kernel.row(post / np.trace(post)))[1] * table).sum(-1).real
            assert np.diff(curve).max() <= 64 * np.finfo(float).eps, case


def test_post_jump_states_return_to_qss():
    kernel = build_kernel(restrict(two_qubit_both(1.0)))
    nu = both_sites_qss()
    records = sample_trajectories(kernel, nu, 6.0, seed=9, n=100)
    stats = jump_statistics(records, alpha=1.0, nu=nu)
    assert stats.post_jump_max_deviation < 1e-7
    assert stats.rate == 2.0


def test_jump_statistics_small_run():
    kernel = build_kernel(restrict(two_qubit_both(1.0)))
    nu = both_sites_qss()
    records = sample_trajectories(kernel, nu, 6.0, seed=5, n=300)
    stats = jump_statistics(records, alpha=1.0, nu=nu)
    assert stats.n_trajectories == 300
    # crude sanity on the exponential law; tight bounds live in acceptance
    target = truncated_exp_mean(2.0, 6.0)
    assert abs(stats.conditional_interjump_mean - target) < 0.1
    assert stats.ks_statistic < 0.1
    assert 0.3 < stats.censoring_fraction < 0.7


def test_ks_statistic_matches_scipy():
    kernel = build_kernel(restrict(two_qubit_both(1.0)))
    nu = both_sites_qss()
    records = sample_trajectories(kernel, nu, 6.0, seed=9, n=300)
    stats = jump_statistics(records, alpha=1.0, nu=nu)
    z = 1.0 - np.exp(-stats.rate * records.horizon)

    def cdf(x):
        return np.clip((1.0 - np.exp(-stats.rate * np.asarray(x, dtype=float))) / z, 0.0, 1.0)

    assert stats.ks_statistic == scipy.stats.kstest(interjump_gaps(records), cdf).statistic


def test_jump_statistics_requires_jumps():
    kernel = build_kernel(restrict(two_qubit_both(1.0)))
    nu = both_sites_qss()
    batch = sample_trajectories(kernel, nu, 1e-4, seed=0, n=1)
    with pytest.raises(TrajectoryError, match="no jumps"):
        jump_statistics(batch, alpha=1.0)


def test_truncated_exp_mean_against_quadrature():
    import scipy.integrate

    for rate, window in ((2.0, 6.0), (0.7, 3.0)):
        num, _ = scipy.integrate.quad(
            lambda x: x * rate * np.exp(-rate * x), 0.0, window
        )
        z = 1.0 - np.exp(-rate * window)
        assert abs(truncated_exp_mean(rate, window) - num / z) < 1e-12


def test_measure_weight_matches_survival():
    spec = two_qubit_both(1.0)
    nu = both_sites_qss()
    total, _ = nojump_survival(spec, nu, 2.5)
    assert abs(measure_weight(spec, (), 2.5, nu) - total) < 1e-12
    with pytest.raises(ValueError, match="ordered"):
        measure_weight(spec, (1.0, 0.5), 2.5, nu)
    with pytest.raises(ValueError):
        measure_weight(spec, (3.0,), 2.5, nu)


def test_sector_sum_normalization():
    nu = both_sites_qss()
    for spec, rho0 in (
        (two_qubit_both(1.0), nu),
        (two_qubit_site1(1.0), np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)),
    ):
        assert abs(sector_sum(spec, rho0, 2.0) - 1.0) < 1e-6


def test_sampler_input_validation():
    kernel = build_kernel(restrict(two_qubit_both(1.0)))
    nu = both_sites_qss()
    with pytest.raises(ValueError, match="horizon"):
        sample_trajectory(kernel, nu, 0.0, seed=1)
