
import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import propcheck
from oracles import (
    gen_tilde,
    jump_map,
    measure_weight,
    nojump_generator,
    nojump_survival,
    sample_trajectory,
    sector_sum,
    truncated_exp_mean,
)
from qsslab import modelio, operators, trajectory
from qsslab.model import two_qubit_both, two_qubit_site1
from qsslab.operators import frob, vectorize
from qsslab.structure import Analysis, restrict
from qsslab.qss import extract_qss, perron_structure, real_eigen_candidates
from qsslab.trajectory import (
    TrajectoryError,
    DRAWS,
    STEP,
    TIME_TOL,
    _bracket,
    build_kernel,
    jump_statistics,
    sample_trajectories,
    stream_keys,
    stream_uniforms,
)
from test_structure import raising_model


def both_sites_qss():
    restr = restrict(two_qubit_both(1.0))
    result = extract_qss(real_eigen_candidates(restr))
    return result.families[0].anchor.nu


def perron_qss(spec):
    restr = restrict(spec)
    result = perron_structure(restr, extract_qss(real_eigen_candidates(restr)))
    return next(f.anchor.nu for f in result.families if f.anchor.is_perron)


SAMPLER_MODELS = (two_qubit_both(1.0), two_qubit_site1(1.0), two_qubit_site1(0.3))


def test_build_kernel_requires_subharmonic():
    with pytest.raises(TrajectoryError, match="subharmonic"):
        build_kernel(raising_model())


def test_tilde_generator_preserves_trace():
    spec = two_qubit_both(1.0)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    for t in (0.3, 1.0, 4.0):
        from qsslab.model import apply_semigroup

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
    kernel = build_kernel(two_qubit_both(1.0))
    nu = both_sites_qss()
    rec_a = sample_trajectory(kernel, nu, 6.0, seed=42, stream=3)
    rec_b = sample_trajectory(kernel, nu, 6.0, seed=42, stream=3)
    assert rec_a.jump_times == rec_b.jump_times
    assert rec_a.final_weight == rec_b.final_weight
    rec_c = sample_trajectory(kernel, nu, 6.0, seed=42, stream=4)
    assert rec_a.jump_times != rec_c.jump_times or rec_a.final_weight != rec_c.final_weight


def numpy_stream(seed, stream):
    """numpy's generator of a sampler stream: the oracle of the sampler's draws."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


@pytest.mark.parametrize(
    "seed",
    [0, 5, 1234, 2**31 - 1, 2**32 - 1, 2**32 + 7, 2**64 - 1, 2**70 + 3, 2**128, 2**130 + 5,
     2**200 + 12345],
)
def test_stream_uniforms_match_numpy_philox(seed):
    # oracle: numpy's own SeedSequence, Philox and Generator, built here only
    for first_stream, n in ((0, 300), (17, 5), (2**31, 2), (2**32 - 3, 3)):
        keys = stream_keys(seed, first_stream, n)
        for i in range(n):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(first_stream + i,))
            assert np.array_equal(keys[:, i], seq.generate_state(2, np.uint64))
        refs = [numpy_stream(seed, first_stream + i).uniform(size=24) for i in range(n)]
        for start, count in ((0, 8), (8, 8), (16, 8), (3, 6), (5, 1), (0, 24)):
            got = stream_uniforms(keys, start, count)
            assert got.shape == (n, count)
            for row, ref in zip(got, refs):
                assert np.array_equal(row, ref[start:start + count])


def test_stream_domain():
    # SeedSequence takes no negative entropy; a stream >= 2**32 would need a
    # two-word spawn key
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=-1, spawn_key=(0,))
    with pytest.raises(ValueError, match="seed"):
        stream_keys(-1, 0, 1)
    for first_stream, n in ((2**32, 1), (2**32 - 1, 2), (-1, 1)):
        with pytest.raises(ValueError, match="streams"):
            stream_keys(5, first_stream, n)
    assert stream_keys(5, 2**32 - 1, 1).shape == (2, 1)
    kernel = build_kernel(two_qubit_both(1.0))
    nu = both_sites_qss()
    with pytest.raises(ValueError, match="seed"):
        sample_trajectories(kernel, nu, 6.0, seed=-1, n=2)
    with pytest.raises(ValueError, match="streams"):
        sample_trajectory(kernel, nu, 6.0, seed=1, stream=2**32)


def test_record_invariants():
    for spec in SAMPLER_MODELS[:2]:
        kernel = build_kernel(spec)
        records = sample_trajectories(kernel, perron_qss(spec), 6.0, seed=1, n=300)
        for rec in records:
            times = list(rec.jump_times)
            assert times == sorted(times)
            assert all(0 <= t <= rec.horizon for t in times)
            assert rec.n_jumps == len(rec.post_jump_states)
            # every trajectory ends censored: at the horizon or in the absorbed branch
            assert rec.censored is True
            for state in rec.post_jump_states:
                assert abs(np.trace(state).real - 1.0) < 1e-10
        stats = jump_statistics(records, alpha=1.0)
        assert stats.censoring_fraction == sum(r.n_jumps == 0 for r in records) / len(records)


def test_records_independent_of_batch_size():
    # every record of a batch is bit-identical to the same stream sampled in
    # any other batch size, across chunk boundaries
    for spec in SAMPLER_MODELS:
        kernel = build_kernel(spec)
        nu = perron_qss(spec)
        ref = sample_trajectories(kernel, nu, 6.0, seed=11, n=400)
        for n in (1, 3, 17, 64):
            for rec, other in zip(sample_trajectories(kernel, nu, 6.0, seed=11, n=n), ref):
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
        kernel = build_kernel(spec)
        lines = "".join(modelio.record_lines(sample_trajectories(kernel, rho0, 3.0, seed, 40)))
        lines = lines.splitlines(keepends=True)
        for stream in range(0, 40, 4):
            single = sample_trajectories(kernel, rho0, 3.0, seed, 1, first_stream=stream)
            assert "".join(modelio.record_lines(single)) == lines[stream]


def test_records_independent_of_the_chunk_size(monkeypatch):
    # a chunk holds at most CHUNK_ENTRIES = rows x (m^2 + 1) entries; cut down to
    # 7 rows, a round of 60 live trajectories takes 9 chunks, the last of 4 rows
    rng = np.random.default_rng(515)
    for _ in range(3):
        spec = propcheck.random_subharmonic_model(rng, d=3)
        rho0 = propcheck.random_density(rng, spec.dim)
        kernel = build_kernel(spec)
        whole = list(modelio.record_lines(sample_trajectories(kernel, rho0, 3.0, 9, 60)))
        with monkeypatch.context() as m:
            m.setattr(trajectory, "CHUNK_ENTRIES", 7 * (kernel.isometry.shape[1]**2 + 1))
            chunked = list(modelio.record_lines(sample_trajectories(kernel, rho0, 3.0, 9, 60)))
        assert chunked == whole and "".join(whole).count("\n") == 60


def test_jump_times_invert_the_survival_curve():
    # oracle independent of the scan and bisection: redraw each stream's
    # uniforms one by one; the no-jump survival over each gap equals its draw,
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
        kernel = build_kernel(spec)
        n_jumps = 0
        for rec in sample_trajectories(kernel, nu, 6.0, seed=23, n=n):
            longest = max(longest, rec.n_jumps)
            rng = numpy_stream(23, rec.stream)
            rho, prev = nu, 0.0
            for t, state in zip(rec.jump_times, rec.post_jump_states):
                total, _ = nojump_survival(spec, rho, t - prev)
                assert abs(total - rng.uniform()) < 1e-8
                rho, prev = state, t
                n_jumps += 1
            total, _ = nojump_survival(spec, rho, rec.horizon - prev)
            assert total >= rng.uniform()
        assert n_jumps > 100
    assert longest >= DRAWS  # some stream needs more than one block of draws


def test_kernel_eigenpairs_come_from_the_restriction(monkeypatch):
    # A = [[S^ - 1, 0], [-vec(1)^T S^, 0]] has the pairs (w - 1, (v, -w tr v / (w - 1)))
    # of S^ and (0, e_last); only the d^2 x d^2 final-state propagator solves
    rng = np.random.default_rng(303)
    specs = [*SAMPLER_MODELS, *(propcheck.random_subharmonic_model(rng, d=d) for d in (3, 4, 6, 8))]
    for spec in specs:
        ctx = Analysis(spec)
        ctx.restriction
        sizes = []
        eig = np.linalg.eig

        def counting_eig(a):
            sizes.append(len(a))
            return eig(a)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eig", counting_eig)
            kernel = build_kernel(ctx)
        assert sizes == [spec.dim**2]
        loop = kernel.loop
        assert loop.spectral and loop.mat.shape == (ctx.restriction.m**2 + 1,) * 2
        assert frob(loop.mat @ loop.v - loop.v * loop.w) <= 1e-12 * max(1.0, frob(loop.mat))


def test_sampling_loop_runs_on_the_restriction(monkeypatch):
    # every matrix the loop hands to rowdot is (m^2 + 1)-sized; after the last
    # segment one d^2-sized apply gives the final states
    rng = np.random.default_rng(304)
    cases = [(spec, perron_qss(spec)) for spec in SAMPLER_MODELS[:2]]
    for d in (3, 5, 7):
        spec = propcheck.random_subharmonic_model(rng, d=d)
        cases.append((spec, propcheck.random_density(rng, d)))
    rowdot, apply, segment = operators.rowdot, operators.Propagator.apply, trajectory._segment
    for spec, rho0 in cases:
        kernel = build_kernel(spec)
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
            sample_trajectories(kernel, rho0, 3.0, 5, 200)
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
        kernel = build_kernel(spec)
        batch = sample_trajectories(kernel, rho0, 1.0, 7, 200)
        evolved = scipy.linalg.expm(nojump_generator(spec)) @ vectorize(rho0)
        weight = np.trace(evolved.reshape(spec.dim, spec.dim)).real
        state = evolved.reshape(spec.dim, spec.dim).T / weight
        # the loop's survival trace of the start row, (vec 1_m, 1) after exp(A)
        x = kernel.loop.trace_coords(kernel.row(rho0))
        assert abs((x * kernel.loop.trace_rows(1.0)).sum().real - weight) <= 1e-12
        none = batch.counts == 0
        assert none.sum() >= 10
        assert np.abs(batch.final_weights[none] - weight).max() <= 1e-12
        assert np.abs(batch.final_states[none] - state).max() <= 1e-12


def test_fallback_propagator_samples_like_the_spectral_one(monkeypatch):
    spec = two_qubit_both(1.0)
    nu = perron_qss(spec)
    spectral = sample_trajectories(build_kernel(spec), nu, 6.0, seed=5, n=30)
    monkeypatch.setattr(operators, "EXPM_COND_LIMIT", 0.0)
    kernel = build_kernel(spec)
    assert not kernel.loop.spectral
    fallback = sample_trajectories(kernel, nu, 6.0, seed=5, n=30)
    assert sum(r.n_jumps for r in spectral) > 10
    for a, b in zip(spectral, fallback):
        assert a.n_jumps == b.n_jumps
        assert np.allclose(a.jump_times, b.jump_times, rtol=0.0, atol=1e-9)


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

        kernel = build_kernel(spec)
        with monkeypatch.context() as m:
            m.setattr(trajectory, "_segment", capture)
            sample_trajectories(kernel, perron_qss(spec), 6.0, seed=42, n=10_000)
            m.setattr(operators, "EXPM_COND_LIMIT", 0.0)
            fallback = build_kernel(spec).loop
        assert not fallback.spectral
        grid = segments[0][0]
        vecs, u, remaining = (np.concatenate(parts) for parts in list(zip(*segments))[1:])
        for prop in (kernel.loop, fallback):
            x = prop.trace_coords(vecs)
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
            kernel = build_kernel(spec)
            prop = kernel.loop
            assert prop.spectral is not fallback
            (vecs, u, remaining, fired, t), _ = _segment_calls(m, kernel, rho0, n)
        x = prop.trace_coords(vecs[fired])
        before = (x * prop.trace_rows(np.maximum(t[fired] - TIME_TOL, 0.0))).sum(-1).real
        after = (x * prop.trace_rows(np.minimum(t[fired] + TIME_TOL, remaining[fired]))).sum(-1).real
        assert (before >= u[fired]).all() and (u[fired] >= after).all()
        n_fired += fired.sum()
    assert n_fired >= 1000


def test_newton_refines_in_a_few_rounds(monkeypatch):
    # bisection from the 0.01 bracket to TIME_TOL takes 27 rounds; Newton about 4
    for spec in SAMPLER_MODELS[:2]:
        (*_, fired, _), evaluations = _segment_calls(monkeypatch, build_kernel(spec), perron_qss(spec),
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
        kernel = build_kernel(spec)
        prop = kernel.loop
        table = prop.trace_rows(grid)
        for _ in range(5):
            post = jump_map(spec, propcheck.random_density(rng, spec.dim))
            curve = (prop.trace_coords(kernel.row(post / np.trace(post))) * table).sum(-1).real
            assert np.diff(curve).max() <= 64 * np.finfo(float).eps, case


def test_post_jump_states_return_to_qss():
    kernel = build_kernel(two_qubit_both(1.0))
    nu = both_sites_qss()
    records = sample_trajectories(kernel, nu, 6.0, seed=9, n=100)
    stats = jump_statistics(records, alpha=1.0, nu=nu)
    assert stats.post_jump_max_deviation < 1e-7
    assert stats.rate == 2.0


def test_jump_statistics_small_run():
    kernel = build_kernel(two_qubit_both(1.0))
    nu = both_sites_qss()
    records = sample_trajectories(kernel, nu, 6.0, seed=5, n=300)
    stats = jump_statistics(records, alpha=1.0, nu=nu)
    assert stats.n_trajectories == 300
    # crude sanity on the exponential law; tight bounds live in acceptance
    target = truncated_exp_mean(2.0, 6.0)
    assert abs(stats.empirical_mean - target) < 0.1
    assert stats.ks_statistic < 0.1
    assert 0.3 < stats.censoring_fraction < 0.7


def test_ks_statistic_matches_scipy():
    kernel = build_kernel(two_qubit_both(1.0))
    nu = both_sites_qss()
    records = sample_trajectories(kernel, nu, 6.0, seed=9, n=300)
    stats = jump_statistics(records, alpha=1.0, nu=nu)
    z = 1.0 - np.exp(-stats.rate * stats.window)

    def cdf(x):
        return np.clip((1.0 - np.exp(-stats.rate * np.asarray(x, dtype=float))) / z, 0.0, 1.0)

    assert stats.ks_statistic == scipy.stats.kstest(stats.interjump_samples, cdf).statistic


def test_jump_statistics_requires_jumps():
    kernel = build_kernel(two_qubit_both(1.0))
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
    kernel = build_kernel(two_qubit_both(1.0))
    nu = both_sites_qss()
    with pytest.raises(ValueError, match="horizon"):
        sample_trajectory(kernel, nu, 0.0, seed=1)
