"""Counting-process unraveling with detector p0_perp.

Between jumps the (unnormalized) state follows the contraction semigroup
generated by the full state-evolution generator plus -1/2 {p0_perp, .};
jumps compress the state to the p0_perp corner and renormalize.  The
trace-preserving companion semigroup (no-jump generator plus the corner
map) underlies the normalization of the jump-time measure and is used for
sector-sum checks.

Sampling is inverse-CDF on the unnormalized trace with censoring at a
finite horizon: the trace can plateau strictly above zero (the absorbed
branch), so an unconditional next-jump draw would not terminate.  The
survival curve tr S_t(rho) is non-increasing (d/dt = -tr(p0_perp S_t(rho)) <= 0):
a jump fires iff it ends below the draw, a binary search over the ``STEP``
grid brackets the one crossing and safeguarded Newton refines it to within
``TIME_TOL``: the curve is at or above the draw ``TIME_TOL`` before the firing
time and at or below it ``TIME_TOL`` after (both clamped to the segment).
All trajectories of a batch advance in lockstep, one segment per round, in
row-wise arithmetic, so a record does not depend on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as op
from .model import SCHRODINGER, ModelSpec, Superop, left_mul, right_mul, sandwich
from .operators import devectorize, frob, vectorize
from .structure import as_analysis, check_subharmonic  # noqa: F401 (qssbench tests patch it)

STEP = 0.01           # grid step of the survival curve's bracket search
TIME_TOL = 1e-10      # a firing time lies within this of the crossing
CHUNK_ROWS = 128      # trajectories per chunk of every batched sampler step
DRAWS = 8             # uniforms drawn from a stream at a time


class TrajectoryError(RuntimeError):
    pass


@dataclass(frozen=True)
class UnravelingKernel:
    spec: ModelSpec
    gen_nojump: Superop
    gen_tilde: Superop
    p0_perp: np.ndarray

    def jump_map(self, rho: np.ndarray) -> np.ndarray:
        """Unnormalized post-jump compression p0_perp rho p0_perp."""
        return self.p0_perp @ rho @ self.p0_perp


def build_kernel(model) -> UnravelingKernel:
    """No-jump and trace-preserving companion generators for the model."""
    ctx = as_analysis(model)
    if not ctx.subharmonic.verdict:
        raise TrajectoryError("unraveling kernel requires a subharmonic p0")
    spec = ctx.spec
    d, perp = spec.dim, spec.p0_perp
    schr = ctx.schr.mat
    nojump = schr - 0.5 * (left_mul(perp) + right_mul(perp))
    tilde = nojump + sandwich(perp, perp)
    ident = vectorize(np.eye(d))
    defect = float(np.linalg.norm(ident.conj() @ tilde))
    if defect > op.TOL_EIG * max(1.0, frob(tilde)):
        raise TrajectoryError(
            f"trace-preserving companion generator fails trace check: {defect:.3e}"
        )
    return UnravelingKernel(
        spec=spec,
        gen_nojump=Superop(mat=nojump, picture=SCHRODINGER, dim=d),
        gen_tilde=Superop(mat=tilde, picture=SCHRODINGER, dim=d),
        p0_perp=perp,
    )


def nojump_survival(kernel: UnravelingKernel, rho0: np.ndarray, t: float):
    """(tr S_t(rho0), tr(S_t(rho0) p0_perp)) of the no-jump branch."""
    if t < 0:
        raise ValueError("t must be >= 0")
    sig = devectorize(kernel.gen_nojump.propagator.apply(t, vectorize(rho0)))
    total = float(np.trace(sig).real)
    perp = float(np.trace(sig @ kernel.p0_perp).real)
    return total, perp


@dataclass(frozen=True)
class TrajectoryRecord:
    seed: int
    stream: int
    horizon: float
    jump_times: tuple
    post_jump_states: tuple
    final_state: np.ndarray
    final_weight: float
    censored: bool

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times)


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    # counter-based Philox; (seed, stream) identifies an independent stream
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def _bracket(x, at_end, table, grid, u, remaining):
    """``(fired, k_hit)``: the first grid index ``k <= ceil(remaining / STEP)`` with
    survival below ``u`` (``-1`` where none), by binary search on the monotone
    curve; grid points past ``remaining`` take ``at_end``, its value there."""
    fired = at_end < u
    k_hit = np.where(fired, np.ceil(remaining / STEP).astype(int), -1)
    lo = np.full(len(u), -1)  # the last index known at or above u
    active = np.flatnonzero(k_hit - lo > 1)
    while active.size:
        mid = (lo[active] + k_hit[active]) // 2
        curve = (x[active] * table[mid]).sum(-1).real
        below = np.where(grid[mid] > remaining[active], at_end[active], curve) < u[active]
        k_hit[active[below]] = mid[below]
        lo[active[~below]] = mid[~below]
        active = active[k_hit[active] - lo[active] > 1]
    return fired, k_hit


def _segment(prop, table, grid, vecs, u, remaining):
    """Advance rows to the first ``t <= remaining`` with ``tr(S_t(rho)) = u``.

    Returns ``(fired, t, sig)``: whether a row fired, its firing time
    (``remaining`` if not) and ``vec(S_t(rho))``.  Safeguarded Newton on the
    grid bracket, from its midpoint: each round takes f and f' (coordinates
    ``dx``) from one ``trace_rows`` call and shrinks ``[lo, hi]`` by the sign of
    f - u, keeping f(lo) >= u > f(hi); a step that leaves ``[lo, hi]`` bisects
    it.  A row stops at a step <= ``TIME_TOL / 2`` or a bracket <= ``TIME_TOL``.
    """
    x = prop.trace_coords(vecs)
    dx = x * prop.w if prop.spectral else prop.trace_coords(op.rowdot(prop.mat, vecs))
    at_end = (x * prop.trace_rows(remaining)).sum(-1).real
    fired, k_hit = _bracket(x, at_end, table, grid, u, remaining)
    hi = np.minimum(grid[k_hit], remaining)
    lo = np.where(k_hit > 0, np.minimum(grid[k_hit - 1], remaining), 0.0)
    t = 0.5 * (lo + hi)
    active = np.flatnonzero(fired & (hi - lo > TIME_TOL))
    while active.size:
        rows = prop.trace_rows(now := t[active])
        f = (x[active] * rows).sum(-1).real - u[active]
        lo[active] = np.where(f >= 0, now, lo[active])
        hi[active] = np.where(f >= 0, hi[active], now)
        with np.errstate(all="ignore"):  # f' = 0 gives a non-finite step, which bisects
            step = f / (dx[active] * rows).sum(-1).real
        newton = (now - step >= lo[active]) & (now - step <= hi[active])
        t[active] = np.where(newton, now - step, 0.5 * (lo[active] + hi[active]))
        done = (newton & (np.abs(step) <= TIME_TOL / 2)) | (hi[active] - lo[active] <= TIME_TOL)
        active = active[~done]
    t = np.where(fired, t, remaining)
    return fired, t, prop.apply(t, vecs)


def sample_trajectories(kernel, rho0, horizon, seed, n: int, first_stream: int = 0):
    """Waiting-time unravelings of streams ``first_stream .. first_stream + n - 1``.

    Per round, each live trajectory draws u ~ U(0,1) from its own stream; its
    jump fires at the first t with tr(S_t(rho)) = u, bracketed by binary search
    on the grid of a table of the survival curve's exponentials, then refined by
    safeguarded Newton to within ``TIME_TOL`` (see :func:`_segment`).  A
    trajectory whose trace stays above u up to the horizon, or whose jump has
    vanishing weight (the absorbed branch), ends censored with its surviving
    unnormalized weight.  Rows pass every step in chunks of ``CHUNK_ROWS``.
    """
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    rho0 = op.as_operator(rho0)
    d = rho0.shape[0]
    prop = kernel.gen_nojump.propagator
    grid = STEP * np.arange(int(np.ceil(horizon / STEP)) + 1)
    table = prop.trace_rows(grid)
    jump = sandwich(kernel.p0_perp, kernel.p0_perp)
    diag = np.arange(d) * (d + 1)
    rngs = [_rng_for(seed, first_stream + i) for i in range(n)]
    draws = np.empty((n, DRAWS))
    vecs = np.tile(vectorize(rho0), (n, 1))
    t_now = np.zeros(n)
    times = [[] for _ in range(n)]
    states = [[] for _ in range(n)]
    ends = [None] * n
    alive = np.ones(n, dtype=bool)
    r = 0
    while (live := np.flatnonzero(alive)).size:
        if r % DRAWS == 0:  # the next DRAWS uniforms of each live stream, in stream order
            draws[live] = [rngs[i].uniform(size=DRAWS) for i in live]
        u = draws[live, r % DRAWS]
        r += 1
        for c in range(0, live.size, CHUNK_ROWS):
            rows = live[c:c + CHUNK_ROWS]
            fired, t, sig = _segment(prop, table, grid, vecs[rows], u[c:c + CHUNK_ROWS],
                                     horizon - t_now[rows])
            jumped = op.rowdot(jump, sig)
            w = jumped[:, diag].sum(-1).real
            go = fired & (w > 1e-300)
            for j in np.flatnonzero(~go):  # censored at the horizon, or absorbed
                end, weight = sig[j].reshape(d, d, order="F"), float(sig[j, diag].sum().real)
                ends[rows[j]] = (end / weight if weight > 1e-300 else end, weight)
            alive[rows[~go]] = False
            rows, post = rows[go], jumped[go] / w[go, None]
            t_now[rows] += t[go]
            vecs[rows] = post
            for i, t_i, v in zip(rows, t_now[rows], post):
                times[i].append(float(t_i))
                states[i].append(v.reshape(d, d, order="F"))
    return [
        TrajectoryRecord(seed, first_stream + i, horizon, tuple(times[i]), tuple(states[i]),
                         *ends[i], censored=True)
        for i in range(n)
    ]


def sample_trajectory(kernel, rho0, horizon, seed, stream: int = 0) -> TrajectoryRecord:
    """One record: the ``n = 1`` case of :func:`sample_trajectories`."""
    return sample_trajectories(kernel, rho0, horizon, seed, 1, first_stream=stream)[0]


@dataclass(frozen=True)
class JumpStatistics:
    n_trajectories: int
    n_observed_jumps: int
    interjump_samples: tuple
    empirical_mean: float
    ks_statistic: float
    post_jump_max_deviation: float
    censoring_fraction: float  # fraction of records with no observed jump
    rate: float
    window: float


def truncated_exp_mean(rate: float, window: float) -> float:
    """Mean of Exp(rate) conditioned on being <= window."""
    z = 1.0 - np.exp(-rate * window)
    return 1.0 / rate - window * np.exp(-rate * window) / z


def jump_statistics(records, alpha: float, nu: Optional[np.ndarray] = None) -> JumpStatistics:
    """Pooled inter-jump statistics against the Exp(1+alpha) law.

    The Kolmogorov-Smirnov statistic compares the gaps with the exponential
    law truncated to the censoring window (the horizon), since conditioning
    on observation before the horizon is exactly what the sampler does.
    """
    counts = np.array([rec.n_jumps for rec in records])
    if not counts.sum():
        raise TrajectoryError("no samples: no jumps observed in the record set")
    window = max(rec.horizon for rec in records)
    times = np.concatenate([rec.jump_times for rec in records])
    prev = np.roll(times, 1)
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0.0  # first jump of each record
    gaps_arr = times - prev
    max_dev = 0.0
    if nu is not None:
        states = np.array([s for rec in records for s in rec.post_jump_states])
        max_dev = float(np.max(np.linalg.norm(states - nu, axis=(1, 2))))
    rate = 1.0 + alpha

    z = 1.0 - np.exp(-rate * window)
    cdf = np.clip((1.0 - np.exp(-rate * np.sort(gaps_arr))) / z, 0.0, 1.0)
    n = len(cdf)
    # two-sided Kolmogorov-Smirnov: max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n)
    ks = float(max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n)))
    return JumpStatistics(
        n_trajectories=len(records),
        n_observed_jumps=len(gaps_arr),
        interjump_samples=tuple(gaps_arr.tolist()),
        empirical_mean=float(np.mean(gaps_arr)),
        ks_statistic=ks,
        post_jump_max_deviation=max_dev,
        censoring_fraction=int(np.sum(counts == 0)) / len(records),
        rate=rate,
        window=window,
    )


def measure_weight(kernel: UnravelingKernel, jump_times, horizon: float, rho0) -> float:
    """tr rho_horizon for a fixed jump-time configuration.

    Deterministic composition S_{horizon - t_k} o (corner map) o ... o S_{t_1}
    applied to rho0; this is the density of the jump-time measure.
    """
    times = list(jump_times)
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("jump times must be ordered")
    if times and (times[0] < 0 or times[-1] > horizon):
        raise ValueError("jump times must lie in [0, horizon]")
    prop = kernel.gen_nojump.propagator
    vec = vectorize(op.as_operator(rho0))
    prev = 0.0
    for t in times:
        vec = prop.apply(t - prev, vec)
        vec = vectorize(kernel.jump_map(devectorize(vec)))
        prev = t
    vec = prop.apply(horizon - prev, vec)
    return float(np.trace(devectorize(vec)).real)


def sector_sum(kernel: UnravelingKernel, rho0, horizon: float) -> float:
    """0-jump weight plus the integrated >=1-jump weight.

    The first-jump sector is integrated by quadrature; everything after the
    first jump is summed exactly by continuing with the trace-preserving
    companion semigroup.  Equals 1 up to quadrature error.
    """
    rho0 = op.as_operator(rho0)
    vec0 = vectorize(rho0)
    prop = kernel.gen_nojump.propagator
    tilde = kernel.gen_tilde.propagator
    zero_jump = float(np.trace(devectorize(prop.apply(horizon, vec0))).real)

    def integrand(t):
        sig = devectorize(prop.apply(t, vec0))
        jumped = vectorize(kernel.jump_map(sig))
        return float(np.trace(devectorize(tilde.apply(horizon - t, jumped))).real)

    import scipy.integrate  # only user; kept off the import path of every command

    tail, _ = scipy.integrate.quad(integrand, 0.0, horizon, epsabs=1e-10, epsrel=1e-10, limit=200)
    return zero_jump + tail
