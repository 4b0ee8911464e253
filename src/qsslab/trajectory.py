"""Counting-process unraveling with detector p0_perp.

Between jumps the (unnormalized) state follows the contraction semigroup
generated by the full state-evolution generator plus -1/2 {p0_perp, .};
jumps compress the state to the p0_perp corner and renormalize.

Sampling is inverse-CDF on the unnormalized trace with censoring at a
finite horizon: the trace can plateau strictly above zero (the absorbed
branch), so an unconditional next-jump draw would not terminate.  The
survival curve tr S_t(rho) is non-increasing (d/dt = -tr(p0_perp S_t(rho)) <= 0):
a jump fires iff it ends below the draw, a binary search over a time grid
brackets the one crossing and safeguarded Newton refines it to within
``TIME_TOL``: the curve is at or above the draw ``TIME_TOL`` before the firing
time and at or below it ``TIME_TOL`` after (both clamped to the segment).
All trajectories of a batch advance in lockstep, one segment per round, in
row-wise arithmetic, so a record does not depend on the batch size.  Every
jump goes straight into the columns of one :class:`TrajectoryBatch`.

Round r of stream s consumes uniform r of that stream.  Philox is
counter-based: a uniform is a pure function of (key, counter), so the
uniforms of all live streams come from one vectorized function
(:func:`stream_keys`, :func:`stream_uniforms`) over uint64 arrays, equal bit
for bit to numpy's ``Generator(Philox(SeedSequence(entropy=seed,
spawn_key=(stream,)))).uniform()``.  Its domain is ``seed >= 0`` and
``0 <= stream < 2**32``; values outside raise ``ValueError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import operators as op
from .model import SCHRODINGER, Superop, left_mul, right_mul, sandwich
from .operators import vectorize
from .structure import as_analysis, check_subharmonic  # noqa: F401 (qssbench tests patch it)

STEP = 0.01           # finest grid step of the survival curve's bracket search
GRID_INTERVALS = 2**16  # most grid steps per horizon: a longer horizon takes wider ones
TIME_TOL = 1e-10      # a firing time lies within this of the crossing
CHUNK_ENTRIES = 2**15  # most rows x d^2 entries per chunk of every batched sampler step
DRAWS = 8             # uniforms drawn from a stream at a time


class TrajectoryError(RuntimeError):
    pass


@dataclass(frozen=True)
class UnravelingKernel:
    gen_nojump: Superop
    p0_perp: np.ndarray


def build_kernel(model) -> UnravelingKernel:
    """No-jump generator of the model's counting process with detector p0_perp."""
    ctx = as_analysis(model)
    if not ctx.subharmonic.verdict:
        raise TrajectoryError("unraveling kernel requires a subharmonic p0")
    perp = ctx.spec.p0_perp
    nojump = ctx.schr.mat - 0.5 * (left_mul(perp) + right_mul(perp))
    return UnravelingKernel(
        gen_nojump=Superop(mat=nojump, picture=SCHRODINGER, dim=ctx.spec.dim), p0_perp=perp
    )


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


@dataclass(frozen=True)
class TrajectoryBatch:
    """The trajectories of streams ``first_stream .. first_stream + n - 1``, as columns.

    Trajectory ``i`` has ``counts[i]`` jumps: rows ``offsets[i] .. offsets[i + 1] - 1``
    of ``jump_times`` (J,) and ``post_jump_states`` (J, d, d), in time order.  Every
    trajectory ends censored, at the horizon or in the absorbed branch, in the
    normalized ``final_states[i]`` with surviving unnormalized weight
    ``final_weights[i]``.  Indexing and iteration give :class:`TrajectoryRecord`
    views: a record for an index, a list of records for a slice.
    """

    seed: int
    first_stream: int
    horizon: float
    counts: np.ndarray
    jump_times: np.ndarray
    post_jump_states: np.ndarray
    final_states: np.ndarray
    final_weights: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts)])

    def __getitem__(self, index):
        i = range(len(self))[index]
        if isinstance(i, range):
            return [self[j] for j in i]
        a, b = self.offsets[i], self.offsets[i + 1]
        return TrajectoryRecord(
            self.seed, self.first_stream + i, self.horizon, tuple(self.jump_times[a:b].tolist()),
            tuple(self.post_jump_states[a:b]), self.final_states[i], float(self.final_weights[i]),
            censored=True,
        )


# numpy's SeedSequence (pool of 4 uint32 words) and Philox4x64-10 constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _hasher(const: int, mult: int):
    """numpy's SeedSequence hash: each call xors the word with ``const``,
    advances ``const`` by ``mult`` and multiplies by it."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def stream_keys(seed: int, first_stream: int, n: int) -> np.ndarray:
    """Philox keys of streams ``first_stream .. first_stream + n - 1``, shape ``(2, n)``:
    ``SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(2, np.uint64)``.

    Every word is a Python int below 2**32 or a uint64 array holding one, so
    products fit and differences wrap; only the spawn key varies by stream.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if not 0 <= first_stream <= first_stream + n <= 2**32:
        raise ValueError("streams must lie in [0, 2**32)")
    # little-endian 32-bit words, padded to the pool size since a spawn key follows
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:] + [np.arange(first_stream, first_stream + n, dtype=np.uint64)]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = list(map(_hasher(_INIT_B, _MULT_B), pool))  # generate_state: low word first
    return np.array([out[0] | out[1] << 32, out[2] | out[3] << 32], dtype=np.uint64)


def _mulhilo(m: int, x: np.ndarray):
    """Low and high 64-bit words of ``m * x``, the high word from 32-bit halves."""
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = (m_lo * x_lo >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return m * x, m_hi * x_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def stream_uniforms(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms ``start .. start + count - 1`` of the streams of ``keys``, shape ``(n, count)``.

    Uniform r of a stream is word ``r % 4`` of the Philox4x64-10 block at
    counter ``(r // 4 + 1, 0, 0, 0)``, since numpy increments the counter
    before a block, taken to ``[0, 1)`` by numpy's 53-bit rule.
    """
    first = start // 4
    blocks = np.arange(first + 1, (start + count - 1) // 4 + 2, dtype=np.uint64)
    k0, k1 = keys[0][:, None], keys[1][:, None]
    c0 = np.broadcast_to(blocks, (k0.size, blocks.size))
    c1 = c2 = c3 = np.zeros_like(c0)
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], -1).reshape(k0.size, -1)
    return (words[:, start - 4 * first:start - 4 * first + count] >> 11) * 2.0**-53


def _bracket(x, at_end, table, grid, u, remaining):
    """``(fired, k_hit)``: the first grid index ``k <= ceil(remaining / grid[1])`` with
    survival below ``u`` (``-1`` where none), by binary search on the monotone
    curve; grid points past ``remaining`` take ``at_end``, its value there."""
    fired = at_end < u
    k_hit = np.where(fired, np.ceil(remaining / grid[1]).astype(int), -1)
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
    On the spectral path one eigen-transform of ``vecs`` serves ``x`` and ``sig``.
    """
    coef = op.rowdot(prop.v_inv, vecs) if prop.spectral else None
    x = prop.trace_coords(vecs, coef)
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
    return fired, t, prop.apply(t, vecs, coef)


def _states(vecs: np.ndarray, d: int) -> np.ndarray:
    """C-ordered ``(k, d, d)`` stack of the column-stacked rows of ``vecs``."""
    return np.ascontiguousarray(vecs.reshape(-1, d, d).transpose(0, 2, 1))


def sample_trajectories(kernel, rho0, horizon, seed, n: int, first_stream: int = 0) -> TrajectoryBatch:
    """Waiting-time unravelings of streams ``first_stream .. first_stream + n - 1``.

    Per round, each live trajectory draws u ~ U(0,1) from its own stream; its
    jump fires at the first t with tr(S_t(rho)) = u, bracketed by binary search
    on the grid of a table of the survival curve's exponentials, then refined by
    safeguarded Newton to within ``TIME_TOL`` (see :func:`_segment`).  A
    trajectory whose trace stays above u up to the horizon, or whose jump has
    vanishing weight (the absorbed branch), ends censored with its surviving
    unnormalized weight.  The grid step is ``STEP``, or ``horizon / GRID_INTERVALS``
    if wider.  Rows pass every step in chunks of at most ``CHUNK_ENTRIES`` entries
    (rows x d^2), each row transformed by its own matvec (:func:`operators.rowdot`).
    Each chunk logs its jumps as arrays; one stable sort by row at the end
    groups them by trajectory, in time order since rounds are chronological.
    """
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    rho0 = op.as_operator(rho0)
    d = rho0.shape[0]
    chunk = max(1, CHUNK_ENTRIES // (d * d))
    prop = kernel.gen_nojump.propagator
    step = max(STEP, horizon / GRID_INTERVALS)
    grid = step * np.arange(int(np.ceil(horizon / step)) + 1)
    table = prop.trace_rows(grid)
    jump = sandwich(kernel.p0_perp, kernel.p0_perp)
    # a strided view of the diagonal sums every row in one order whatever the
    # number of rows; a fancy-indexed copy is summed differently once it has two
    diag = slice(None, None, d + 1)
    keys = stream_keys(seed, first_stream, n)
    draws = np.empty((n, DRAWS))
    vecs = np.tile(vectorize(rho0), (n, 1))  # a trajectory's row ends as its final state
    t_now = np.zeros(n)
    jump_rows, jump_times, posts = [np.empty(0, int)], [np.empty(0)], [np.empty((0, d * d), complex)]
    alive = np.ones(n, dtype=bool)
    r = 0
    while (live := np.flatnonzero(alive)).size:
        if r % DRAWS == 0:  # the next DRAWS uniforms of each live stream, in stream order
            draws[live] = stream_uniforms(keys[:, live], r, DRAWS)
        u = draws[live, r % DRAWS]
        r += 1
        for c in range(0, live.size, chunk):
            rows = live[c:c + chunk]
            fired, t, sig = _segment(prop, table, grid, vecs[rows], u[c:c + chunk],
                                     horizon - t_now[rows])
            jumped = op.rowdot(jump, sig)
            w = jumped[:, diag].sum(-1).real
            go = fired & (w > 1e-300)
            vecs[rows[~go]] = sig[~go]  # censored at the horizon, or absorbed
            alive[rows[~go]] = False
            rows, post = rows[go], jumped[go] / w[go, None]
            t_now[rows] += t[go]
            vecs[rows] = post
            jump_rows.append(rows)
            jump_times.append(t_now[rows])
            posts.append(post)
    weights = vecs[:, diag].sum(-1).real
    kept = weights > 1e-300
    vecs[kept] /= weights[kept, None]
    jump_rows = np.concatenate(jump_rows)
    order = np.argsort(jump_rows, kind="stable")
    return TrajectoryBatch(
        seed=seed, first_stream=first_stream, horizon=horizon,
        counts=np.bincount(jump_rows, minlength=n),
        jump_times=np.concatenate(jump_times)[order],
        post_jump_states=_states(np.concatenate(posts)[order], d),
        final_states=_states(vecs, d), final_weights=weights,
    )


@dataclass(frozen=True)
class JumpStatistics:
    n_trajectories: int
    n_observed_jumps: int
    interjump_samples: tuple
    empirical_mean: float
    ks_statistic: float
    post_jump_max_deviation: float
    censoring_fraction: float  # fraction of trajectories with no observed jump
    rate: float
    window: float


def jump_statistics(batch: TrajectoryBatch, alpha: float, nu: Optional[np.ndarray] = None) -> JumpStatistics:
    """Pooled inter-jump statistics against the Exp(1+alpha) law.

    The Kolmogorov-Smirnov statistic compares the gaps with the exponential
    law truncated to the censoring window (the horizon), since conditioning
    on observation before the horizon is exactly what the sampler does.
    """
    counts, times, window = batch.counts, batch.jump_times, batch.horizon
    if not counts.sum():
        raise TrajectoryError("no samples: no jumps observed in the record set")
    prev = np.roll(times, 1)
    prev[batch.offsets[:-1][counts > 0]] = 0.0  # first jump of each trajectory
    gaps_arr = times - prev
    max_dev = 0.0
    if nu is not None:
        max_dev = float(np.max(np.linalg.norm(batch.post_jump_states - nu, axis=(1, 2))))
    rate = 1.0 + alpha

    z = 1.0 - np.exp(-rate * window)
    cdf = np.clip((1.0 - np.exp(-rate * np.sort(gaps_arr))) / z, 0.0, 1.0)
    n = len(cdf)
    # two-sided Kolmogorov-Smirnov: max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n)
    ks = float(max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n)))
    return JumpStatistics(
        n_trajectories=len(batch),
        n_observed_jumps=len(gaps_arr),
        interjump_samples=tuple(gaps_arr.tolist()),
        empirical_mean=float(np.mean(gaps_arr)),
        ks_statistic=ks,
        post_jump_max_deviation=max_dev,
        censoring_fraction=int(np.sum(counts == 0)) / len(batch),
        rate=rate,
        window=window,
    )
