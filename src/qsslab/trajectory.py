"""Counting-process unraveling with detector p0_perp, sampled on the restriction.

Between jumps the (unnormalized) state follows the full generator plus
-1/2 {p0_perp, .}; jumps compress it to the p0_perp corner and renormalize.
Since range(p0) is invariant, the m x m corner rho^ evolves on its own, by
e^{-t} T^_t: a trajectory is the row (vec rho^, q), q the trace outside the
corner, and the full state is formed only for the final states.

Sampling is inverse-CDF on the unnormalized trace tr rho^ + q with censoring
at a finite horizon: the trace can plateau strictly above zero (the absorbed
branch), so an unconditional next-jump draw would not terminate.  The
survival curve is non-increasing (d/dt = -tr rho^ <= 0):
a jump fires iff it ends below the draw, a binary search over a time grid
brackets the one crossing and safeguarded Newton refines it to within
``TIME_TOL``: the curve is at or above the draw ``TIME_TOL`` before the firing
time and at or below it ``TIME_TOL`` after (both clamped to the segment).
All trajectories of a batch advance in lockstep, one segment per round, in
row-wise arithmetic, so a record does not depend on the batch size.  Every
jump goes straight into the columns of one :class:`TrajectoryBatch`.

Round r of stream s consumes uniform r of that stream: word ``r % 4`` of the
Philox4x64-10 block at counter ``(s, r // 4 + 1, 0, 0)`` under one key per
seed, so the stream id lives in the counter.  Philox is counter-based, so
every stream's uniforms of four rounds come from one call of numpy's
Philox (:func:`stream_uniforms`).  Its domain is ``seed >= 0`` and
``0 <= stream < 2**32``; values outside raise ``ValueError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import operators as op
from .model import ModelSpec, gkls_superop, sandwich
from .operators import adjoint, vectorize
from .structure import RestrictedGenerator

STEP = 0.01           # finest grid step of the survival curve's bracket search
GRID_INTERVALS = 2**16  # most grid steps per horizon: a longer horizon takes wider ones
TIME_TOL = 1e-10      # a firing time lies within this of the crossing
CHUNK_ENTRIES = 2**15  # most rows x (m^2 + 1) entries per chunk of every batched sampler step


class TrajectoryError(RuntimeError):
    pass


@dataclass(frozen=True)
class UnravelingKernel:
    """``loop``: exp(tA) on rows (vec V^dag rho V, tr p0 rho) with trace row
    (vec 1_m, 1), all the sampling loop runs on; ``isometry``: the restriction's V;
    ``nojump``: the d^2 x d^2 no-jump propagator of ``spec``, the GKLS form of
    (G - 1/2 p0_perp, L_k), built on first read (only the final states need it)."""

    loop: op.Propagator
    isometry: np.ndarray
    spec: ModelSpec

    @cached_property
    def nojump(self) -> op.Propagator:
        spec = self.spec
        return op.Propagator(gkls_superop(spec.effective_drift() - 0.5 * spec.p0_perp, spec.jump_ops))

    def row(self, rho: np.ndarray) -> np.ndarray:
        """The loop's row (vec V^dag rho V, tr p0 rho) of a d x d state."""
        v = self.isometry
        return np.append(vectorize(v.conj().T @ rho @ v), np.trace(self.spec.p0 @ rho))


def build_kernel(restr: RestrictedGenerator) -> UnravelingKernel:
    """The unraveling's propagators.  A = [[S^ - 1, 0], [-vec(1_m)^T S^, 0]] takes
    its pairs from the restriction's S^ v = w v, no eigensolve: (w - 1,
    (v, -w tr v / (w - 1))) and (0, e_last).  ``nojump`` solves its own."""
    (w, v), s_hat, n = restr.eig, restr.gen, restr.m**2
    one = vectorize(np.eye(restr.m))
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[:n, :n], a[n, :n] = s_hat - np.eye(n), -one @ s_hat
    vecs = np.zeros_like(a)
    vecs[:n, :n], vecs[n, :n], vecs[n, n] = v, -w * (one @ v) / (w - 1), 1.0
    loop = op.Propagator(a, eig=(np.append(w - 1, 0.0), vecs), trace_row=np.append(one, 1.0))
    return UnravelingKernel(loop, restr.isometry, restr.spec)


@dataclass(frozen=True)
class TrajectoryBatch:
    """The trajectories of streams ``first_stream .. first_stream + n - 1``, as columns.

    Trajectory ``i`` has ``counts[i]`` jumps: rows ``offsets[i] .. offsets[i + 1] - 1``
    of ``jump_times`` (J,) and ``post_jump_states`` (J, d, d), in time order.  Every
    trajectory ends censored, at the horizon or in the absorbed branch, after a
    last segment of length ``last[i]`` from its last post-jump state (``start``,
    the vectorized rho0, if none).  Its normalized ``final_states[i]`` and
    surviving unnormalized weight ``final_weights[i]`` are formed on first read,
    by one batched ``kernel.nojump`` apply.
    """

    seed: int
    first_stream: int
    horizon: float
    counts: np.ndarray
    jump_times: np.ndarray
    post_jump_states: np.ndarray
    last: np.ndarray
    start: np.ndarray
    kernel: UnravelingKernel

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts)])

    @cached_property
    def _finals(self):
        d = self.post_jump_states.shape[1]
        starts = np.tile(self.start, (len(self), 1))
        jumped = self.counts > 0
        ends = self.post_jump_states[self.offsets[1:][jumped] - 1]
        starts[jumped] = ends.transpose(0, 2, 1).reshape(-1, d * d)  # vec: column-stacked
        finals = self.kernel.nojump.apply(self.last, starts)
        weights = finals[:, ::d + 1].sum(-1).real
        kept = weights > 1e-300
        finals[kept] /= weights[kept, None]
        return _states(finals, d), weights

    @property
    def final_states(self) -> np.ndarray:
        return self._finals[0]

    @property
    def final_weights(self) -> np.ndarray:
        return self._finals[1]


def stream_uniforms(seed: int, first_stream: int, n: int, r: int) -> np.ndarray:
    """Uniform ``r`` of streams ``first_stream .. first_stream + n - 1``, shape ``(n,)``.

    Uniform r of stream s is word ``r % 4`` of the Philox4x64-10 block at
    counter ``(s, r // 4 + 1, 0, 0)`` under the key
    ``SeedSequence(seed).generate_state(2, np.uint64)``, taken to ``[0, 1)`` by
    numpy's 53-bit rule.  numpy increments the counter, carrying from word 0
    into word 1, before each block, so one ``random_raw`` call from the counter
    before stream ``first_stream``'s gives the blocks of all ``n`` streams.  The key
    depends on the seed alone, so :func:`sample_trajectories` derives it once per
    batch and draws four rounds at once by :func:`_uniform_blocks`, for the same bits.
    """
    return _uniform_blocks(_stream_key(seed, first_stream, n), first_stream, n, r)[:, r % 4]


def _uniform_blocks(key: np.ndarray, first_stream: int, n: int, r: int) -> np.ndarray:
    """Uniforms ``4 (r // 4) .. 4 (r // 4) + 3`` of the streams, shape ``(n, 4)``: the
    Philox blocks that :func:`stream_uniforms` reads under the ``key`` of its seed."""
    bits = np.random.Philox(key=key, counter=first_stream - 1 + ((r // 4 + 1) << 64))
    return (bits.random_raw(4 * n).reshape(n, 4) >> 11) * 2.0**-53


def _stream_key(seed: int, first_stream: int, n: int) -> np.ndarray:
    """The Philox key of ``seed``, after the seed and stream checks."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if not 0 <= first_stream <= first_stream + n <= 2**32:
        raise ValueError("streams must lie in [0, 2**32)")
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _bracket(x, at_end, table, grid, u, remaining):
    """``(fired, k_hit)``: the first grid index ``k <= ceil(remaining / grid[1])`` with
    survival below ``u`` (``-1`` where none), by binary search on the monotone
    curve; grid points past ``remaining`` take ``at_end``, its value there.  The fired rows,
    gathered once, take ceil(log2(k_max + 1)) masked halvings in lockstep; a row down to
    hi - lo <= 1 re-reads mid = lo (0 if lo = -1, hi = 0: survival at t = 0 below u) and
    stays, so it visits its own search's mids and ``k_hit`` is the same bit for bit."""
    k_hit = np.full(len(u), -1)
    rows = np.flatnonzero(fired := at_end < u)
    x, at_end, u, remaining = x[rows], at_end[rows], u[rows], remaining[rows]
    hi = np.ceil(remaining / grid[1]).astype(int)
    lo = np.full(rows.size, -1)  # the last index known at or above u
    for _ in range(int(hi.max(initial=0)).bit_length()):
        mid = np.maximum((lo + hi) // 2, 0)
        curve = (x * table[mid]).sum(-1).real
        below = np.where(grid[mid] > remaining, at_end, curve) < u
        hi, lo = np.where(below, mid, hi), np.where(below, lo, mid)
    k_hit[rows] = hi
    return fired, k_hit


def _segment(prop, table, grid, vecs, u, remaining):
    """Advance rows to the first ``t <= remaining`` where their survival trace is ``u``.

    Returns ``(fired, t, sig)``: whether a row fired, its firing time
    (``remaining`` if not) and the row advanced to it.  One ``prop.coords`` call, on
    either exponential path, gives the curve's ``x`` and ``dx`` and the ``coef`` that
    ``prop.apply`` reuses for ``sig``.  Safeguarded Newton on the grid bracket, from
    its midpoint: each round takes f and f' from one ``trace_rows`` call and shrinks
    ``[lo, hi]`` by the sign of f - u, keeping f(lo) >= u > f(hi); a step that leaves
    ``[lo, hi]`` bisects it.  A row stops at a step <= ``TIME_TOL / 2`` or a bracket <= ``TIME_TOL``.
    Unfinished rows stay compact, recompacted only when rows stop; t is row arithmetic.
    """
    coef, x, dx = prop.coords(vecs)
    at_end = (x * prop.trace_rows(remaining)).sum(-1).real
    fired, k_hit = _bracket(x, at_end, table, grid, u, remaining)
    hi = np.minimum(grid[k_hit], remaining)
    lo = np.where(k_hit > 0, np.minimum(grid[k_hit - 1], remaining), 0.0)
    t = np.where(fired, 0.5 * (lo + hi), remaining)
    active = np.flatnonzero(fired & (hi - lo > TIME_TOL))
    x, dx, u, lo, hi, now = (a[active] for a in (x, dx, u, lo, hi, t))
    while active.size:
        rows = prop.trace_rows(now)
        f = (x * rows).sum(-1).real - u
        lo, hi = np.where(f >= 0, now, lo), np.where(f >= 0, hi, now)
        with np.errstate(all="ignore"):  # f' = 0 gives a non-finite step, which bisects
            step = f / (dx * rows).sum(-1).real
        newton = (now - step >= lo) & (now - step <= hi)
        now = np.where(newton, now - step, 0.5 * (lo + hi))
        done = (newton & (np.abs(step) <= TIME_TOL / 2)) | (hi - lo <= TIME_TOL)
        if done.any():
            t[active[done]] = now[done]
            active, x, dx, u, lo, hi, now = (a[~done] for a in (active, x, dx, u, lo, hi, now))
    return fired, t, prop.apply(t, vecs, coef)


def _states(vecs: np.ndarray, d: int) -> np.ndarray:
    """C-ordered ``(k, d, d)`` stack of the column-stacked rows of ``vecs``."""
    return np.ascontiguousarray(vecs.reshape(-1, d, d).transpose(0, 2, 1))


def sample_trajectories(kernel, rho0, horizon, seed, n: int, first_stream: int = 0) -> TrajectoryBatch:
    """Waiting-time unravelings of streams ``first_stream .. first_stream + n - 1``.

    Round r gives each live trajectory uniform r of its own stream, the word
    of the Philox block at counter (stream, r // 4 + 1, 0, 0) under the seed's
    key (:func:`stream_uniforms`), so a draw depends only on (seed, stream,
    r); one call under a key derived once per batch draws the blocks of four
    rounds.  A trajectory's jump fires at the first t where its row's
    survival trace is u, bracketed by binary search on the grid of a table of
    the survival curve's exponentials, then refined by safeguarded Newton to
    within ``TIME_TOL`` (see :func:`_segment`).  A jump leaves the row (corner / tr corner, 0).  A
    trajectory whose trace stays above u up to the horizon, or whose jump has
    vanishing weight (the absorbed branch), ends censored.  The grid step is
    ``STEP``, or ``horizon / GRID_INTERVALS`` if wider.  Rows pass every step in
    chunks of at most ``CHUNK_ENTRIES`` entries (rows x (m^2 + 1)), each row
    transformed by its own matvec (:func:`operators.rowdot`).  Each chunk logs
    its jumps as arrays; one stable sort by row at the end groups them by
    trajectory, in time order since rounds are chronological.  The corners are
    then embedded as V X V^dag.  The batch forms the final states from the
    lengths of the last segments on first read (:class:`TrajectoryBatch`).
    """
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    key = _stream_key(seed, first_stream, n)  # checks the seed and streams, also when n = 0
    rho0 = op.as_operator(rho0)
    d, v = rho0.shape[0], kernel.isometry
    m = v.shape[1]
    mm = m * m
    chunk = max(1, CHUNK_ENTRIES // (mm + 1))
    prop = kernel.loop
    step = max(STEP, horizon / GRID_INTERVALS)
    grid = step * np.arange(int(np.ceil(horizon / step)) + 1)
    table = prop.trace_rows(grid)
    # a strided view of the corner's diagonal sums every row in one order whatever
    # the number of rows; a fancy-indexed copy is summed differently once it has two
    diag = slice(None, mm, m + 1)
    vecs = np.tile(kernel.row(rho0), (n, 1))
    t_now = np.zeros(n)
    last = np.zeros(n)  # the length of each trajectory's last segment
    jump_rows, jump_times, posts = [np.empty(0, int)], [np.empty(0)], [np.empty((0, mm), complex)]
    alive = np.ones(n, dtype=bool)
    r = 0
    while (live := np.flatnonzero(alive)).size:
        if r % 4 == 0:
            blocks = _uniform_blocks(key, first_stream, n, r)
        u = blocks[live, r % 4]
        r += 1
        for c in range(0, live.size, chunk):
            rows = live[c:c + chunk]
            fired, t, sig = _segment(prop, table, grid, vecs[rows], u[c:c + chunk],
                                     horizon - t_now[rows])
            w = sig[:, diag].sum(-1).real
            go = fired & (w > 1e-300)
            alive[rows[~go]] = False  # censored at the horizon, or absorbed
            last[rows[~go]] = t[~go]
            rows, post = rows[go], sig[go, :mm] / w[go, None]
            t_now[rows] += t[go]
            vecs[rows, :mm], vecs[rows, mm] = post, 0.0
            jump_rows.append(rows)
            jump_times.append(t_now[rows])
            posts.append(post)
    jump_rows = np.concatenate(jump_rows)
    order = np.argsort(jump_rows, kind="stable")
    counts = np.bincount(jump_rows, minlength=n)
    posts = op.rowdot(sandwich(v, adjoint(v)), np.concatenate(posts)[order])  # vec(V X V^dag)
    return TrajectoryBatch(
        seed=seed, first_stream=first_stream, horizon=horizon, counts=counts,
        jump_times=np.concatenate(jump_times)[order], post_jump_states=_states(posts, d),
        last=last, start=vectorize(rho0), kernel=kernel,
    )


@dataclass(frozen=True)
class JumpStatistics:
    n_trajectories: int
    n_observed_jumps: int
    conditional_interjump_mean: float
    ks_statistic: float
    post_jump_max_deviation: float
    censoring_fraction: float  # fraction of trajectories with no observed jump
    rate: float


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
        conditional_interjump_mean=float(np.mean(gaps_arr)),
        ks_statistic=ks,
        post_jump_max_deviation=max_dev,
        censoring_fraction=int(np.sum(counts == 0)) / len(batch),
        rate=rate,
    )
