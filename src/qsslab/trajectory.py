"""Counting-process unraveling with detector p0_perp.

Between jumps the (unnormalized) state follows the contraction semigroup
generated by the full state-evolution generator plus -1/2 {p0_perp, .};
jumps compress the state to the p0_perp corner and renormalize.  The
trace-preserving companion semigroup (no-jump generator plus the corner
map) underlies the normalization of the jump-time measure and is used for
sector-sum checks.

Sampling is inverse-CDF on the unnormalized trace with censoring at a
finite horizon: the trace can plateau strictly above zero (the absorbed
branch), so an unconditional next-jump draw would not terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.integrate
import scipy.stats

from . import operators as op
from .model import SCHRODINGER, ModelSpec, Superop, left_mul, right_mul, sandwich
from .operators import devectorize, frob, vectorize
from .structure import as_analysis, check_subharmonic  # noqa: F401 (still importable from here)

STEP = 0.01           # no-jump scan step for locating the firing time
TIME_TOL = 1e-10      # bisection tolerance on the firing time


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


def sample_trajectory(
    kernel: UnravelingKernel,
    rho0: np.ndarray,
    horizon: float,
    seed: int,
    stream: int = 0,
) -> TrajectoryRecord:
    """One waiting-time unraveling of the counting process.

    Per segment: draw u ~ U(0,1); the jump fires at the first t with
    tr(S_t(rho)) = u, located by scanning the survival curve on a fixed step
    grid and refining by bisection.  If the trace never reaches u before the
    horizon, the record is censored with the surviving unnormalized weight.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rho0 = op.as_operator(rho0)
    rng = _rng_for(seed, stream)
    prop = kernel.gen_nojump.propagator
    t_now = 0.0
    rho = rho0
    jump_times = []
    post_states = []
    censored = False
    final_state = rho
    final_weight = 1.0
    while True:
        remaining = horizon - t_now
        u = float(rng.uniform())
        vec = vectorize(rho)
        n_steps = int(np.ceil(remaining / STEP))
        grid = np.minimum(STEP * np.arange(n_steps + 1), remaining)
        curve = np.real(prop.trace_curve(vec, grid))
        below = np.where(curve < u)[0]
        if len(below) == 0:
            censored = True
            sig = devectorize(prop.apply(remaining, vec))
            final_weight = float(np.trace(sig).real)
            tr = final_weight
            final_state = sig / tr if tr > 1e-300 else sig
            break
        k = int(below[0])
        lo = 0.0 if k == 0 else float(grid[k - 1])
        hi = float(grid[k])

        def survival(t):
            return float(np.real(prop.trace_curve(vec, np.array([t]))[0]))

        while hi - lo > TIME_TOL:
            mid = 0.5 * (lo + hi)
            if survival(mid) >= u:
                lo = mid
            else:
                hi = mid
        t_fire = 0.5 * (lo + hi)
        sig = devectorize(prop.apply(t_fire, vec))
        jumped = kernel.jump_map(sig)
        w = float(np.trace(jumped).real)
        if w <= 1e-300:
            # absorbed branch: intensity vanished before the draw level
            censored = True
            final_weight = float(np.trace(sig).real)
            final_state = sig / final_weight if final_weight > 1e-300 else sig
            break
        t_now = t_now + t_fire
        rho = jumped / w
        jump_times.append(t_now)
        post_states.append(rho)
        final_state = rho
        final_weight = w
    return TrajectoryRecord(
        seed=seed,
        stream=stream,
        horizon=horizon,
        jump_times=tuple(jump_times),
        post_jump_states=tuple(post_states),
        final_state=final_state,
        final_weight=final_weight,
        censored=censored,
    )


def sample_trajectories(kernel, rho0, horizon, seed, n: int):
    """n independent records; stream-split by trajectory index."""
    return [
        sample_trajectory(kernel, rho0, horizon, seed, stream=i) for i in range(n)
    ]


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
    gaps = []
    max_dev = 0.0
    n_zero = 0
    window = 0.0
    for rec in records:
        window = max(window, rec.horizon)
        prev = 0.0
        if not rec.jump_times:
            n_zero += 1
        for t, state in zip(rec.jump_times, rec.post_jump_states):
            gaps.append(t - prev)
            prev = t
            if nu is not None:
                max_dev = max(max_dev, frob(state - nu))
    if not gaps:
        raise TrajectoryError("no samples: no jumps observed in the record set")
    rate = 1.0 + alpha
    gaps_arr = np.array(gaps)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        z = 1.0 - np.exp(-rate * window)
        return np.clip((1.0 - np.exp(-rate * x)) / z, 0.0, 1.0)

    ks = float(scipy.stats.kstest(gaps_arr, cdf).statistic)
    return JumpStatistics(
        n_trajectories=len(records),
        n_observed_jumps=len(gaps),
        interjump_samples=tuple(gaps),
        empirical_mean=float(np.mean(gaps_arr)),
        ks_statistic=ks,
        post_jump_max_deviation=max_dev,
        censoring_fraction=n_zero / len(records),
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

    tail, _ = scipy.integrate.quad(integrand, 0.0, horizon, epsabs=1e-10, epsrel=1e-10, limit=200)
    return zero_jump + tail
