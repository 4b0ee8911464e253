"""Reference computations for the tests: the duality pairing of the state and
observable evolutions, and the jump-time measure of the sampler.

The trace-preserving companion semigroup (no-jump generator plus the corner
map) normalizes the jump-time measure: the sector sum of a horizon is 1.
These oracles build the d^2 x d^2 no-jump generator from the model and compose
its propagators one jump at a time, independent of the batched sampler in
:mod:`qsslab.trajectory`, which runs on the restriction.
"""

import numpy as np
import scipy.integrate

from qsslab import operators as op
from qsslab.model import (
    ModelSpec,
    apply_semigroup,
    build_generator,
    left_mul,
    right_mul,
    sandwich,
)
from qsslab.operators import adjoint, devectorize, frob, vectorize
from qsslab.trajectory import sample_trajectories


def duality_check(spec: ModelSpec, t: float, x: np.ndarray, y: np.ndarray) -> float:
    """| tr(x T_t(y)) - tr(T_t*(x) y) |, each side from its own eigendecomposition."""
    gen = build_generator(spec)
    heis, schr = op.Propagator(adjoint(gen)), op.Propagator(gen)
    lhs = complex(np.trace(op.as_operator(x) @ apply_semigroup(heis, t, y)))
    rhs = complex(np.trace(apply_semigroup(schr, t, x) @ op.as_operator(y)))
    return abs(lhs - rhs)


def nojump_generator(spec: ModelSpec) -> np.ndarray:
    """The d^2 x d^2 no-jump generator L - 1/2 {p0_perp, .}, built from the model."""
    perp = spec.p0_perp
    return build_generator(spec) - 0.5 * (left_mul(perp) + right_mul(perp))


def jump_map(spec: ModelSpec, rho: np.ndarray) -> np.ndarray:
    """Unnormalized post-jump compression p0_perp rho p0_perp."""
    return spec.p0_perp @ rho @ spec.p0_perp


def gen_tilde(spec: ModelSpec) -> np.ndarray:
    """The trace-preserving companion generator: no-jump generator plus the corner map."""
    perp = spec.p0_perp
    tilde = nojump_generator(spec) + sandwich(perp, perp)
    d = perp.shape[0]
    defect = float(np.linalg.norm(vectorize(np.eye(d)).conj() @ tilde))
    assert defect <= op.TOL_EIG * max(1.0, frob(tilde)), (
        f"trace-preserving companion generator fails trace check: {defect:.3e}"
    )
    return tilde


def nojump_survival(spec: ModelSpec, rho0: np.ndarray, t: float):
    """(tr S_t(rho0), tr(S_t(rho0) p0_perp)) of the no-jump branch."""
    if t < 0:
        raise ValueError("t must be >= 0")
    sig = devectorize(op.Propagator(nojump_generator(spec)).apply(t, vectorize(rho0)))
    total = float(np.trace(sig).real)
    perp = float(np.trace(sig @ spec.p0_perp).real)
    return total, perp


def sample_trajectory(kernel, rho0, horizon, seed, stream: int = 0):
    """One record: the ``n = 1`` case of :func:`qsslab.trajectory.sample_trajectories`."""
    return sample_trajectories(kernel, rho0, horizon, seed, 1, first_stream=stream)[0]


def truncated_exp_mean(rate: float, window: float) -> float:
    """Mean of Exp(rate) conditioned on being <= window."""
    z = 1.0 - np.exp(-rate * window)
    return 1.0 / rate - window * np.exp(-rate * window) / z


def measure_weight(spec: ModelSpec, jump_times, horizon: float, rho0) -> float:
    """tr rho_horizon for a fixed jump-time configuration.

    Deterministic composition S_{horizon - t_k} o (corner map) o ... o S_{t_1}
    applied to rho0; this is the density of the jump-time measure.
    """
    times = list(jump_times)
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("jump times must be ordered")
    if times and (times[0] < 0 or times[-1] > horizon):
        raise ValueError("jump times must lie in [0, horizon]")
    prop = op.Propagator(nojump_generator(spec))
    vec = vectorize(op.as_operator(rho0))
    prev = 0.0
    for t in times:
        vec = prop.apply(t - prev, vec)
        vec = vectorize(jump_map(spec, devectorize(vec)))
        prev = t
    vec = prop.apply(horizon - prev, vec)
    return float(np.trace(devectorize(vec)).real)


def sector_sum(spec: ModelSpec, rho0, horizon: float) -> float:
    """0-jump weight plus the integrated >=1-jump weight.

    The first-jump sector is integrated by quadrature; everything after the
    first jump is summed exactly by continuing with the trace-preserving
    companion semigroup.  Equals 1 up to quadrature error.
    """
    rho0 = op.as_operator(rho0)
    vec0 = vectorize(rho0)
    prop = op.Propagator(nojump_generator(spec))
    tilde = op.Propagator(gen_tilde(spec))
    zero_jump = float(np.trace(devectorize(prop.apply(horizon, vec0))).real)

    def integrand(t):
        sig = devectorize(prop.apply(t, vec0))
        jumped = vectorize(jump_map(spec, sig))
        return float(np.trace(devectorize(tilde.apply(horizon - t, jumped))).real)

    tail, _ = scipy.integrate.quad(integrand, 0.0, horizon, epsabs=1e-10, epsrel=1e-10, limit=200)
    return zero_jump + tail
