"""Reference computations for the tests: the textbook GKLS generator and the
package's (``full_generator``), which no command builds, the semigroup applied to an
operator, which no command evolves, the duality pairing of the state and observable
evolutions, the verification residuals on time grids, and the jump-time
measure of the sampler.

``grid_verification`` evolves a QSS over fixed time grids on a fresh propagator of
the restriction; every bound that ``verify_qss`` certifies must dominate these
evolved residuals.

The trace-preserving companion semigroup (no-jump generator plus the corner
map) normalizes the jump-time measure: the sector sum of a horizon is 1.
These oracles build the d^2 x d^2 no-jump generator from the model and compose
its propagators one jump at a time, independent of the batched sampler in
:mod:`qsslab.trajectory`, which runs on the restriction.
"""

from dataclasses import dataclass

import numpy as np
import scipy.integrate

from qsslab import operators as op
from qsslab.model import (
    ModelSpec,
    gkls_superop,
    left_mul,
    right_mul,
    sandwich,
)
from qsslab.operators import adjoint, devectorize, frob, vectorize
from qsslab.trajectory import sample_trajectories


def gkls_matrix(hamiltonian, jump_ops) -> np.ndarray:
    """The GKLS generator matrix in its textbook form, without ModelSpec validation:
    L*(rho) = -i[H, rho] + sum_l (L rho L^dag - 1/2 {L^dag L, rho}).
    """
    h = np.asarray(hamiltonian, dtype=complex)
    m = -1j * (left_mul(h) - right_mul(h))
    for l in jump_ops:
        l = np.asarray(l, dtype=complex)
        k = adjoint(l) @ l
        m = m + sandwich(l, adjoint(l)) - 0.5 * (left_mul(k) + right_mul(k))
    return m


def full_generator(spec: ModelSpec) -> np.ndarray:
    """The d^2 x d^2 GKLS generator of ``spec``: ``gkls_superop`` of the drift G and the jumps."""
    return gkls_superop(spec.effective_drift(), spec.jump_ops)


def apply_semigroup(prop: op.Propagator, t, x: np.ndarray) -> np.ndarray:
    """exp(t * prop.mat) applied to the operator x.  Semigroup only: t >= 0.

    On the spectral path ``Propagator.apply`` maps x into the generator's
    eigenbasis and back, O(d^4); the exponential is not formed.  A 1-D sequence
    of times gives a (k, d, d) stack from one ``Propagator.apply`` call, each
    slice bit for bit the scalar call's.
    """
    times = np.asarray(t, dtype=float)
    if not np.all((0 <= times) & (times < np.inf)):
        raise ValueError("semigroup is defined for finite t >= 0 only")
    x = op.as_operator(x)
    zero = times == 0
    if zero.all():
        return np.broadcast_to(x, times.shape + x.shape).copy()
    rows = prop.apply(times, x.reshape(-1, order="F"))  # vectorize(x), validated once
    # C-ordered slices, as devectorize returns: norms sum in memory order
    out = rows.reshape(times.shape + x.shape).swapaxes(-1, -2).copy()
    out[zero] = x
    return out


def duality_check(spec: ModelSpec, t: float, x: np.ndarray, y: np.ndarray) -> float:
    """| tr(x T_t(y)) - tr(T_t*(x) y) |, each side from its own eigendecomposition."""
    gen = full_generator(spec)
    heis, schr = op.Propagator(adjoint(gen)), op.Propagator(gen)
    lhs = complex(np.trace(op.as_operator(x) @ apply_semigroup(heis, t, y)))
    rhs = complex(np.trace(apply_semigroup(schr, t, x) @ op.as_operator(y)))
    return abs(lhs - rhs)


VERIFY_TIMES = (0.1, 0.5, 1.0, 2.0)
MULT_GRID = (0.3, 0.7, 1.1)
REPEATED_TIMES = (0.3, 0.7, 1.1)


def time_scale(alpha: float) -> float:
    """k = 2^floor(log2 alpha) for alpha >= 2 and 1 otherwise: every grid time t runs as t / k."""
    return 2.0 ** np.floor(np.log2(alpha)) if alpha >= 2 else 1.0


def grid_verification(restr, cert) -> dict:
    """The verification residuals of ``cert`` evolved on the grids, keyed like ``VerificationReport``.

    f(t) = tr T^_t(nu^) with T^_t from a fresh propagator of the restriction: the
    definition and survival residuals on ``VERIFY_TIMES``, multiplicativity over
    ``MULT_GRID`` pairs, three measure-and-condition cycles at ``REPEATED_TIMES``
    and the rate against -log f(1), each time t run as t / k.
    """
    prop, nu = op.Propagator(restr.gen, restr.eig), restr.compress(cert.nu)
    alpha, k = cert.alpha, time_scale(cert.alpha)
    grid, mult = [t / k for t in VERIFY_TIMES], [t / k for t in MULT_GRID]
    times = grid + mult + [t + s for t in mult for s in mult] + [1.0 / k]
    evolved = apply_semigroup(prop, times, nu)
    f = {t: float(np.trace(x).real) for t, x in zip(times, evolved)}
    rho = nu
    for t in REPEATED_TIMES:
        rho = apply_semigroup(prop, t / k, rho)
    return {
        "residual_defn": max(frob(x / f[t] - nu) for t, x in zip(grid, evolved)),
        "residual_exp_survival": max(abs(f[t] - np.exp(-alpha * t)) for t in grid),
        "residual_mult": max(abs(f[t + s] - f[t] * f[s]) for t in mult for s in mult),
        "residual_repeated": frob(rho / np.trace(rho).real - nu),
        "alpha_log_crosscheck": abs(alpha / k + np.log(f[1.0 / k])),
    }


def nojump_generator(spec: ModelSpec) -> np.ndarray:
    """The d^2 x d^2 no-jump generator L - 1/2 {p0_perp, .}, from the textbook L."""
    perp = spec.p0_perp
    return gkls_matrix(spec.hamiltonian, spec.jump_ops) - 0.5 * (left_mul(perp) + right_mul(perp))


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


@dataclass(frozen=True)
class TrajectoryRecord:
    """One trajectory of a batch; its fields are the keys of a ``--records`` line."""

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


def records(batch) -> list:
    """The :class:`TrajectoryRecord` of each trajectory of a ``TrajectoryBatch``, in stream order."""
    at = batch.offsets
    return [
        TrajectoryRecord(
            batch.seed, batch.first_stream + i, batch.horizon,
            tuple(batch.jump_times[at[i]:at[i + 1]].tolist()), tuple(batch.post_jump_states[at[i]:at[i + 1]]),
            batch.final_states[i], float(batch.final_weights[i]), censored=True,
        )
        for i in range(len(batch))
    ]


def sample_trajectory(kernel, rho0, horizon, seed, stream: int = 0):
    """One record: the ``n = 1`` case of :func:`qsslab.trajectory.sample_trajectories`."""
    return records(sample_trajectories(kernel, rho0, horizon, seed, 1, first_stream=stream))[0]


def interjump_gaps(batch) -> np.ndarray:
    """The gaps between consecutive jumps of each trajectory, the first from t = 0,
    read off the batch's columns."""
    runs = np.split(batch.jump_times, batch.offsets[1:-1])
    return np.concatenate([np.diff(times, prepend=0.0) for times in runs])


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
