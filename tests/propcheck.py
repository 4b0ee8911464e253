"""Shared randomized property checks used by the unit and acceptance suites.

Random models are built subharmonic by construction: the jump operators are
block lower triangular with respect to the (p0, p0-perp) splitting, and the
Hamiltonian off-diagonal block is chosen to cancel the drift leakage
G[perp, p0] = -i H[perp, p0] - 1/2 (sum L^dag L)[perp, p0] exactly.
"""

import numpy as np
import scipy.linalg as sla

from qsslab import operators as op
from qsslab.model import ModelSpec, apply_semigroup, build_generator
from qsslab.qss import extract_qss, real_eigen_candidates
from qsslab.structure import restrict

from oracles import duality_check, gen_tilde


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_hermitian(rng, d):
    a = _rand_complex(rng, (d, d))
    return 0.5 * (a + a.conj().T)


def random_density(rng, d):
    a = _rand_complex(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_subharmonic_model(rng, d=None, rank=None):
    d = int(rng.integers(2, 5)) if d is None else d
    rank = int(rng.integers(1, d)) if rank is None else rank
    n_jumps = int(rng.integers(1, 4))
    jumps = []
    for _ in range(n_jumps):
        l = _rand_complex(rng, (d, d))
        l[rank:, :rank] = 0.0  # keep range(p0) invariant
        jumps.append(l / np.linalg.norm(l))
    k = sum(l.conj().T @ l for l in jumps)
    h = _rand_hermitian(rng, d)
    h = h / np.linalg.norm(h)
    x = 0.5j * k[rank:, :rank]  # cancels the drift leakage into range(p0)
    h[rank:, :rank] = x
    h[:rank, rank:] = x.conj().T
    p0 = np.zeros((d, d), dtype=complex)
    for i in range(rank):
        p0[i, i] = 1.0
    return ModelSpec(dim=d, hamiltonian=h, jump_ops=tuple(jumps), p0=p0)


def check_duality(spec, rng):
    x = random_density(rng, spec.dim)
    y = _rand_hermitian(rng, spec.dim)
    t = float(rng.uniform(0.1, 1.5))
    return duality_check(spec, t, x, y)


def check_density_preservation(spec, rng):
    prop = op.Propagator(build_generator(spec))
    rho = random_density(rng, spec.dim)
    t = float(rng.uniform(0.1, 1.5))
    op.validate_density(apply_semigroup(prop, t, rho), tol_psd=1e-9, tol_trace=1e-10)


def check_tilde_trace(spec, rng):
    rho = random_density(rng, spec.dim)
    t = float(rng.uniform(0.1, 2.0))
    evolved = apply_semigroup(op.Propagator(gen_tilde(spec)), t, rho)
    return abs(np.trace(evolved).real - 1.0)


def check_restrict_embed(spec, rng):
    restr = restrict(spec)
    rho_hat = _rand_hermitian(rng, restr.m)
    t = float(rng.uniform(0.1, 1.5))
    full = apply_semigroup(op.Propagator(build_generator(spec)), t, restr.embed(rho_hat))
    perp = spec.p0_perp
    corner = perp @ full @ perp
    hat = restr.embed(apply_semigroup(restr.propagator, t, rho_hat))
    return float(np.linalg.norm(corner - hat))


def scaled_model(spec, c):
    return ModelSpec(
        dim=spec.dim,
        hamiltonian=c * spec.hamiltonian,
        jump_ops=tuple(np.sqrt(c) * l for l in spec.jump_ops),
        p0=spec.p0,
    )


def check_rate_scaling(spec, c=1.7):
    """alpha scales with the rates, the states do not."""
    base = extract_qss(real_eigen_candidates(restrict(spec)))
    scaled = extract_qss(real_eigen_candidates(restrict(scaled_model(spec, c))))
    if len(base.families) != len(scaled.families):
        return np.inf
    worst = 0.0
    for fb, fs in zip(base.families, scaled.families):
        worst = max(worst, abs(fs.alpha - c * fb.alpha) / max(1.0, abs(c * fb.alpha)))
        worst = max(worst, float(np.linalg.norm(fs.anchor.nu - fb.anchor.nu)))
    return worst


def run_property_case(rng):
    spec = random_subharmonic_model(rng)
    results = {
        "duality": check_duality(spec, rng),
        "tilde_trace": check_tilde_trace(spec, rng),
        "restrict_embed": check_restrict_embed(spec, rng),
    }
    check_density_preservation(spec, rng)
    return spec, results


# ---------------------------------------------------------------------------
# Brute-force grid oracle on d = 3 models with a 2-dimensional survivor block
# ---------------------------------------------------------------------------

def _bloch_state(x, y, z):
    return 0.5 * np.array(
        [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex
    )


def _conditional_residual(propagator, perp, nu_full, t_index=0):
    evolved = op.devectorize(propagator @ op.vectorize(nu_full))
    corner = perp @ evolved @ perp
    tr = np.trace(corner).real
    if tr <= 1e-12:
        return np.inf
    return float(np.linalg.norm(corner / tr - nu_full))


def grid_oracle_case(seed, grid_n=21, t=0.8, residual_cut=1e-4):
    """Compare pipeline QSS output with a Bloch-ball grid search.

    Returns (worst pipeline residual, worst distance of a grid hit to the
    pipeline family set, grid step).  The grid search uses the full-space
    semigroup via scipy's expm only, independently of the restricted-spectrum
    pipeline.
    """
    rng = np.random.default_rng(seed)
    spec = random_subharmonic_model(rng, d=3, rank=1)
    propagator = sla.expm(t * build_generator(spec))
    perp = spec.p0_perp

    restr = restrict(spec)
    result = extract_qss(real_eigen_candidates(restr))

    states = []
    for fam in result.families:
        states.append(fam.anchor.nu)
        states.extend(c.nu for c in fam.endpoints)
    segments = []
    for fam in result.families:
        if fam.param_interval is not None and len(fam.endpoints) == 2:
            segments.append((fam.endpoints[0].nu, fam.endpoints[1].nu))

    worst_pipeline = 0.0
    for nu in states:
        worst_pipeline = max(
            worst_pipeline, _conditional_residual(propagator, perp, nu)
        )

    def distance_to_families(nu):
        if not states:
            return np.inf
        best = min(float(np.linalg.norm(nu - s)) for s in states)
        for a, b in segments:
            direction = b - a
            denom = np.vdot(direction, direction).real
            if denom > 1e-20:
                s = np.clip(np.vdot(direction, nu - a).real / denom, 0.0, 1.0)
                best = min(best, float(np.linalg.norm(a + s * direction - nu)))
        return best

    axis = np.linspace(-1.0, 1.0, grid_n)
    step = axis[1] - axis[0]
    worst_distance = 0.0
    embed_mat = np.zeros((3, 2), dtype=complex)
    embed_mat[1, 0] = embed_mat[2, 1] = 1.0
    for x in axis:
        for y in axis:
            for z in axis:
                if x * x + y * y + z * z > 1.0:
                    continue
                nu = embed_mat @ _bloch_state(x, y, z) @ embed_mat.conj().T
                if _conditional_residual(propagator, perp, nu) <= residual_cut:
                    worst_distance = max(worst_distance, distance_to_families(nu))
    return worst_pipeline, worst_distance, float(step)
