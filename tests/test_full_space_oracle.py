"""Full-space oracle for what ``analyze`` reads off the restriction.

``analyze`` builds no d^2 x d^2 matrix: the restriction comes from the
compressed GKLS data, subharmonicity from the algebraic criterion, and the
verification and the absorption limit run on the m^2 x m^2 restricted
generator.  These tests compress the full generator ``gkls_matrix`` as an
oracle for the restriction, check T_t(p0) >= p0 with ``scipy.linalg.expm``
of the full Heisenberg matrix, and recompute the reported verification
residuals from the full Schroedinger matrix, sharing no propagator with the
package.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from helpers import fast_decay_model
from propcheck import random_subharmonic_model
from qsslab import operators as op
from qsslab.model import (
    ModelSpec,
    build_generator,
    gkls_matrix,
    sandwich,
    two_qubit_both,
    two_qubit_site1,
)
from qsslab.qss import MULT_GRID, REPEATED_TIMES, VERIFY_TIMES, extract_qss, real_eigen_candidates, verify_qss
from qsslab.structure import Analysis

AGREE = 1e-10
SUBHARMONIC_TIMES = (0.1, 0.5, 1.0, 5.0)


def _evolve(gen: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
    return op.devectorize(sla.expm(t * gen) @ op.vectorize(x))


def full_space_verification(spec, nu, alpha) -> dict:
    """``verify_qss``'s residuals from exp(t S) of the full Schroedinger matrix S, each
    time t run as t / k, k = 2^floor(log2 alpha) for alpha >= 2 and 1 otherwise."""
    schr, perp = build_generator(spec), spec.p0_perp
    k = 2.0 ** np.floor(np.log2(alpha)) if alpha >= 2 else 1.0

    def f(t):
        return float(np.trace(_evolve(schr, t / k, nu) @ perp).real)

    defn = max(op.frob(perp @ _evolve(schr, t / k, nu) @ perp / f(t) - nu) for t in VERIFY_TIMES)
    exp_survival = max(abs(f(t) - np.exp(-alpha * t / k)) for t in VERIFY_TIMES)
    mult = max(abs(f(t + s) - f(t) * f(s)) for t in MULT_GRID for s in MULT_GRID)
    rho = nu
    for t in REPEATED_TIMES:
        rho = perp @ _evolve(schr, t / k, rho) @ perp
    return {
        "residual_defn": defn,
        "residual_exp_survival": exp_survival,
        "residual_mult": mult,
        "residual_repeated": op.frob(rho / np.trace(rho).real - nu),
        "alpha_log_crosscheck": abs(alpha / k + np.log(f(1.0))),
    }


def full_space_semigroup_eigenvalues(spec) -> list:
    """lambda_min(T_t(p0) - p0) at each check time, from exp(t H) of the full Heisenberg matrix H."""
    heis, p0 = op.adjoint(build_generator(spec)), spec.p0
    out = []
    for t in SUBHARMONIC_TIMES:
        diff = _evolve(heis, t, p0) - p0
        out.append(float(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0]))
    return out


def _random_models():
    rng = np.random.default_rng(20261018)
    return [random_subharmonic_model(rng) for _ in range(5)] + [random_subharmonic_model(rng, d=8, rank=4)]


def _rotated(spec: ModelSpec, seed: int) -> ModelSpec:
    """``spec`` with H, every L and p0 conjugated by a random unitary: p0 is not diagonal."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((spec.dim,) * 2) + 1j * rng.standard_normal((spec.dim,) * 2))

    def conj(x):
        return u @ x @ u.conj().T

    return ModelSpec(dim=spec.dim, hamiltonian=conj(spec.hamiltonian),
                     jump_ops=tuple(conj(l) for l in spec.jump_ops), p0=conj(spec.p0))


# site1 at omega = 0 has a dark state, so T_t(p0) - p0 is singular on
# range(p0_perp) and its smallest eigenvalue sits at 0 from both sides
MODELS = [two_qubit_site1(0.3), two_qubit_site1(1.0), two_qubit_both(0.3), two_qubit_both(1.0),
          two_qubit_site1(0.0)] + _random_models()
IDS = ["site1-0.3", "site1-1", "both-0.3", "both-1", "site1-dark"] + [f"random-{k}" for k in range(5)] + ["random-d8"]
FAST = fast_decay_model(two_qubit_site1, 40)  # alpha ~ 1600: verified at t / 1024
ROTATED = _rotated(random_subharmonic_model(np.random.default_rng(7), d=5, rank=2), seed=8)


@pytest.mark.parametrize("spec", MODELS + [ROTATED], ids=IDS + ["random-rotated"])
def test_restriction_is_the_compressed_full_generator(spec):
    # the restriction is built from g_hat and the compressed jumps only; the
    # full generator compressed through V must give the same matrix
    restr = Analysis(spec).restriction
    v = restr.isometry
    if spec is ROTATED:
        assert op.frob(spec.p0 - np.diag(np.diag(spec.p0))) > 1e-3  # the eigh isometry path
    full = gkls_matrix(spec.hamiltonian, spec.jump_ops)
    ref = sandwich(v.conj().T, v) @ full @ sandwich(v, v.conj().T)
    assert op.frob(restr.gen - ref) <= op.TOL_EIG * max(1.0, op.frob(ref))


@pytest.mark.parametrize("spec", MODELS + [ROTATED], ids=IDS + ["random-rotated"])
def test_subharmonic_verdict_matches_the_full_space_semigroup(spec):
    # the algebraic criterion decides; T_t(p0) >= p0 must hold on the full space
    assert Analysis(spec).subharmonic.verdict
    assert min(full_space_semigroup_eigenvalues(spec)) >= -1e-9


@pytest.mark.parametrize("spec", MODELS + [FAST], ids=IDS + ["site1-x40"])
def test_restricted_report_matches_the_full_space_oracle(spec):
    ctx = Analysis(spec)
    families = extract_qss(real_eigen_candidates(ctx.restriction)).families
    assert families
    for fam in families:
        report = verify_qss(ctx, fam.anchor)
        for key, want in full_space_verification(spec, fam.anchor.nu, fam.alpha).items():
            assert abs(getattr(report, key) - want) <= AGREE, key
