"""Full-space oracle for what ``analyze`` reads off the restriction.

``analyze`` builds no d^2 x d^2 matrix and evolves nothing: the restriction
comes from the compressed GKLS data, subharmonicity from the algebraic
criterion, the absorption limit from the restriction's kernel and the
verification bounds from one residual.  These tests compress the full
generator ``gkls_matrix`` as an oracle for the restriction, check
T_t(p0) >= p0 with ``scipy.linalg.expm`` of the full Heisenberg matrix, and
evolve the verification grids with the full Schroedinger matrix, sharing no
propagator with the package: the restricted grid oracle must agree with them,
and the reported bounds must dominate them.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from helpers import fast_decay_model, rotated
from propcheck import random_subharmonic_model
from qsslab import operators as op
from qsslab.model import (
    sandwich,
    two_qubit_both,
    two_qubit_site1,
)
from oracles import MULT_GRID, REPEATED_TIMES, VERIFY_TIMES, full_generator, gkls_matrix, grid_verification, time_scale
from qsslab.qss import extract_qss, verify_qss
from qsslab.structure import check_subharmonic, restrict

AGREE = 1e-10
SUBHARMONIC_TIMES = (0.1, 0.5, 1.0, 5.0)


def _evolve(gen: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
    return op.devectorize(sla.expm(t * gen) @ op.vectorize(x))


def full_space_verification(spec, nu, alpha) -> dict:
    """The grid residuals of ``oracles.grid_verification`` from exp(t S) of the full
    Schroedinger matrix S, each time t run as t / k."""
    schr, perp = full_generator(spec), spec.p0_perp
    k = time_scale(alpha)

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
    heis, p0 = op.adjoint(full_generator(spec)), spec.p0
    out = []
    for t in SUBHARMONIC_TIMES:
        diff = _evolve(heis, t, p0) - p0
        out.append(float(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0]))
    return out


def _random_models():
    rng = np.random.default_rng(20261018)
    return [random_subharmonic_model(rng) for _ in range(5)] + [random_subharmonic_model(rng, d=8, rank=4)]


# site1 at omega = 0 has a dark state, so T_t(p0) - p0 is singular on
# range(p0_perp) and its smallest eigenvalue sits at 0 from both sides
MODELS = [two_qubit_site1(0.3), two_qubit_site1(1.0), two_qubit_both(0.3), two_qubit_both(1.0),
          two_qubit_site1(0.0)] + _random_models()
IDS = ["site1-0.3", "site1-1", "both-0.3", "both-1", "site1-dark"] + [f"random-{k}" for k in range(5)] + ["random-d8"]
FAST = fast_decay_model(two_qubit_site1, 40)  # alpha ~ 1600: certified for t <= 2.2 / 1024
ROTATED = rotated(random_subharmonic_model(np.random.default_rng(7), d=5, rank=2), seed=8)


@pytest.mark.parametrize("spec", MODELS + [ROTATED], ids=IDS + ["random-rotated"])
def test_restriction_is_the_compressed_full_generator(spec):
    # the restriction is built from g_hat and the compressed jumps only; the
    # full generator compressed through V must give the same matrix
    restr = restrict(spec)
    v = restr.isometry
    if spec is ROTATED:
        assert op.frob(spec.p0 - np.diag(np.diag(spec.p0))) > 1e-3  # the eigh isometry path
    full = gkls_matrix(spec.hamiltonian, spec.jump_ops)
    ref = sandwich(v.conj().T, v) @ full @ sandwich(v, v.conj().T)
    assert op.frob(restr.gen - ref) <= op.TOL_EIG * max(1.0, op.frob(ref))


@pytest.mark.parametrize("spec", MODELS + [ROTATED], ids=IDS + ["random-rotated"])
def test_subharmonic_verdict_matches_the_full_space_semigroup(spec):
    # the algebraic criterion decides; T_t(p0) >= p0 must hold on the full space
    assert check_subharmonic(spec).verdict
    assert min(full_space_semigroup_eigenvalues(spec)) >= -1e-9


@pytest.mark.parametrize("spec", MODELS + [FAST], ids=IDS + ["site1-x40"])
def test_reported_bounds_dominate_the_full_space_grids(spec):
    restr = restrict(spec)
    families = extract_qss(restr).families
    assert families
    for fam in families:
        report = verify_qss(fam.anchor)
        restricted = grid_verification(restr, fam.anchor)
        # the full-space expm is accurate to AGREE only (1.4e-13 at x40, above the
        # bound): the restricted grids must dominate exactly (test_qss), these to AGREE
        for key, want in full_space_verification(spec, fam.anchor.nu, fam.alpha).items():
            assert abs(restricted[key] - want) <= AGREE, key
            assert want <= getattr(report, key) + AGREE, key
