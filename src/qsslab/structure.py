"""Subharmonicity, restricted generators, absorption and irreducibility.

Given a model whose distinguished projection p0 is subharmonic, the state
evolution compressed to the range of p0-perp is again a semigroup; its
generator (in both pictures) is built here together with the absorption
operator A(p0) = lim_t T_t(p0) and an invariant-subspace search used to
classify the restriction as irreducible or not.  :class:`Analysis` builds
each of them once per model.  Everything past the generator itself is read
off the m^2 x m^2 restriction: no d^2 x d^2 matrix is eigendecomposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import operators as op
from .model import (
    HEISENBERG,
    SCHRODINGER,
    ModelSpec,
    Superop,
    apply_semigroup,
    build_generator,
    left_mul,
    right_mul,
    sandwich,
)
from .operators import adjoint, devectorize, frob, vectorize

SUBHARMONIC_CHECK_TIMES = (0.1, 0.5, 1.0, 5.0)
ABSORPTION_DOUBLING_CAP = 2.0**40
ABSORBING_NORM_TOL = 1e-6


class StructureError(RuntimeError):
    pass


@dataclass(frozen=True)
class SubharmonicReport:
    algebraic_residual: float
    semigroup_residual: float
    verdict: bool


@dataclass(frozen=True)
class RestrictedGenerator:
    """Compression of the semigroup to the range of p0-perp.

    ``isometry`` has the orthonormal basis of range(p0_perp) as columns;
    ``gen_schr`` / ``gen_heis`` are the m^2 x m^2 generator matrices of the
    compressed state / observable evolution, carrying the right and the left
    vectors of one eigensolve; ``g_hat`` and ``jumps_hat`` are the compressed
    drift and jump operators generating the same semigroup.
    """

    spec: ModelSpec
    m: int
    isometry: np.ndarray
    gen_schr: Superop
    gen_heis: Superop
    g_hat: np.ndarray
    jumps_hat: tuple

    def compress(self, x: np.ndarray) -> np.ndarray:
        v = self.isometry
        return v.conj().T @ np.asarray(x, dtype=complex) @ v

    def embed(self, x: np.ndarray) -> np.ndarray:
        v = self.isometry
        return v @ np.asarray(x, dtype=complex) @ v.conj().T

    def apply_gen(self, rho_hat: np.ndarray) -> np.ndarray:
        return devectorize(self.gen_schr.mat @ vectorize(rho_hat))

    def evolve(self, t, rho_hat: np.ndarray) -> np.ndarray:
        return apply_semigroup(self.gen_schr, t, rho_hat)


@dataclass(frozen=True)
class AbsorptionReport:
    a_op: np.ndarray
    is_absorbing: bool
    residual_harmonic: float
    convergence_gap: float


@dataclass(frozen=True)
class IrreducibilityReport:
    verdict: bool
    witness: Optional[np.ndarray]  # d x k orthonormal basis of an invariant subspace
    note: str


@dataclass(frozen=True, eq=False)
class Analysis:
    """What ``analyze`` derives from one model, each object built on first use.

    ``schr`` is the d^2 x d^2 Schroedinger generator; the restriction
    compresses it and the sampler's kernels shift it, but nothing
    eigendecomposes it.  The stage functions below take an ``Analysis`` or a
    bare ``ModelSpec``, which gets a fresh context.
    """

    spec: ModelSpec

    @cached_property
    def schr(self) -> Superop:
        return build_generator(self.spec, SCHRODINGER)

    @cached_property
    def subharmonic(self) -> SubharmonicReport:
        return check_subharmonic(self)

    @cached_property
    def restriction(self) -> RestrictedGenerator:
        return restrict(self)

    @cached_property
    def absorption(self) -> AbsorptionReport:
        return absorption_operator(self)


def as_analysis(model) -> Analysis:
    return model if isinstance(model, Analysis) else Analysis(model)


def _algebraic_residual(spec: ModelSpec) -> tuple:
    """``(residual, ok)``: how far range(p0) is from invariant under G and every jump.

    For a projection this criterion is exact (Fagnola & Rebolledo, J. Math.
    Phys. 43, 2002): ``ok`` decides subharmonicity.
    """
    p0, perp = spec.p0, spec.p0_perp
    residual = frob(perp @ spec.effective_drift() @ p0)
    for l in spec.jump_ops:
        residual = max(residual, frob(perp @ l @ p0))
    return residual, residual <= 1e-10 * max(1.0, frob(spec.hamiltonian))


def check_subharmonic(model) -> SubharmonicReport:
    """Decide whether p0 is subharmonic, algebraically and dynamically.

    Algebraic criterion: the range of p0 is invariant under every jump
    operator and under the drift G.  Dynamical criterion: T_t(p0) >= p0 at a
    few sample times, read off the restriction as
    T_t(p0) - p0 = V (1_m - T^*_t(1_m)) V^dag; ``semigroup_residual`` is the
    smallest eigenvalue (at most 0), or nan when the algebraic criterion
    already fails and no restriction exists.  The verdict requires both.
    """
    ctx = as_analysis(model)
    residual, ok = _algebraic_residual(ctx.spec)
    semigroup_residual = np.nan
    if ok:
        heis = ctx.restriction.gen_heis
        one = np.eye(heis.dim)
        diff = one - apply_semigroup(heis, SUBHARMONIC_CHECK_TIMES, one)
        w = np.linalg.eigvalsh(0.5 * (diff + adjoint(diff)))
        semigroup_residual = min(0.0, float(np.min(w[:, 0])))
    return SubharmonicReport(
        algebraic_residual=residual,
        semigroup_residual=semigroup_residual,
        verdict=ok and semigroup_residual >= -op.TOL_PSD,
    )


def _perp_isometry(spec: ModelSpec) -> np.ndarray:
    """Orthonormal basis of range(p0_perp) as columns of a d x m matrix.

    When p0 is (numerically) a 0/1 diagonal matrix the canonical basis
    vectors are used in index order, so restricted matrices line up with
    hand computations in the standard basis.
    """
    d = spec.dim
    perp = spec.p0_perp
    diag = np.diag(np.diag(perp))
    if frob(perp - diag) <= 1e-12:
        cols = [i for i in range(d) if perp[i, i].real > 0.5]
        v = np.zeros((d, len(cols)), dtype=complex)
        for j, i in enumerate(cols):
            v[i, j] = 1.0
        return v
    w, vecs = np.linalg.eigh(0.5 * (perp + adjoint(perp)))
    return vecs[:, w > 0.5]


def restrict(model) -> RestrictedGenerator:
    """Build the compressed generator on range(p0_perp) in both pictures.

    Gated on the algebraic criterion alone, since the dynamical one is
    evaluated on this restriction.  One ``op.eig_general`` solve with left
    vectors gives ``gen_schr`` its right pairs (w, V_R) and ``gen_heis`` =
    ``gen_schr^dag`` its pairs (conj(w), V_L); they serve the candidates,
    the absorption projector and both propagators.
    """
    ctx = as_analysis(model)
    spec = ctx.spec
    residual, ok = _algebraic_residual(spec)
    if not ok:
        raise StructureError(
            "restriction undefined: p0 is not subharmonic "
            f"(algebraic residual {residual:.3e})"
        )
    v = _perp_isometry(spec)
    m = v.shape[1]
    compress_mat = sandwich(v.conj().T, v)  # x -> V^dag x V
    embed_mat = sandwich(v, v.conj().T)  # x -> V x V^dag
    gen_schr = compress_mat @ ctx.schr.mat @ embed_mat

    g_hat = v.conj().T @ spec.effective_drift() @ v
    jumps_hat = tuple(v.conj().T @ l @ v for l in spec.jump_ops)
    # same semigroup from the compressed GKLS data: G rho + rho G^dag + sum L rho L^dag
    gkls_form = left_mul(g_hat) + right_mul(adjoint(g_hat))
    for l in jumps_hat:
        gkls_form = gkls_form + sandwich(l, adjoint(l))
    defect = frob(gen_schr - gkls_form)
    if defect > op.TOL_EIG * max(1.0, frob(gen_schr)):
        raise StructureError(
            f"restricted generator inconsistent with compressed GKLS form: {defect:.3e}"
        )
    w, vl, vr = op.eig_general(gen_schr, left=True)
    return RestrictedGenerator(
        spec=spec,
        m=m,
        isometry=v,
        gen_schr=Superop(mat=gen_schr, picture=SCHRODINGER, dim=m, eig=(w, vr)),
        gen_heis=Superop(mat=adjoint(gen_schr), picture=HEISENBERG, dim=m, eig=(w.conj(), vl)),
        g_hat=g_hat,
        jumps_hat=jumps_hat,
    )


def absorption_operator(model) -> AbsorptionReport:
    """A(p0) = lim_t T_t(p0), via the peripheral spectral component.

    For subharmonic p0, 0 <= T_t(p0_perp) <= p0_perp forces
    T_t(p0_perp) = V T^*_t(1_m) V^dag, so A(p0) = 1 - V P(1_m) V^dag with P
    the spectral projector of the restricted Heisenberg generator H onto its
    kernel, P = V_k (U_k^dag V_k)^-1 U_k^dag.  V_k and U_k are H's right and
    left eigenvectors with |w| <= 1e-9 * scale, from the restriction's one
    solve.  Unlike V^-1, this needs no inverse of a possibly ill-conditioned
    eigenbasis; an empty kernel (absorbing p0) gives A(p0) = 1 exactly.
    Purely imaginary peripheral eigenvalues are dropped, which realizes the
    Cesaro time average.  The result is cross-validated against direct
    evaluation of T^*_t(1_m) with time doubling.
    """
    ctx = as_analysis(model)
    spec = ctx.spec
    if not ctx.subharmonic.verdict:
        raise StructureError("absorption operator requires a subharmonic p0")
    restr = ctx.restriction
    heis, one = restr.gen_heis, np.eye(restr.m)
    (w, v), u = heis.eig, restr.gen_schr.eig[1]
    keep = np.abs(w) <= 1e-9 * max(1.0, frob(heis.mat))
    v_k, u_k_adj = v[:, keep], adjoint(u[:, keep])
    try:
        coef = np.linalg.solve(u_k_adj @ v_k, u_k_adj @ vectorize(one))
    except np.linalg.LinAlgError as exc:
        raise op.EigenSolveError(f"kernel projector of the Heisenberg generator: {exc}") from exc
    pi_one = devectorize(v_k @ coef)
    pi_one = 0.5 * (pi_one + adjoint(pi_one))
    a_op = np.eye(spec.dim) - restr.embed(pi_one)

    # T^*_t(1_m) at t = 1, 2, 4, ..., 2 * cap, eight times per call: on the
    # expm fallback each time costs a scaling-and-squaring, so stop early
    times = 2.0 ** np.arange(int(np.log2(ABSORPTION_DOUBLING_CAP)) + 2)
    evolved = (
        pair for k in range(0, len(times), 8)
        for pair in zip(times[k:k + 8], apply_semigroup(heis, times[k:k + 8], one))
    )
    (_, prev), gap = next(evolved), np.inf
    for t, cur in evolved:
        gap = frob(cur - prev)
        prev = cur
        if gap <= 1e-8:
            break
    else:
        raise StructureError(
            f"T_t(p0) did not converge: gap {gap:.3e} at t={t:g} (cap {ABSORPTION_DOUBLING_CAP:g})"
        )
    direct_gap = frob(pi_one - prev)
    if direct_gap > 1e-6:
        raise StructureError(
            f"spectral and semigroup limits disagree: {direct_gap:.3e}"
        )
    residual_harmonic = frob(devectorize(adjoint(ctx.schr.mat) @ vectorize(a_op)))
    is_absorbing = frob(a_op - np.eye(spec.dim)) <= ABSORBING_NORM_TOL
    return AbsorptionReport(
        a_op=a_op,
        is_absorbing=is_absorbing,
        residual_harmonic=residual_harmonic,
        convergence_gap=gap,
    )


def _invariant_closure(ops, seed: np.ndarray, dim: int, tol: float = 1e-10) -> np.ndarray:
    """Smallest subspace containing ``seed`` invariant under all ``ops``.

    Grown by repeated application and re-orthonormalization until the
    dimension stabilizes; returns an orthonormal basis (columns).
    """
    basis = seed.reshape(dim, 1) / np.linalg.norm(seed)
    while True:
        images = [basis] + [a @ basis for a in ops]
        stacked = np.hstack(images)
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        rank = int(np.sum(s > tol * max(1.0, s[0])))
        new_basis = u[:, :rank]
        if rank == basis.shape[1]:
            return new_basis
        basis = new_basis


def check_irreducible(restr: RestrictedGenerator, n_random_seeds: int = 8) -> IrreducibilityReport:
    """Search for a common invariant subspace of g_hat and the jump operators.

    Seeds are the eigenvectors of g_hat plus a fixed number of eigenvectors
    of random Hermitian combinations of the operators (fixed RNG seed, so the
    search is reproducible).  A proper closure is a witness of reducibility;
    if no witness is found the restriction is reported irreducible.
    """
    m = restr.m
    ops = [restr.g_hat] + list(restr.jumps_hat)
    seeds = []
    _, eigvecs = np.linalg.eig(restr.g_hat)
    seeds.extend(eigvecs[:, j] for j in range(m))
    rng = np.random.default_rng(782133)
    for _ in range(n_random_seeds):
        combo = np.zeros((m, m), dtype=complex)
        for a in ops:
            c = rng.standard_normal() + 1j * rng.standard_normal()
            combo = combo + c * a
        herm = combo + adjoint(combo)
        _, hv = np.linalg.eigh(herm)
        seeds.append(hv[:, -1])
    for seed in seeds:
        if np.linalg.norm(seed) < 1e-12:
            continue
        closure = _invariant_closure(ops, seed, m)
        if closure.shape[1] < m:
            return IrreducibilityReport(
                verdict=False,
                witness=closure,
                note=f"invariant subspace of dimension {closure.shape[1]} found",
            )
    return IrreducibilityReport(
        verdict=True, witness=None, note="irreducible (no witness found)"
    )
