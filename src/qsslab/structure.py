"""Subharmonicity, restricted generators, absorption and irreducibility.

Given a model whose distinguished projection p0 is subharmonic, the state
evolution compressed to the range of p0-perp is again a semigroup; its
generator (in both pictures) is built here together with the absorption
operator A(p0) = lim_t T_t(p0) and an invariant-subspace search used to
classify the restriction as irreducible or not.  :class:`Analysis` builds
each of them once per model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    compressed state / observable evolution; ``g_hat`` and ``jumps_hat`` are
    the compressed drift and jump operators generating the same semigroup.
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

    def evolve(self, t: float, rho_hat: np.ndarray) -> np.ndarray:
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

    ``schr`` and ``heis`` share one eigensolve of the Schroedinger matrix S:
    its right pairs (w, V_R) serve ``schr``, and its left vectors V_L, the
    right eigenvectors of H = S^dag for conj(w), serve ``heis``.  Each
    generator builds its propagator on first use from its pair.  The stage
    functions below take an ``Analysis`` or a bare ``ModelSpec``, which gets
    a fresh context.
    """

    spec: ModelSpec

    @cached_property
    def _pictures(self) -> tuple:
        schr = build_generator(self.spec, SCHRODINGER)
        # H = S^dag satisfies the conjugate of the Schroedinger picture check
        heis = Superop(mat=adjoint(schr.mat), picture=HEISENBERG, dim=self.spec.dim)
        w, vl, vr = op.eig_left_right(schr.mat)
        return replace(schr, eig=(w, vr)), replace(heis, eig=(w.conj(), vl))

    @property
    def schr(self) -> Superop:
        return self._pictures[0]

    @property
    def heis(self) -> Superop:
        return self._pictures[1]

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


def check_subharmonic(model) -> SubharmonicReport:
    """Decide whether p0 is subharmonic, algebraically and dynamically.

    Algebraic criterion: the range of p0 is invariant under every jump
    operator and under the drift G.  Dynamical criterion: T_t(p0) >= p0 at a
    few sample times.  The verdict requires both.
    """
    ctx = as_analysis(model)
    spec = ctx.spec
    p0, perp = spec.p0, spec.p0_perp
    residual = frob(perp @ spec.effective_drift() @ p0)
    for l in spec.jump_ops:
        residual = max(residual, frob(perp @ l @ p0))
    semigroup_residual = 0.0
    for t in SUBHARMONIC_CHECK_TIMES:
        diff = apply_semigroup(ctx.heis, t, p0) - p0
        w = np.linalg.eigvalsh(0.5 * (diff + adjoint(diff)))
        semigroup_residual = min(semigroup_residual, float(w[0]))
    verdict = residual <= 1e-10 * max(1.0, frob(spec.hamiltonian)) and (
        semigroup_residual >= -op.TOL_PSD
    )
    return SubharmonicReport(
        algebraic_residual=residual,
        semigroup_residual=semigroup_residual,
        verdict=verdict,
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

    ``gen_schr`` carries its ``op.eig_general`` pair, the restriction's one
    eigensolve, which serves the candidates and the propagator alike.
    """
    ctx = as_analysis(model)
    spec, report = ctx.spec, ctx.subharmonic
    if not report.verdict:
        raise StructureError(
            "restriction undefined: p0 is not subharmonic "
            f"(algebraic residual {report.algebraic_residual:.3e})"
        )
    v = _perp_isometry(spec)
    m = v.shape[1]
    compress_mat = sandwich(v.conj().T, v)  # x -> V^dag x V
    embed_mat = sandwich(v, v.conj().T)  # x -> V x V^dag
    gen_schr = compress_mat @ ctx.schr.mat @ embed_mat

    g_hat = v.conj().T @ spec.effective_drift() @ v
    jumps_hat = tuple(v.conj().T @ l @ v for l in spec.jump_ops)
    # same semigroup from the compressed GKLS data: G rho + rho G^dag + sum L rho L^dag
    from .model import left_mul, right_mul  # local import to avoid cycle noise

    gkls_form = left_mul(g_hat) + right_mul(adjoint(g_hat))
    for l in jumps_hat:
        gkls_form = gkls_form + sandwich(l, adjoint(l))
    defect = frob(gen_schr - gkls_form)
    if defect > op.TOL_EIG * max(1.0, frob(gen_schr)):
        raise StructureError(
            f"restricted generator inconsistent with compressed GKLS form: {defect:.3e}"
        )
    return RestrictedGenerator(
        spec=spec,
        m=m,
        isometry=v,
        gen_schr=Superop(mat=gen_schr, picture=SCHRODINGER, dim=m, eig=op.eig_general(gen_schr)),
        gen_heis=Superop(mat=adjoint(gen_schr), picture=HEISENBERG, dim=m),
        g_hat=g_hat,
        jumps_hat=jumps_hat,
    )


def absorption_operator(model) -> AbsorptionReport:
    """A(p0) = lim_t T_t(p0), via the peripheral spectral component.

    The limit is the spectral projector of the Heisenberg generator H onto
    its kernel, P = V_k (U_k^dag V_k)^-1 U_k^dag, applied to vec(p0).  V_k and
    U_k are H's right and left eigenvectors with |w| <= 1e-9 * scale; U_k are
    the Schroedinger generator's right eigenvectors.  Unlike V^-1, this needs
    no inverse of a possibly ill-conditioned eigenbasis.  Purely imaginary
    peripheral eigenvalues are dropped, which realizes the Cesaro time
    average.  The result is cross-validated against direct semigroup
    evaluation with time doubling.
    """
    ctx = as_analysis(model)
    spec, heis = ctx.spec, ctx.heis
    if not ctx.subharmonic.verdict:
        raise StructureError("absorption operator requires a subharmonic p0")
    m = heis.mat
    (w, v), u = heis.eig, ctx.schr.eig[1]
    keep = np.abs(w) <= 1e-9 * max(1.0, frob(m))
    v_k, u_k_adj = v[:, keep], adjoint(u[:, keep])
    try:
        coef = np.linalg.solve(u_k_adj @ v_k, u_k_adj @ vectorize(spec.p0))
    except np.linalg.LinAlgError as exc:
        raise op.EigenSolveError(f"kernel projector of the Heisenberg generator: {exc}") from exc
    a_op = devectorize(v_k @ coef)
    a_op = 0.5 * (a_op + adjoint(a_op))

    t, gap = 1.0, np.inf
    prev = apply_semigroup(heis, t, spec.p0)
    while t <= ABSORPTION_DOUBLING_CAP:
        cur = apply_semigroup(heis, 2 * t, spec.p0)
        gap = frob(cur - prev)
        prev, t = cur, 2 * t
        if gap <= 1e-8:
            break
    else:
        raise StructureError(
            f"T_t(p0) did not converge: gap {gap:.3e} at t={t:g} (cap {ABSORPTION_DOUBLING_CAP:g})"
        )
    direct_gap = frob(a_op - prev)
    if direct_gap > 1e-6:
        raise StructureError(
            f"spectral and semigroup limits disagree: {direct_gap:.3e}"
        )
    residual_harmonic = frob(devectorize(m @ vectorize(a_op)))
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
