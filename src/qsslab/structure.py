"""Subharmonicity, restricted generators, absorption and irreducibility.

Given a model whose distinguished projection p0 is subharmonic, the state
evolution compressed to the range of p0-perp is again a semigroup.  Its
generator, its eigenpairs and a lazy propagator are built here from the
compressed GKLS data (g_hat, jumps_hat), together with the absorption operator
A(p0) = lim_t T_t(p0) and an irreducibility verdict certified by Burnside's
theorem.  :class:`Analysis` builds each of them once per model.  None of
these stages builds a d^2 x d^2 matrix: everything is read off the m x m
compressed operators and the m^2 x m^2 restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import operators as op
from .model import ModelSpec, apply_semigroup, left_mul, right_mul, sandwich
from .operators import adjoint, devectorize, frob, vectorize

ABSORPTION_DOUBLING_CAP = 2.0**40
ABSORBING_NORM_TOL = 1e-6
CLOSURE_TOL = 1e-10  # relative rank cut of invariant closures and algebra spans


class StructureError(RuntimeError):
    pass


@dataclass(frozen=True)
class SubharmonicReport:
    algebraic_residual: float
    verdict: bool


@dataclass(frozen=True)
class RestrictedGenerator:
    """Compression of the semigroup to the range of p0-perp.

    ``isometry`` has the orthonormal basis of range(p0_perp) as columns;
    ``gen`` is the m^2 x m^2 generator matrix of the compressed state
    evolution and ``eig`` its eigenpairs ``op.eig_general(gen)``;
    ``g_hat`` and ``jumps_hat`` are the compressed drift and jump operators
    that define it.  The observable evolution is ``propagator.adjoint()``.
    """

    spec: ModelSpec
    m: int
    isometry: np.ndarray
    gen: np.ndarray
    eig: tuple
    g_hat: np.ndarray
    jumps_hat: tuple

    @cached_property
    def propagator(self) -> op.Propagator:
        """Serves every exp(t * gen) from ``eig``; built on first use."""
        return op.Propagator(self.gen, self.eig)

    def compress(self, x: np.ndarray) -> np.ndarray:
        v = self.isometry
        return v.conj().T @ np.asarray(x, dtype=complex) @ v

    def embed(self, x: np.ndarray) -> np.ndarray:
        v = self.isometry
        return v @ np.asarray(x, dtype=complex) @ v.conj().T


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

    The stage functions below take an ``Analysis`` or a bare ``ModelSpec``,
    which gets a fresh context.
    """

    spec: ModelSpec

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
    """Decide whether p0 is subharmonic by the algebraic criterion.

    The range of p0 must be invariant under every jump operator and under
    the drift G.  For a projection this is equivalent to T_t(p0) >= p0 for
    all t >= 0, so the verdict needs no evolution.
    """
    residual, ok = _algebraic_residual(as_analysis(model).spec)
    return SubharmonicReport(algebraic_residual=residual, verdict=ok)


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
    """Build the compressed generator on range(p0_perp).

    Gated on the algebraic subharmonicity criterion.  The restriction is
    defined by the compressed GKLS data g_hat = V^dag G V and
    L_hat = V^dag L V: x -> g_hat x + x g_hat^dag + sum_k L_hat x L_hat^dag,
    at O(m^6) and without the d^2 x d^2 generator.  One right eigensolve
    ``op.eig_general`` gives ``gen`` its pairs (w, V), which serve every
    later stage; the Heisenberg evolution adjoins the propagator built from
    them (eigenvectors V^-dag, inverse V^dag), with no second solve.
    """
    spec = as_analysis(model).spec
    residual, ok = _algebraic_residual(spec)
    if not ok:
        raise StructureError(
            "restriction undefined: p0 is not subharmonic "
            f"(algebraic residual {residual:.3e})"
        )
    v = _perp_isometry(spec)
    m = v.shape[1]
    g_hat = v.conj().T @ spec.effective_drift() @ v
    jumps_hat = tuple(v.conj().T @ l @ v for l in spec.jump_ops)
    gen = left_mul(g_hat) + right_mul(adjoint(g_hat))
    for l in jumps_hat:
        gen = gen + sandwich(l, adjoint(l))
    return RestrictedGenerator(
        spec=spec,
        m=m,
        isometry=v,
        gen=gen,
        eig=op.eig_general(gen),
        g_hat=g_hat,
        jumps_hat=jumps_hat,
    )


def absorption_operator(model) -> AbsorptionReport:
    """A(p0) = lim_t T_t(p0), via the peripheral spectral component.

    For subharmonic p0, 0 <= T_t(p0_perp) <= p0_perp forces
    T_t(p0_perp) = V T^*_t(1_m) V^dag, so A(p0) = 1 - V P(1_m) V^dag with P
    the spectral projector of the restricted Heisenberg generator onto its
    kernel, the adjoint of gen's V_R[:, k] V_R^-1[k, :] for the
    eigenvalues k with |w| <= 1e-9 * scale: P(1_m) =
    V_R^-1[k, :]^dag (V_R[:, k]^dag vec 1_m), no solve.  An empty kernel
    (absorbing p0) gives A(p0) = 1 exactly; a non-empty one with singular
    V_R raises ``EigenSolveError``.  Dropping purely imaginary peripheral
    eigenvalues realizes the Cesaro time average.  Time doubling of
    T^*_t(1_m) cross-validates the result.  ``residual_harmonic`` is
    ||L^*(A(p0))|| in d x d form, L^*(A) = G^dag A + A G + sum_k L_k^dag A L_k.
    """
    ctx = as_analysis(model)
    spec = ctx.spec
    if not ctx.subharmonic.verdict:
        raise StructureError("absorption operator requires a subharmonic p0")
    restr = ctx.restriction
    prop, one = restr.propagator, np.eye(restr.m)
    keep = np.abs(prop.w) <= 1e-9 * max(1.0, frob(restr.gen))
    pi_one = np.zeros_like(one, dtype=complex)
    if keep.any():
        if prop.v_inv is None:
            raise op.EigenSolveError("Heisenberg kernel projector: singular eigenbasis")
        coef = adjoint(prop.v[:, keep]) @ vectorize(one)
        pi_one = devectorize(adjoint(prop.v_inv[keep]) @ coef)
    pi_one = 0.5 * (pi_one + adjoint(pi_one))
    a_op = np.eye(spec.dim) - restr.embed(pi_one)

    # T^*_t(1_m) at t = 1, 2, 4, ..., 2 * cap, eight times per call: on the
    # expm fallback each time costs a scaling-and-squaring, so stop early
    times = 2.0 ** np.arange(int(np.log2(ABSORPTION_DOUBLING_CAP)) + 2)
    heis = prop.adjoint()
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
        raise StructureError(f"spectral and semigroup limits disagree: {direct_gap:.3e}")
    g = spec.effective_drift()
    residual_harmonic = frob(
        adjoint(g) @ a_op + a_op @ g + sum(adjoint(l) @ a_op @ l for l in spec.jump_ops)
    )
    is_absorbing = frob(a_op - np.eye(spec.dim)) <= ABSORBING_NORM_TOL
    return AbsorptionReport(
        a_op=a_op,
        is_absorbing=is_absorbing,
        residual_harmonic=residual_harmonic,
        convergence_gap=gap,
    )


def _invariant_closure(ops, seed: np.ndarray, dim: int) -> np.ndarray:
    """Smallest subspace containing ``seed`` invariant under all ``ops``.

    Grown by repeated application and re-orthonormalization until the
    dimension stabilizes; returns an orthonormal basis (columns).
    """
    basis = seed.reshape(dim, 1) / np.linalg.norm(seed)
    while True:
        u, s, _ = np.linalg.svd(np.hstack([basis] + [a @ basis for a in ops]), full_matrices=False)
        rank = int(np.sum(s > CLOSURE_TOL * max(1.0, s[0])))
        if rank == basis.shape[1]:
            return u[:, :rank]
        basis = u[:, :rank]


def algebra_dimension(ops) -> int:
    """Dimension of the unital algebra generated by the m x m matrices ``ops``.

    The span (matrices as vectors) starts at the identity.  Each round
    left-multiplies only the directions the last round added by every
    generator, orthogonalizes the images twice against the current basis,
    and keeps as new directions the left singular vectors above
    ``CLOSURE_TOL * max(1, max ||op||)``, until a round adds nothing.
    """
    m = ops[0].shape[0]
    cut = CLOSURE_TOL * max(1.0, max(frob(a) for a in ops))
    basis = np.eye(m, dtype=complex).reshape(m * m, 1) / np.sqrt(m)
    new = basis.T
    while len(new) and basis.shape[1] < m * m:
        images = np.concatenate([a @ new.reshape(-1, m, m) for a in ops]).reshape(-1, m * m).T
        for _ in range(2):
            images = images - basis @ (adjoint(basis) @ images)
        u, s, _ = np.linalg.svd(images, full_matrices=False)
        new = u[:, s > cut].T
        basis = np.hstack([basis, new.T])
    return basis.shape[1]


def _witness_search(restr: RestrictedGenerator) -> Optional[np.ndarray]:
    """A proper subspace invariant under g_hat and the jumps, or None if none is found.

    Seeds are the eigenvectors of g_hat, then the top eigenvectors of eight
    random Hermitian combinations of the operators (fixed RNG seed, so the
    search is reproducible), drawn only when the eigenvectors give no proper
    closure.
    """
    ops = [restr.g_hat] + list(restr.jumps_hat)

    def seeds():
        yield from np.linalg.eig(restr.g_hat)[1].T
        rng = np.random.default_rng(782133)
        for _ in range(8):
            combo = sum((rng.standard_normal() + 1j * rng.standard_normal()) * a for a in ops)
            yield np.linalg.eigh(combo + adjoint(combo))[1][:, -1]

    for seed in seeds():
        closure = _invariant_closure(ops, seed, restr.m)
        if closure.shape[1] < restr.m:
            return closure
    return None


def check_irreducible(restr: RestrictedGenerator) -> IrreducibilityReport:
    """Decide whether g_hat and the jump operators have a common invariant subspace.

    Burnside's theorem: they have none iff the unital algebra they generate
    is all of M_m, of dimension m^2, and then the verdict is a certificate.
    A smaller algebra means the restriction is reducible; the seeded closure
    search of :func:`_witness_search` then looks for a witness to report.
    """
    m = restr.m
    dim = algebra_dimension([restr.g_hat] + list(restr.jumps_hat))
    if dim == m * m:
        return IrreducibilityReport(True, None, f"irreducible (algebra dimension {dim} = m^2)")
    witness = _witness_search(restr)
    note = (f"reducible (algebra dimension {dim} < m^2; no witness found)" if witness is None
            else f"invariant subspace of dimension {witness.shape[1]} found")
    return IrreducibilityReport(False, witness, note)
