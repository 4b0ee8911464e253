"""Subharmonicity, restricted generators, absorption and irreducibility.

Given a model whose distinguished projection p0 is subharmonic, the state
evolution compressed to the range of p0-perp is again a semigroup.  Its
generator, ``model.gkls_superop`` of the compressed GKLS data (g_hat,
jumps_hat), and its eigenpairs are built here, together with the absorption operator
A(p0) = lim_t T_t(p0) and an irreducibility verdict certified by Burnside's
theorem.  :func:`restrict` builds the restriction once per model, for a
subharmonic p0 only, and every later stage takes it.  None of these stages
builds a d^2 x d^2 matrix: everything is read off the m x m compressed
operators and the m^2 x m^2 restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional

import numpy as np

from . import operators as op
from .model import ModelSpec, gkls_superop
from .operators import adjoint, devectorize, frob, vectorize

KERNEL_CUT = 1e-9  # relative cut of the restriction's kernel eigenvalues
CLOSURE_TOL = 1e-10  # relative rank cut of algebra spans and invariant subspaces


class StructureError(RuntimeError):
    pass


@dataclass(frozen=True)
class SubharmonicReport:
    algebraic_residual: float
    verdict: bool


class EigenCluster(NamedTuple):
    """Eigenvalues (``members`` of ``eig[0]``) that are one real eigenvalue up to rounding."""

    members: np.ndarray
    mean: float  # of the members' real parts: accurate to rounding, being a trace
    coords: np.ndarray  # orthonormal columns: the real null space of R - mean


@dataclass(frozen=True)
class RestrictedGenerator:
    """Compression of the semigroup to the range of p0-perp.

    ``isometry`` has the orthonormal basis of range(p0_perp) as columns;
    ``gen`` is the m^2 x m^2 generator matrix of the compressed state
    evolution and ``eig`` its pairs ``(w, frame @ V_R)``, from the pairs
    (w, V_R) of the real R = frame^dag gen frame in the unitary frame
    :func:`hermitian_frame` (m).  ``g_hat`` and ``jumps_hat``
    are the compressed drift and jump operators that define it.
    ``real_clusters`` are the real eigenvalues up to rounding, as
    :class:`EigenCluster` s by descending mean (:func:`_real_clusters`), and
    ``subharmonic`` the verdict it was built on.
    """

    spec: ModelSpec
    subharmonic: SubharmonicReport
    m: int
    isometry: np.ndarray
    gen: np.ndarray
    eig: tuple
    g_hat: np.ndarray
    jumps_hat: tuple
    real_clusters: tuple

    def compress(self, x: np.ndarray) -> np.ndarray:
        v = self.isometry
        return v.conj().T @ np.asarray(x, dtype=complex) @ v

    def embed(self, x: np.ndarray) -> np.ndarray:
        v = self.isometry
        return v @ np.asarray(x, dtype=complex) @ v.conj().T


def _real_clusters(w: np.ndarray, v: np.ndarray, r: np.ndarray) -> list:
    """The real clusters of each of k real matrices ``r`` (k, n, n) with eigenpairs
    ``(w, v)`` from one :func:`op.eig_general`: per matrix, a tuple of
    :class:`EigenCluster` s by descending mean.

    With delta = sqrt(n) eps ||R||_F, two eigenvalues join when closer than
    2 delta, or when their midpoint z has sigma_min(R - z) <= delta, so that z
    is an eigenvalue of a matrix within delta of R.  Only pairs with no other
    eigenvalue in the disk on their segment are tested, and only pairs closer
    than 2 delta cond_F(V_R): the delta-pseudospectrum lies within
    delta cond(V_R) of the spectrum (Bauer-Fike).  The joined groups closed under
    conjugation are the real clusters.  A singleton's null space is its real
    eigenvector; a larger cluster keeps at most one singular vector of R - mean
    per member, those up to twice its radius plus sqrt(delta ||R - mean||), the
    scale an ill-conditioned eigenvector can lift rounding to.

    cond_F(V_R), the sigma_min tests and the null-space SVDs each run as one
    stacked call over the k matrices (cond_F once per dtype: a real-spectrum
    V_R is inverted in float64, as it would be alone); only the union of the
    joined pairs and the building of each cluster are Python loops.
    """
    k, n = w.shape
    level = math.sqrt(n) * np.finfo(float).eps * np.linalg.norm(r, axis=(-2, -1))
    real_spectrum = (w.imag == 0).all(axis=-1)
    cond = np.empty(k)
    for group, basis in ((real_spectrum, v.real), (~real_spectrum, v)):
        if group.any():
            cond[group] = np.linalg.cond(basis[group], "fro")
    d2 = np.abs(w[:, :, None] - w[:, None, :]) ** 2
    upper = np.arange(n)[:, None] < np.arange(n)
    p, i, j = np.nonzero(~(d2 > (2 * level * cond)[:, None, None] ** 2) & upper)
    dij = d2[p, i, j]
    join = dij <= 4 * level[p] ** 2
    test = ~join & (d2[p, i] + d2[p, j] >= dij[:, None]).all(axis=1)
    if test.any():
        pt = p[test]
        z = 0.5 * (w[pt, i[test]] + w[pt, j[test]])
        z = z.real + 1j * np.abs(z.imag)  # one value for a pair and its conjugate
        join[test] = np.linalg.svd(r[pt] - z[:, None, None] * np.eye(n), compute_uv=False)[:, -1] <= level[pt]
    label = np.tile(np.arange(n), (k, 1))
    for q, a, b in zip(p[join].tolist(), i[join].tolist(), j[join].tolist()):
        row = label[q]
        row[row == row[b]] = row[a]
    # groups by ascending label, members ascending; a group is real if closed under conjugation
    order = np.argsort(label, axis=-1, kind="stable")
    rows = np.arange(k)[:, None]
    conj = ((label[:, :, None] == label[:, None, :]) & (w.conj()[:, :, None] == w[:, None, :])).any(axis=-1)
    ranked = label[rows, order]
    first = np.ones((k, n), dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    starts = np.flatnonzero(first)
    real = np.logical_or.reduceat(conj[rows, order].ravel(), starts)
    ends, order = np.append(starts[1:], k * n), order.ravel()
    clusters, wide = [[] for _ in range(k)], []  # wide: (matrix, members, mean, radius)
    for lo, hi in zip(starts[real].tolist(), ends[real].tolist()):
        q, idx = lo // n, order[lo:hi]
        if hi - lo == 1:
            clusters[q].append(EigenCluster(idx, w[q, idx[0]].real, v[q][:, idx].real))
        else:
            mean = float(w[q, idx].real.mean())
            wide.append((q, idx, mean, np.abs(w[q, idx] - mean).max()))
    if wide:
        which, members, means, radius = zip(*wide)
        _, sigma, vts = np.linalg.svd(r[list(which)] - np.array(means)[:, None, None] * np.eye(n))
        cut = 2 * np.array(radius) + np.sqrt(level[list(which)] * sigma[:, 0])
        kept = np.minimum([len(idx) for idx in members], (sigma <= cut[:, None]).sum(axis=-1))
        for q, idx, mean, vt, keep in zip(which, members, means, vts, kept.tolist()):
            clusters[q].append(EigenCluster(idx, mean, vt[n - keep:].T))
    return [tuple(sorted(c, key=lambda c: -c.mean)) for c in clusters]


@dataclass(frozen=True)
class AbsorptionReport:
    a_op: np.ndarray
    is_absorbing: bool
    residual_harmonic: float
    kernel_margin: float


@dataclass(frozen=True)
class IrreducibilityReport:
    verdict: bool
    witness: Optional[np.ndarray]  # m x k orthonormal basis of an invariant subspace of range(p0_perp)
    note: str


def check_subharmonic(spec: ModelSpec, drift: Optional[np.ndarray] = None) -> SubharmonicReport:
    """Decide whether p0 is subharmonic by the algebraic criterion.

    The range of p0 must be invariant under every jump operator and under
    the drift G (``spec.effective_drift()`` unless given): ``algebraic_residual``
    is the largest ||p0_perp X p0|| over them.  For a projection this is
    equivalent to T_t(p0) >= p0 for all t >= 0 (Fagnola & Rebolledo, J. Math.
    Phys. 43, 2002), so the verdict needs no evolution.
    """
    p0, perp = spec.p0, spec.p0_perp
    residual = frob(perp @ (spec.effective_drift() if drift is None else drift) @ p0)
    for l in spec.jump_ops:
        residual = max(residual, frob(perp @ l @ p0))
    return SubharmonicReport(algebraic_residual=residual, verdict=residual <= 1e-10 * max(1.0, frob(spec.hamiltonian)))


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


@cache  # read-only, shared by every restriction of size m
def hermitian_frame(m: int) -> np.ndarray:
    """The unitary whose columns are vec of the Hermitian basis E_jj, (E_jk + E_kj) / sqrt(2),
    i (E_jk - E_kj) / sqrt(2) (j < k) of M_m: frame^dag S frame is real for a Hermiticity-
    preserving S, and ``devectorize(frame @ x)`` is Hermitian for a real x."""
    j, k = np.triu_indices(m, 1)
    upper, lower, cols = j + k * m, k + j * m, m + np.arange(len(j))  # vec positions of (j, k), (k, j)
    frame = np.zeros((m * m, m * m), dtype=complex)
    frame[np.arange(m) * (m + 1), np.arange(m)] = 1.0
    frame[upper, cols] = frame[lower, cols] = 2**-0.5
    frame[upper, cols + len(j)], frame[lower, cols + len(j)] = 1j * 2**-0.5, -1j * 2**-0.5
    frame.flags.writeable = False
    return frame


def restrict(spec: ModelSpec) -> RestrictedGenerator:
    """The compressed generator on range(p0_perp): :func:`restrict_stack` of one model."""
    return restrict_stack((spec,))[0]


def restrict_stack(specs) -> tuple:
    """Build the compressed generators on range(p0_perp) of models of one size as one stack.

    Each model's drift G is built once, and its :func:`check_subharmonic` verdict
    is taken once and kept as ``subharmonic``; a model whose p0 is not subharmonic
    raises ``StructureError``.  Models that share p0 share its isometry.
    The restriction is defined by the compressed GKLS data g_hat = V^dag G V and
    L_hat = V^dag L V: ``model.gkls_superop`` of (g_hat, L_hat), at O(m^6) and
    without the d^2 x d^2 generator.  It maps Hermitian matrices
    to Hermitian matrices, so in :func:`hermitian_frame` it is the real matrix
    R; its imaginary part there is rounding and is dropped.  The models must
    share d, m and the number of jumps: every step broadcasts over the stack,
    and one real eigensolve ``op.eig_general`` of the (k, m^2, m^2) stack of R
    gives the pairs (w, frame @ V_R) of each ``gen``, which serve every later
    stage, and its real clusters.  Each matrix is computed as it would be
    alone, so a model's restriction does not depend on the rest of the stack.
    """
    drifts = np.array([spec.effective_drift() for spec in specs])
    subs = [check_subharmonic(spec, g) for spec, g in zip(specs, drifts)]
    for sub in subs:
        if not sub.verdict:
            raise StructureError(
                f"p0 is not subharmonic for this model (algebraic residual {sub.algebraic_residual:.3e})"
            )
    d = specs[0].dim
    jumps = np.array([spec.jump_ops for spec in specs], dtype=complex).reshape(len(specs), -1, d, d)
    isometries = {}  # by p0: models that share it share its isometry
    for spec in specs:
        key = spec.p0.tobytes()
        if key not in isometries:
            isometries[key] = _perp_isometry(spec)
    v = np.array([isometries[spec.p0.tobytes()] for spec in specs])
    vh = adjoint(v)
    g_hat = vh @ drifts @ v
    jumps_hat = vh[:, None] @ jumps @ v[:, None]
    gen = gkls_superop(g_hat, jumps_hat.swapaxes(0, 1))
    m = v.shape[-1]
    frame = hermitian_frame(m)
    real = (adjoint(frame) @ gen @ frame).real
    w, v_real = op.eig_general(real)
    vecs, clusters = frame @ v_real, _real_clusters(w, v_real, real)
    return tuple(
        RestrictedGenerator(
            spec, subs[q], m, v[q], gen[q], (w[q], vecs[q]),
            g_hat[q], tuple(jumps_hat[q]), clusters[q],
        )
        for q, spec in enumerate(specs)
    )


def absorption_operator(restr: RestrictedGenerator) -> AbsorptionReport:
    """A(p0) = lim_t T_t(p0), via the peripheral spectral component.

    For subharmonic p0, 0 <= T_t(p0_perp) <= p0_perp forces
    T_t(p0_perp) = V T^*_t(1_m) V^dag, so A(p0) = 1 - V P(1_m) V^dag with P
    the spectral projector of the restricted Heisenberg generator onto its
    kernel, the adjoint of gen's V_R[:, k] V_R^-1[k, :] for the eigenvalues k
    with |w| <= cut = ``KERNEL_CUT`` * max(1, ||gen||): P(1_m) =
    V_R^-1[k, :]^dag (V_R[:, k]^dag vec 1_m).  Only ``restr.eig`` is read and
    nothing is evolved.  p0 is absorbing iff the kernel is empty: then A(p0) = 1
    exactly, while a stationary state w^ of a non-empty kernel has tr(w^ P(1_m)) =
    1, so ||A(p0) - 1|| is of order 1.  Singular V_R there raises ``EigenSolveError``.
    Dropping purely imaginary peripheral eigenvalues realizes the Cesaro time
    average.  ``residual_harmonic`` is ||L^*(A(p0))|| in d x d form,
    L^*(A) = G^dag A + A G + sum_k L_k^dag A L_k.  ``kernel_margin`` is how far
    the nearest |w| outside the kernel lies beyond the cut or, when every
    eigenvalue is inside, how far the largest |w| lies below it.
    """
    spec = restr.spec
    (w, v), one = restr.eig, np.eye(restr.m)
    modulus = np.abs(w)
    cut = KERNEL_CUT * max(1.0, frob(restr.gen))
    keep = modulus <= cut
    pi_one = np.zeros_like(one, dtype=complex)
    if keep.any():
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            raise op.EigenSolveError("Heisenberg kernel projector: singular eigenbasis") from None
        coef = adjoint(v[:, keep]) @ vectorize(one)
        pi_one = devectorize(adjoint(v_inv[keep]) @ coef)
    pi_one = 0.5 * (pi_one + adjoint(pi_one))
    a_op = np.eye(spec.dim) - restr.embed(pi_one)
    outside = modulus[~keep]
    margin = outside.min() - cut if outside.size else cut - modulus.max()
    g = spec.effective_drift()
    residual_harmonic = frob(
        adjoint(g) @ a_op + a_op @ g + sum(adjoint(l) @ a_op @ l for l in spec.jump_ops)
    )
    return AbsorptionReport(
        a_op=a_op,
        is_absorbing=not keep.any(),
        residual_harmonic=residual_harmonic,
        kernel_margin=float(margin),
    )


def algebra_basis(ops) -> np.ndarray:
    """Orthonormal basis of the unital algebra A generated by the m x m matrices ``ops``.

    The columns are the row-major vectors of the basis matrices; their number
    is the dimension of A.  The span starts at the identity.  Each round
    left-multiplies only the directions the last round added by every
    generator, orthogonalizes the images twice against the current basis,
    and keeps as new directions the left singular vectors above
    ``CLOSURE_TOL * max(1, max ||op||)``, until a round adds nothing.
    """
    ops = np.asarray(ops)
    m = ops.shape[-1]
    cut = CLOSURE_TOL * max(1.0, np.linalg.norm(ops, axis=(-2, -1)).max())
    basis = np.eye(m, dtype=complex).reshape(m * m, 1) / np.sqrt(m)
    new = basis.T
    while len(new) and basis.shape[1] < m * m:
        images = (ops[:, None] @ new.reshape(-1, m, m)).reshape(-1, m * m).T
        for _ in range(2):
            images = images - basis @ (adjoint(basis) @ images)
        u, s, _ = np.linalg.svd(images, full_matrices=False)
        new = u[:, s > cut].T
        basis = np.hstack([basis, new.T])
    return basis


def _range_and_kernel(a: np.ndarray) -> tuple:
    """Orthonormal bases of the range of ``a`` and, for ``a`` with no more columns than
    rows, of its kernel: singular values above ``CLOSURE_TOL * max(1, sigma_max)`` count."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > CLOSURE_TOL * max(1.0, s[0])))
    return u[:, :rank], vh[rank:].conj().T


def _invariant_subspace(ops: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a subspace invariant under ``ops``, read off the ``basis`` of
    their algebra A, a proper subalgebra of M_m; proper unless rounding spoils it.

    The radical J of A is the kernel of the trace form tr(xy) on A (Dickson's
    criterion, characteristic 0).  If J != 0, span(J C^m) is invariant, J being
    a two-sided ideal, and proper, J being nilpotent.  Otherwise A is
    semisimple, so its commutant holds a non-scalar c (double commutant
    theorem), and ker(c - lambda) is invariant for every eigenvalue lambda of
    c; the smallest of them is taken, so that its dimension does not depend on
    which eigenvalue LAPACK lists first.
    """
    m = ops.shape[-1]
    vecs = basis.T
    transposes = vecs.reshape(-1, m, m).swapaxes(1, 2).reshape(-1, m * m)
    _, radical = _range_and_kernel(vecs @ transposes.T)  # tr(b_i b_j) = vec(b_i) . vec(b_j^T)
    if radical.shape[1]:
        ideal = (radical.T @ vecs).reshape(-1, m, m)
        return _range_and_kernel(ideal.swapaxes(0, 1).reshape(m, -1))[0]  # [J_1 J_2 ...]
    eye = np.eye(m)
    _, commutant = _range_and_kernel(np.concatenate([np.kron(a, eye) - np.kron(eye, a.T) for a in ops]))
    scalar = eye.reshape(m * m, 1) / np.sqrt(m)
    nonscalar, _ = _range_and_kernel(commutant - scalar @ (scalar.T @ commutant))
    if not nonscalar.shape[1]:  # rounding lost the commutant
        return np.zeros((m, 0))
    c = nonscalar[:, 0].reshape(m, m)
    return min((_range_and_kernel(c - lam * eye)[1] for lam in np.linalg.eigvals(c)), key=lambda k: k.shape[1])


def check_irreducible(restr: RestrictedGenerator) -> IrreducibilityReport:
    """Decide whether g_hat and the jump operators have a common invariant subspace.

    Burnside's theorem: they have none iff the unital algebra they generate
    is all of M_m, of dimension m^2, and then the verdict is a certificate.
    A smaller algebra means the restriction is reducible, and
    :func:`_invariant_subspace` builds a witness W from the algebra's basis;
    it is reported when it is proper and ||(1 - W W^dag) a W|| is within
    ``CLOSURE_TOL * max(1, max ||a||)`` for the traceless parts a of g_hat and the jumps:
    same algebra and invariant subspaces, and no cut moves with an energy offset H + c 1.
    """
    m = restr.m
    ops = np.array([restr.g_hat, *restr.jumps_hat])
    ops -= np.trace(ops, axis1=1, axis2=2)[:, None, None] / m * np.eye(m)
    basis = algebra_basis(ops)
    dim = basis.shape[1]
    if dim == m * m:
        return IrreducibilityReport(True, None, f"irreducible (algebra dimension {dim} = m^2)")
    witness = _invariant_subspace(ops, basis)
    k, images = witness.shape[1], ops @ witness
    defect = np.linalg.norm(images - witness @ (adjoint(witness) @ images), axis=(-2, -1)).max()
    if 0 < k < m and defect <= CLOSURE_TOL * max(1.0, np.linalg.norm(ops, axis=(-2, -1)).max()):
        return IrreducibilityReport(False, witness, f"invariant subspace of dimension {k} found")
    return IrreducibilityReport(False, None, f"reducible (algebra dimension {dim} < m^2; no witness found)")
