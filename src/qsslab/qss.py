"""Quasi-stationary states from the spectrum of the restricted generator.

Pipeline: the real eigenvalues of the compressed state-evolution generator
give candidate decay rates alpha; each real eigenspace is closed under the
adjoint map and carries a Hermitian basis; the trace-one PSD slice of that
eigenspace (a point, a segment, or a higher-dimensional family) is the set
of quasi-stationary states at rate alpha.  Perron-Frobenius structure marks
the family at the spectral abscissa and enforces the existence theorem.

The slice geometry is exact.  One primitive, ``_psd_range``, gives the
interval {t : x + t d PSD} from the roots of det(a + t b) on the joint range
of x and d (b's null space deflated, then one eigensolve).  It is the
segment of a 2-dimensional eigenspace; in larger ones a face walk moves
along directions supported on supp x to the boundary until none is left,
which certifies an extreme point (Ramana & Goldman, J. Global Optim. 7,
1995).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import operators as op
from .model import apply_semigroup
from .operators import adjoint, devectorize, frob, vectorize
from .structure import AbsorptionReport, RestrictedGenerator, as_analysis

CLUSTER_TOL = 1e-8
VERIFY_TIMES = (0.1, 0.5, 1.0, 2.0)
MULT_GRID = (0.3, 0.7, 1.1)
REPEATED_TIMES = (0.3, 0.7, 1.1)
EXTREME_POINTS_NOTE = "endpoints: 4 extreme points reached by face walks; the family has others"
FACE_TOL = 1e-10  # relative rank cut of supports and joint ranges in the PSD-slice geometry


class QssTheoryError(RuntimeError):
    """A structural guarantee of the theory failed numerically."""


@dataclass(frozen=True)
class RealEigenCandidate:
    alpha: float
    herm_basis: tuple  # restricted m x m Hermitian matrices, orthonormal in HS
    defective: bool = False
    warning: str = ""


@dataclass(frozen=True)
class CandidateSet:
    restr: RestrictedGenerator
    candidates: tuple


@dataclass(frozen=True)
class QssCertificate:
    """One quasi-stationary state (full-space density) and its certificate.

    ``residual_eigen`` is computed on first read, from the ``restr`` and
    ``rho_hat`` the state was built from; :func:`verify_qss` checks the rest.
    """

    alpha: float
    nu: np.ndarray
    is_perron: bool = False
    restr: Optional[RestrictedGenerator] = field(default=None, repr=False, compare=False)
    rho_hat: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @cached_property
    def residual_eigen(self) -> float:
        return _eigen_residual(self.restr, self.alpha, self.rho_hat)


@dataclass(frozen=True)
class QssFamily:
    """All QSSs sharing one decay rate.

    For a 2-dimensional real eigenspace the family is the segment
    ``nu0 + x * sigma`` for x in ``param_interval``; the endpoint states are
    kept as certificates.  For a larger eigenspace ``endpoints`` holds four
    extreme points of the family, not all of them.  ``herm_basis`` is
    embedded in the full space.
    """

    alpha: float
    herm_basis: tuple
    anchor: QssCertificate
    param_interval: Optional[tuple] = None
    endpoints: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class RejectedCandidate:
    alpha: float
    reason: str


@dataclass(frozen=True)
class ExtractionResult:
    families: tuple
    rejected: tuple


def _hermitian_basis(vectors: np.ndarray):
    """Orthonormal Hermitian basis of the span of devectorized eigenvectors.

    Uses {v + v^dag, i(v - v^dag)} followed by an SVD orthonormalization in
    the Hilbert-Schmidt inner product.
    """
    m = math.isqrt(vectors.shape[0])
    v = vectors.T.reshape(-1, m, m).swapaxes(-1, -2)  # devectorized columns
    pairs = np.stack([0.5 * (v + adjoint(v)), 0.5j * (v - adjoint(v))], axis=1)
    # columns H(v_0), A(v_0), H(v_1), ..., each vectorized by column stacking
    stacked = pairs.swapaxes(-1, -2).reshape(2 * len(v), m * m).T
    # orthonormalize over the *real* span: complex SVD could return i*B,
    # whose Hermitian part vanishes
    real_stacked = np.vstack([stacked.real, stacked.imag])
    u, s, _ = np.linalg.svd(real_stacked, full_matrices=False)
    rank = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    half = stacked.shape[0]
    basis = []
    for j in range(rank):
        b = devectorize(u[:half, j] + 1j * u[half:, j])
        b = 0.5 * (b + adjoint(b))
        basis.append(b / frob(b))
    return tuple(basis)


def real_eigen_candidates(restr: RestrictedGenerator, real_tol: float = op.TOL_EIG) -> CandidateSet:
    """Real, non-positive eigenvalues of the restricted predual generator.

    Eigenvalues within ``CLUSTER_TOL`` of each other are merged into one
    eigenspace.  Clusters whose geometric multiplicity falls short of the
    algebraic one are flagged defective; only genuine eigenvectors enter the
    Hermitian basis.
    """
    w, v = restr.eig
    scale = max(1.0, frob(restr.gen))
    real_mask = (np.abs(w.imag) <= real_tol * scale) & (w.real <= real_tol * scale)
    idx = np.where(real_mask)[0]
    used = np.zeros(len(w), dtype=bool)
    candidates = []
    for i in idx:
        if used[i]:
            continue
        cluster = [j for j in idx if not used[j] and abs(w[j] - w[i]) <= CLUSTER_TOL * scale]
        for j in cluster:
            used[j] = True
        vecs = v[:, cluster]
        u, s, _ = np.linalg.svd(vecs, full_matrices=False)
        geom = int(np.sum(s > 1e-8 * max(1.0, s[0])))
        defective = geom < len(cluster)
        basis = _hermitian_basis(u[:, :geom])
        alpha = float(-np.mean([w[j].real for j in cluster]))
        candidates.append(
            RealEigenCandidate(
                alpha=alpha,
                herm_basis=basis,
                defective=defective,
                warning=(
                    f"defective eigenvalue: algebraic {len(cluster)}, geometric {geom}; "
                    "generalized eigenvectors excluded"
                    if defective
                    else ""
                ),
            )
        )
    candidates.sort(key=lambda c: c.alpha)
    return CandidateSet(restr=restr, candidates=tuple(candidates))


def _eigen_residual(restr: RestrictedGenerator, alpha: float, rho_hat: np.ndarray) -> float:
    return frob(devectorize(restr.gen @ vectorize(rho_hat)) + alpha * rho_hat)


def _certificate(restr: RestrictedGenerator, alpha: float, rho_hat: np.ndarray) -> QssCertificate:
    return QssCertificate(alpha=alpha, nu=restr.embed(rho_hat), restr=restr, rho_hat=rho_hat)


def _min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (h + adjoint(h)))[0])


def _pencil_roots(a: np.ndarray, b: np.ndarray):
    """The finite roots of det(a + t b), Hermitian a and b, or None when no a + t b is PSD:
    in b's eigenbasis, a's block on null(b) is free of t and must be positive definite
    (a singular PSD block needs a common null vector of a and b); the roots are then
    those of its Schur complement s + t diag(beta) on range(b), eigvals(-s / beta)."""
    beta, q = np.linalg.eigh(b)
    a = adjoint(q) @ a @ q
    null = np.abs(beta) <= FACE_TOL * np.abs(beta).max(initial=0.0)
    try:
        y = np.linalg.solve(np.linalg.cholesky(a[np.ix_(null, null)]), a[np.ix_(null, ~null)])
    except np.linalg.LinAlgError:
        return None
    return np.linalg.eigvals((adjoint(y) @ y - a[np.ix_(~null, ~null)]) / beta[~null, None])


def _psd_range(x: np.ndarray, d: np.ndarray):
    """{t : x + t d PSD} as ``(lo, hi)``; None when empty.

    Compressed to the joint range of x and d (a and b), the boundary points
    are roots of det(a + t b).  The inertia of a + t b is constant between
    consecutive roots, so the PSD set is the gap whose midpoint is PSD, or
    else a single PSD root.  A gap with PSD interior makes the pencil
    definite and its roots real, so keeping only real parts adds at most
    harmless breakpoints.  Bounded for traceless d != 0.
    """
    u, s, _ = np.linalg.svd(np.hstack([x, d]))
    u = u[:, s > FACE_TOL * s[0]]  # joint range
    a, b = adjoint(u) @ x @ u, adjoint(u) @ d @ u
    roots = _pencil_roots(a, b)
    roots = [] if roots is None else np.sort(roots.real)
    if len(roots) > 1:
        mid_eigs = [_min_eig(a + 0.5 * (r0 + r1) * b) for r0, r1 in zip(roots, roots[1:])]
        k = int(np.argmax(mid_eigs))
        if mid_eigs[k] >= -op.TOL_PSD:
            return float(roots[k]), float(roots[k + 1])
    for r in roots:
        if _min_eig(a + r * b) >= -op.TOL_PSD:
            return float(r), float(r)
    return None


def _walk_to_extreme(x: np.ndarray, dirs: np.ndarray, pref: np.ndarray) -> np.ndarray:
    """Walk from the PSD point x of the slice x + span(dirs) to an extreme point.

    While some direction c . dirs is supported on supp x (c in the null
    space of c -> (1 - P_x) sum_i c_i dirs_i), move along the projection of
    the preferred coefficients ``pref`` onto those directions to the far
    boundary, where the rank of x drops.  When no such direction is left, x
    is extreme (Ramana & Goldman); this takes at most rank(x) steps.
    """
    for _ in range(len(x)):
        w, v = np.linalg.eigh(x)
        u = v[:, w > FACE_TOL * w[-1]]  # supp x
        off = (dirs - u @ (adjoint(u) @ dirs)).reshape(len(dirs), -1)
        _, s, vt = np.linalg.svd(np.hstack([off.real, off.imag]).T)
        null = vt[int(np.sum(s > FACE_TOL)):]  # dirs are orthonormal: s <= 1
        if not len(null):
            break
        c = null.T @ (null @ pref)
        c = c / np.linalg.norm(c) if np.linalg.norm(c) > FACE_TOL else null[0]
        step = np.tensordot(c, dirs, axes=1)
        # on supp x, where x is positive definite, t = 0 is interior
        x = x + _psd_range(adjoint(u) @ x @ u, adjoint(u) @ step @ u)[1] * step
    return x


def _extreme_points(nu0: np.ndarray, basis, traces: np.ndarray):
    """Anchor and four extreme points of the PSD slice of a >= 3-dim eigenspace.

    The anchor is ``nu0`` when it is PSD, else the midpoint of the first
    non-empty chord through ``nu0`` along a traceless direction (a heuristic
    search; None when it finds nothing).  The extreme points are face walks
    from the anchor with preferred directions +-d1 and +-d2.
    """
    _, _, vt = np.linalg.svd(traces[None, :])  # rows 1.. are orthogonal to the traces
    dirs = np.tensordot(vt[1:], np.array(basis), axes=1)  # orthonormal, traceless
    anchor = nu0
    if _min_eig(nu0) < -op.TOL_PSD:
        for d in dirs:
            chord = _psd_range(nu0, d)
            if chord is not None:
                anchor = nu0 + 0.5 * (chord[0] + chord[1]) * d
                break
        else:
            return None
    prefs = np.eye(len(dirs))[:2]
    return anchor, tuple(_walk_to_extreme(anchor, dirs, s * p) for p in prefs for s in (1.0, -1.0))


def _psd_slice(cand: RealEigenCandidate):
    """Anchor, endpoint states, interval and notes of a candidate's QSS set.

    Returns the rejection reason (a str) instead when no state is found.
    """
    basis, notes = cand.herm_basis, (cand.warning,) if cand.warning else ()
    if cand.defective and not basis:
        return cand.warning
    traces = np.array([np.trace(b).real for b in basis])
    if len(basis) == 1:
        if abs(traces[0]) <= 1e-10:
            return "trace-zero eigenvector"
        nu_hat = basis[0] / traces[0]
        ok, min_eig = op.psd_check(nu_hat, op.TOL_PSD)
        return (nu_hat, (), None, notes) if ok else f"not PSD (min eigenvalue {min_eig:.3e})"
    tnorm2 = float(traces @ traces)
    if tnorm2 <= 1e-16:
        return "no trace-one element in eigenspace"
    nu0 = sum(t * b for t, b in zip(traces, basis)) / tnorm2  # minimum-norm trace-one element
    if len(basis) == 2:
        sigma = (traces[1] * basis[0] - traces[0] * basis[1]) / np.sqrt(tnorm2)
        interval = _psd_range(nu0, sigma)
        if interval is None:
            return "empty PSD slice"
        lo, hi = interval
        return nu0 + 0.5 * (lo + hi) * sigma, (nu0 + lo * sigma, nu0 + hi * sigma), interval, notes
    found = _extreme_points(nu0, basis, traces)
    if found is None:
        return "no PSD state on the chords through the minimum-norm element (heuristic search)"
    return found + (None, notes + (EXTREME_POINTS_NOTE,))


def extract_qss(cands: CandidateSet) -> ExtractionResult:
    """Trace-one PSD representatives of each real eigenspace.

    Dimension 1: normalize and test positivity.  Dimension 2: the trace-one
    slice is a line; its PSD part is an exact interval (``_psd_range``), and
    the endpoint (extremal-support) states are certified.  Dimension >= 3:
    four extreme points of the slice from face walks, flagged as a partial
    list.
    """
    restr = cands.restr
    families, rejected = [], []
    for cand in cands.candidates:
        found = _psd_slice(cand)
        if isinstance(found, str):
            rejected.append(RejectedCandidate(cand.alpha, found))
            continue
        anchor, points, interval, notes = found
        families.append(
            QssFamily(
                alpha=cand.alpha,
                herm_basis=tuple(restr.embed(b) for b in cand.herm_basis),
                anchor=_certificate(restr, cand.alpha, anchor),
                param_interval=interval,
                endpoints=tuple(_certificate(restr, cand.alpha, x) for x in points),
                notes=notes,
            )
        )
    return ExtractionResult(families=tuple(families), rejected=tuple(rejected))


def perron_structure(
    restr: RestrictedGenerator,
    result: ExtractionResult,
    irreducible: Optional[bool] = None,
) -> ExtractionResult:
    """Mark the Perron family and enforce existence/uniqueness guarantees.

    Existence (finite dimension, subharmonic p0) requires a nonempty family
    at the negated spectral abscissa; violation raises, carrying the full
    spectrum.  Under irreducibility the Perron family must be a single
    strictly positive state and the only family.
    """
    w, _ = restr.eig
    abscissa = float(np.max(w.real))
    perron_alpha = -abscissa
    marked = []
    found_perron = False
    for fam in result.families:
        is_perron = abs(fam.alpha - perron_alpha) <= 1e-7
        found_perron = found_perron or is_perron
        anchor = replace(fam.anchor, is_perron=is_perron)
        endpoints = tuple(replace(c, is_perron=is_perron) for c in fam.endpoints)
        marked.append(replace(fam, anchor=anchor, endpoints=endpoints))
    if not found_perron:
        reason = "no QSS family found"
        if marked:
            reason = f"no family at spectral abscissa {abscissa:.6e}"
        # one line: the message is printed as the CLI's one-line error
        spectrum = np.array2string(np.sort_complex(w), max_line_width=np.inf)
        raise QssTheoryError(f"Perron existence failed: {reason}; spectrum {spectrum}")
    if irreducible:
        if len(marked) != 1 or marked[0].param_interval is not None:
            raise QssTheoryError(
                "irreducible restriction must carry a unique QSS; "
                f"found {len(marked)} families"
            )
        nu_hat = restr.compress(marked[0].anchor.nu)
        if _min_eig(nu_hat) <= 0:
            raise QssTheoryError("Perron state of an irreducible restriction must be strictly positive")
    return ExtractionResult(families=tuple(marked), rejected=result.rejected)


@dataclass(frozen=True)
class VerificationReport:
    residual_defn: float
    residual_exp_survival: float
    residual_mult: float
    residual_repeated: float
    alpha_log_crosscheck: float
    ok: bool

    @property
    def max_residual(self) -> float:
        return max(
            self.residual_defn,
            self.residual_exp_survival,
            self.residual_mult,
            self.residual_repeated,
        )


def verify_qss(model, cert: QssCertificate) -> VerificationReport:
    """Check a certificate against the equivalent characterizations.

    (a) the conditioned evolution returns nu; (b) tr(T_t*(nu) p0_perp) =
    exp(-alpha t); (c) multiplicativity f(t+s) = f(t) f(s); (d) invariance
    under n=3 repeated measure-and-condition cycles.  The decay rate is also
    cross-checked against -log f(1).  All four read only the p0_perp corner
    of T_t(nu), which is the restricted evolution of compress(nu).  Each time
    t runs as t / k, k = 2^floor(log2 alpha) for alpha >= 2 and 1 otherwise:
    alpha t / k < 2 t, so f does not underflow and leaked roundoff on slower
    modes grows by at most e^{2t}; for alpha < 2 the grids are the same bits.
    """
    restr = as_analysis(model).restriction
    prop, nu = restr.propagator, restr.compress(cert.nu)
    alpha = cert.alpha
    k = 2.0 ** math.floor(math.log2(alpha)) if alpha >= 2 else 1.0
    grid, mult, repeated = ([t / k for t in ts] for ts in (VERIFY_TIMES, MULT_GRID, REPEATED_TIMES))

    # f(t) = tr T^_t(nu) on every grid, from one evolution
    times = grid + mult + [t + s for t in mult for s in mult] + [1.0 / k]
    evolved = apply_semigroup(prop, times, nu)
    f = {t: float(np.trace(x).real) for t, x in zip(times, evolved)}

    residual_defn = 0.0
    residual_exp = 0.0
    for t, x in zip(grid, evolved):
        residual_defn = max(residual_defn, frob(x / f[t] - nu) if f[t] > 0 else np.inf)
        residual_exp = max(residual_exp, abs(f[t] - np.exp(-alpha * t)))

    residual_mult = 0.0
    for t in mult:
        for s in mult:
            residual_mult = max(residual_mult, abs(f[t + s] - f[t] * f[s]))

    rho = nu
    for t in repeated:
        rho = apply_semigroup(prop, t, rho)
    tr = float(np.trace(rho).real)
    residual_repeated = frob(rho / tr - nu) if tr > 0 else np.inf

    alpha_log = abs(alpha / k + np.log(f[1.0 / k])) if f[1.0 / k] > 0 else np.inf
    ok = (
        max(residual_defn, residual_exp, residual_mult, residual_repeated) <= 1e-8
        and alpha_log <= 1e-7
    )
    return VerificationReport(
        residual_defn=residual_defn,
        residual_exp_survival=residual_exp,
        residual_mult=residual_mult,
        residual_repeated=residual_repeated,
        alpha_log_crosscheck=alpha_log,
        ok=ok,
    )


def absorbing_implies_positive_rate(
    absorption: AbsorptionReport, cert: QssCertificate
) -> bool:
    """False signals a theory violation: absorbing p0 forces alpha > 0."""
    return (not absorption.is_absorbing) or cert.alpha > 1e-9
