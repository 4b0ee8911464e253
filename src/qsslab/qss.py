"""Quasi-stationary states from the spectrum of the restricted generator.

Pipeline: the real eigenvalues of the compressed state-evolution generator
give candidate decay rates alpha; each real eigenspace is closed under the
adjoint map and carries a Hermitian basis; the trace-one PSD slice of that
eigenspace (a point, a segment, or a higher-dimensional family) is the set
of quasi-stationary states at rate alpha.  Perron-Frobenius structure marks
the family at the spectral abscissa and enforces the existence theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import operators as op
from .model import apply_semigroup
from .operators import adjoint, devectorize, frob, vectorize
from .structure import AbsorptionReport, RestrictedGenerator, as_analysis

CLUSTER_TOL = 1e-8
DEFAULT_REAL_TOL = op.TOL_EIG
VERIFY_TIMES = (0.1, 0.5, 1.0, 2.0)
MULT_GRID = (0.3, 0.7, 1.1)
REPEATED_TIMES = (0.3, 0.7, 1.1)


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
    """One verified quasi-stationary state (full-space density)."""

    alpha: float
    nu: np.ndarray
    residual_eigen: float
    residual_defn: float
    is_perron: bool = False


@dataclass(frozen=True)
class QssFamily:
    """All QSSs sharing one decay rate.

    For a 2-dimensional real eigenspace the family is the segment
    ``nu0 + x * sigma`` for x in ``param_interval``; the endpoint states are
    kept as certificates.  ``herm_basis`` is embedded in the full space.
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


def _hermitian_basis(vectors: np.ndarray, m: int, tol: float = 1e-8):
    """Orthonormal Hermitian basis of the span of devectorized eigenvectors.

    Uses {v + v^dag, i(v - v^dag)} followed by an SVD orthonormalization in
    the Hilbert-Schmidt inner product.
    """
    cols = []
    for j in range(vectors.shape[1]):
        v = devectorize(vectors[:, j])
        cols.append(vectorize(0.5 * (v + adjoint(v))))
        cols.append(vectorize(0.5j * (v - adjoint(v))))
    stacked = np.column_stack(cols)
    # orthonormalize over the *real* span: complex SVD could return i*B,
    # whose Hermitian part vanishes
    real_stacked = np.vstack([stacked.real, stacked.imag])
    u, s, _ = np.linalg.svd(real_stacked, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    half = stacked.shape[0]
    basis = []
    for j in range(rank):
        b = devectorize(u[:half, j] + 1j * u[half:, j])
        b = 0.5 * (b + adjoint(b))
        basis.append(b / frob(b))
    return tuple(basis)


def real_eigen_candidates(
    restr: RestrictedGenerator,
    real_tol: float = DEFAULT_REAL_TOL,
    cluster_tol: float = CLUSTER_TOL,
) -> CandidateSet:
    """Real, non-positive eigenvalues of the restricted predual generator.

    Eigenvalues within ``cluster_tol`` of each other are merged into one
    eigenspace.  Clusters whose geometric multiplicity falls short of the
    algebraic one are flagged defective; only genuine eigenvectors enter the
    Hermitian basis.
    """
    m = restr.m
    w, v = restr.eigen
    scale = max(1.0, frob(restr.gen_schr.mat))
    real_mask = (np.abs(w.imag) <= real_tol * scale) & (w.real <= real_tol * scale)
    idx = np.where(real_mask)[0]
    used = np.zeros(len(w), dtype=bool)
    candidates = []
    for i in idx:
        if used[i]:
            continue
        cluster = [j for j in idx if not used[j] and abs(w[j] - w[i]) <= cluster_tol * scale]
        for j in cluster:
            used[j] = True
        vecs = v[:, cluster]
        u, s, _ = np.linalg.svd(vecs, full_matrices=False)
        geom = int(np.sum(s > 1e-8 * max(1.0, s[0])))
        defective = geom < len(cluster)
        basis = _hermitian_basis(u[:, :geom], m)
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
    return frob(restr.apply_gen(rho_hat) + alpha * rho_hat)


def _defn_residual(restr: RestrictedGenerator, rho_hat: np.ndarray) -> float:
    """max_t || T^_t(nu)/tr(T^_t(nu)) - nu || over the sample grid."""
    worst = 0.0
    for t in VERIFY_TIMES:
        evolved = restr.evolve(t, rho_hat)
        tr = np.trace(evolved).real
        if tr <= 0:
            return np.inf
        worst = max(worst, frob(evolved / tr - rho_hat))
    return worst


def _certificate(restr: RestrictedGenerator, alpha: float, rho_hat: np.ndarray) -> QssCertificate:
    return QssCertificate(
        alpha=alpha,
        nu=restr.embed(rho_hat),
        residual_eigen=_eigen_residual(restr, alpha, rho_hat),
        residual_defn=_defn_residual(restr, rho_hat),
    )


def _min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (h + adjoint(h)))[0])


def _psd_interval(nu0: np.ndarray, sigma: np.ndarray, tol: float = 1e-12):
    """{x : nu0 + x sigma PSD} for a trace-one line; None when empty.

    The minimum eigenvalue is concave in x, so the admissible set is a
    closed interval; the endpoints are located by bisection.  Feasibility is
    min-eig >= -1e-12: states supported on a proper subspace carry exact
    zero eigenvalues whose numerical noise would otherwise flip the sign.
    """
    radius = (1.0 + frob(nu0)) / frob(sigma)
    xs = np.linspace(-radius, radius, 401)
    vals = [_min_eig(nu0 + x * sigma) for x in xs]
    k = int(np.argmax(vals))
    if vals[k] < -op.TOL_PSD:
        return None
    x_feas = xs[k]
    # the best grid point anchors the feasibility threshold: its min-eig is
    # zero up to eigensolver noise, which must not flip the bracket invariant
    feas_tol = max(1e-11, -4.0 * min(vals[k], 0.0))

    def feasible(x):
        return _min_eig(nu0 + x * sigma) >= -feas_tol

    def bisect(a, b):
        # a feasible, b not; |a - b| shrinks regardless of orientation
        for _ in range(200):
            if abs(b - a) < tol:
                break
            mid = 0.5 * (a + b)
            if feasible(mid):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    left = bisect(x_feas, -radius) if not feasible(-radius) else -radius
    right = bisect(x_feas, radius) if not feasible(radius) else radius
    if left > right:
        left, right = right, left
    return float(left), float(right)


def extract_qss(cands: CandidateSet, n_functionals: int = 64) -> ExtractionResult:
    """Trace-one PSD representatives of each real eigenspace.

    Dimension 1: normalize and test positivity.  Dimension 2: the trace-one
    slice is a line; its PSD part is an interval found by min-eigenvalue
    bisection, and the endpoint (extremal-support) states are certified.
    Dimension >= 3: a partial extremal scan over fixed random linear
    functionals, flagged as such.
    """
    restr = cands.restr
    families, rejected = [], []
    for cand in cands.candidates:
        alpha = cand.alpha
        if cand.defective and not cand.herm_basis:
            rejected.append(RejectedCandidate(alpha, cand.warning))
            continue
        basis = cand.herm_basis
        notes = (cand.warning,) if cand.warning else ()
        traces = np.array([np.trace(b).real for b in basis])
        dim = len(basis)
        if dim == 1:
            b = basis[0]
            if abs(traces[0]) <= 1e-10:
                rejected.append(RejectedCandidate(alpha, "trace-zero eigenvector"))
                continue
            nu_hat = b / traces[0]
            ok, min_eig = op.psd_check(nu_hat, op.TOL_PSD)
            if not ok:
                rejected.append(
                    RejectedCandidate(alpha, f"not PSD (min eigenvalue {min_eig:.3e})")
                )
                continue
            anchor = _certificate(restr, alpha, nu_hat)
            families.append(
                QssFamily(
                    alpha=alpha,
                    herm_basis=tuple(restr.embed(b) for b in basis),
                    anchor=anchor,
                    notes=notes,
                )
            )
        elif dim == 2:
            tnorm2 = float(traces @ traces)
            if tnorm2 <= 1e-16:
                rejected.append(RejectedCandidate(alpha, "no trace-one element in eigenspace"))
                continue
            nu0 = (traces[0] * basis[0] + traces[1] * basis[1]) / tnorm2
            sigma = (traces[1] * basis[0] - traces[0] * basis[1]) / np.sqrt(tnorm2)
            interval = _psd_interval(nu0, sigma)
            if interval is None:
                rejected.append(RejectedCandidate(alpha, "empty PSD slice"))
                continue
            lo, hi = interval
            anchor = _certificate(restr, alpha, nu0 + 0.5 * (lo + hi) * sigma)
            endpoints = (
                _certificate(restr, alpha, nu0 + lo * sigma),
                _certificate(restr, alpha, nu0 + hi * sigma),
            )
            families.append(
                QssFamily(
                    alpha=alpha,
                    herm_basis=tuple(restr.embed(b) for b in basis),
                    anchor=anchor,
                    param_interval=(lo, hi),
                    endpoints=endpoints,
                    notes=notes,
                )
            )
        else:
            family = _extract_high_dim(restr, alpha, basis, notes, n_functionals)
            if family is None:
                rejected.append(RejectedCandidate(alpha, "no PSD trace-one element found"))
            else:
                families.append(family)
    return ExtractionResult(families=tuple(families), rejected=tuple(rejected))


def _extract_high_dim(restr, alpha, basis, notes, n_functionals):
    """Partial extremal scan over the PSD slice of a >=3-dim eigenspace."""
    m = restr.m
    traces = np.array([np.trace(b).real for b in basis])
    tnorm2 = float(traces @ traces)
    if tnorm2 <= 1e-16:
        return None
    nu0 = sum(t * b for t, b in zip(traces, basis)) / tnorm2
    # traceless directions within the eigenspace
    dirs = []
    for i, b in enumerate(basis):
        d = b - traces[i] * nu0
        if frob(d) > 1e-10:
            dirs.append(d / frob(d))
    rng = np.random.default_rng(397101)
    psd_points = []
    if _min_eig(nu0) >= -op.TOL_PSD:
        psd_points.append(nu0)
    for _ in range(2048):
        coeffs = rng.standard_normal(len(dirs))
        point = nu0 + sum(c * d for c, d in zip(coeffs, dirs))
        if _min_eig(point) >= -op.TOL_PSD:
            psd_points.append(point)
    if not psd_points:
        return None
    extremals = []
    for _ in range(n_functionals):
        f = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        f = 0.5 * (f + adjoint(f))
        values = [np.trace(f @ p).real for p in psd_points]
        extremals.append(psd_points[int(np.argmax(values))])
    anchor = _certificate(restr, alpha, psd_points[0])
    endpoint_certs = tuple(
        _certificate(restr, alpha, p) for p in extremals[: min(4, len(extremals))]
    )
    return QssFamily(
        alpha=alpha,
        herm_basis=tuple(restr.embed(b) for b in basis),
        anchor=anchor,
        endpoints=endpoint_certs,
        notes=notes + ("partial extremal scan",),
    )


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
    w, _ = restr.eigen
    abscissa = float(np.max(w.real))
    # one line: the message is printed as the CLI's one-line error
    spectrum = np.array2string(np.sort_complex(w), max_line_width=np.inf)
    families = list(result.families)
    if not families:
        raise QssTheoryError(
            f"Perron existence failed: no QSS family found; spectrum {spectrum}"
        )
    perron_alpha = -abscissa
    marked = []
    found_perron = False
    for fam in families:
        is_perron = abs(fam.alpha - perron_alpha) <= 1e-7
        found_perron = found_perron or is_perron
        anchor = replace(fam.anchor, is_perron=is_perron)
        endpoints = tuple(replace(c, is_perron=is_perron) for c in fam.endpoints)
        marked.append(replace(fam, anchor=anchor, endpoints=endpoints))
    if not found_perron:
        raise QssTheoryError(
            f"Perron existence failed: no family at spectral abscissa {abscissa:.6e}; "
            f"spectrum {spectrum}"
        )
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


def verify_qss(model, cert: QssCertificate, tol: float = 1e-8) -> VerificationReport:
    """Check a certificate against the equivalent characterizations.

    (a) the conditioned evolution returns nu; (b) tr(T_t*(nu) p0_perp) =
    exp(-alpha t); (c) multiplicativity f(t+s) = f(t) f(s); (d) invariance
    under n=3 repeated measure-and-condition cycles.  The decay rate is also
    cross-checked against -log f(1).
    """
    ctx = as_analysis(model)
    schr, perp = ctx.schr, ctx.spec.p0_perp
    nu = cert.nu
    alpha = cert.alpha

    def f(t: float) -> float:
        return float(np.trace(apply_semigroup(schr, t, nu) @ perp).real)

    residual_defn = 0.0
    residual_exp = 0.0
    for t in VERIFY_TIMES:
        evolved = apply_semigroup(schr, t, nu)
        ft = float(np.trace(evolved @ perp).real)
        residual_defn = max(residual_defn, frob(perp @ evolved @ perp / ft - nu))
        residual_exp = max(residual_exp, abs(ft - np.exp(-alpha * t)))

    residual_mult = 0.0
    fcache = {t: f(t) for t in MULT_GRID}
    for t in MULT_GRID:
        for s in MULT_GRID:
            residual_mult = max(residual_mult, abs(f(t + s) - fcache[t] * fcache[s]))

    rho = nu
    for t in REPEATED_TIMES:
        rho = perp @ apply_semigroup(schr, t, rho) @ perp
    tr = float(np.trace(rho).real)
    residual_repeated = frob(rho / tr - nu) if tr > 0 else np.inf

    alpha_log = abs(alpha + np.log(f(1.0)))
    ok = (
        max(residual_defn, residual_exp, residual_mult, residual_repeated) <= tol
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
