"""Quasi-stationary states from the spectrum of the restricted generator.

Pipeline: the real eigenvalue clusters of the compressed state-evolution
generator (``restr.real_clusters``) give the candidate decay rates alpha; each
real eigenspace is a real null space in a Hermitian frame, hence Hermitian; the
trace-one PSD slice of that eigenspace (a point, a segment, or a
higher-dimensional family) is the set of quasi-stationary states at rate alpha.
The family at the spectral abscissa is the Perron family, and Perron-Frobenius
structure enforces the existence theorem.

Extraction runs in two stages.  The decision stage finds which slices are
non-empty, for a whole stack of restrictions at once; ``sweep`` stops there.
The geometry stage builds the endpoints, the embedded basis and the
certificates of the non-empty ones.  The slice geometry is exact.  One
stacked primitive, ``_psd_ranges``, gives intervals {t : x + t d PSD} from the
roots of det(a + t b) on the joint range of x and d.  It is the segment of a
2-dimensional eigenspace; in larger ones a face walk moves along directions
supported on supp x to the boundary until none is left, which certifies an
extreme point (Ramana & Goldman, J. Global Optim. 7, 1995).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import operators as op
from .operators import adjoint, devectorize, frob
from .structure import RestrictedGenerator, hermitian_frame

VERIFY_HORIZON = 2.2  # verification bounds hold for t in [0, VERIFY_HORIZON / k]
EXTREME_POINTS_NOTE = "endpoints: 4 extreme points reached by face walks; the family has others"
FACE_TOL = 1e-10  # relative rank cut of supports and joint ranges in the PSD-slice geometry


class QssTheoryError(RuntimeError):
    """A structural guarantee of the theory failed numerically."""


@dataclass(frozen=True)
class QssCertificate:
    """One quasi-stationary state (full-space density) and its certificate.

    ``residual`` is computed on first read, from the ``restr`` and ``rho_hat``
    the state was built from; ``residual_eigen`` and :func:`verify_qss` read it.
    """

    alpha: float
    nu: np.ndarray
    restr: Optional[RestrictedGenerator] = field(default=None, repr=False, compare=False)
    rho_hat: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @cached_property
    def residual(self) -> tuple:
        return _residual(self.restr, self.alpha, self.rho_hat)

    @property
    def residual_eigen(self) -> float:
        return frob(self.residual[0])


@dataclass(frozen=True)
class QssFamily:
    """All QSSs sharing one decay rate.

    For a 2-dimensional real eigenspace the family is the segment
    ``nu0 + x * sigma`` for x in ``param_interval``; the endpoint states are
    kept as certificates.  For a larger eigenspace ``endpoints`` holds four
    extreme points of the family, not all of them.  ``herm_basis`` is
    embedded in the full space.  ``is_perron`` marks the family at the
    negated spectral abscissa, the mean of the top real cluster.
    """

    alpha: float
    herm_basis: tuple
    anchor: QssCertificate
    is_perron: bool
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


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) for unit roundoff u = 2^-53: n roundings."""
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


def _residual(restr: RestrictedGenerator, alpha: float, x: np.ndarray) -> tuple:
    """``(r, err)``: r = g x + x g^dag + sum_k L_k x L_k^dag + alpha x on the m x m data
    (g_hat, jumps_hat) that define the restriction, and an entrywise bound on its rounding:
    gamma_{2n} times the computed moduli expression A, n = 2m + K + 7, since a complex
    inner product of length m is off by gamma_{m+2} |a||b| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.5-3.6)."""
    g, jumps, ax = restr.g_hat, restr.jumps_hat, np.abs(x)
    r = g @ x + x @ adjoint(g) + alpha * x
    a = np.abs(g) @ ax + ax @ np.abs(g).T + abs(alpha) * ax
    for l in jumps:
        r = r + (l @ x) @ adjoint(l)
        a = a + (np.abs(l) @ ax) @ np.abs(l).T
    return r, _gamma(2 * (2 * len(x) + len(jumps) + 7)) * a


def _certificate(restr: RestrictedGenerator, alpha: float, rho_hat: np.ndarray) -> QssCertificate:
    return QssCertificate(alpha=alpha, nu=restr.embed(rho_hat), restr=restr, rho_hat=rho_hat)


def _min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (h + adjoint(h)))[0])


def _psd_ranges(xs: np.ndarray, ds: np.ndarray) -> list:
    """{t : x + t d PSD} as ``(lo, hi)``, or None when empty, for each pair of the
    ``(k, n, n)`` Hermitian stacks ``xs`` and ``ds``.

    Compressed to the joint range of x and d (a and b), the boundary points
    are roots of det(a + t b).  In b's eigenbasis, a's block on null(b) is free
    of t and must be positive definite, else no a + t b is PSD (a singular PSD
    block needs a common null vector of a and b); the roots are then those of
    its Schur complement s + t diag(beta) on range(b), eigvals(-s / beta).  The
    inertia of a + t b is constant between consecutive roots, so the PSD set is
    the gap whose midpoint is PSD, or else a single PSD root.  A gap with PSD
    interior makes the pencil definite and its roots real, so keeping only real
    parts adds at most harmless breakpoints.  Bounded for traceless d != 0.

    One stacked SVD gives the joint ranges; each group of one rank and one null
    pattern of b takes one eigh, cholesky, solve and eigvals, and each rank one
    eigvalsh of all midpoints and roots.  A group whose Cholesky fails is redone
    pencil by pencil: a pencil gets the bits of a stack of one.
    """
    u, s, _ = np.linalg.svd(np.concatenate([xs, ds], axis=-1))
    ranks = (s > FACE_TOL * s[:, :1]).sum(axis=-1)
    out = [None] * len(xs)
    for r in sorted(set(ranks.tolist())):
        idx = np.flatnonzero(ranks == r)
        ur = u[idx, :, :r]  # joint ranges
        a, b = (adjoint(ur) @ m[idx] @ ur for m in (xs, ds))
        beta, q = np.linalg.eigh(b)
        rot = adjoint(q) @ a @ q
        null = np.abs(beta) <= FACE_TOL * np.abs(beta).max(axis=-1, initial=0.0, keepdims=True)
        groups = {}
        for p, pattern in enumerate(null.tolist()):
            groups.setdefault(tuple(pattern), []).append(p)

        def roots(g, pattern):  # (pencil, sorted real roots) of the pencils g with a definite null block
            g, sel = np.array(g), np.array(pattern)
            i, j, block = sel.nonzero()[0], (~sel).nonzero()[0], rot[g]
            try:
                y = np.linalg.solve(np.linalg.cholesky(block[:, i[:, None], i]), block[:, i[:, None], j])
            except np.linalg.LinAlgError:
                return [] if len(g) == 1 else [pair for p in g.tolist() for pair in roots([p], pattern)]
            z = (adjoint(y) @ y - block[:, j[:, None], j]) / beta[g][:, j, None]
            return list(zip(g.tolist(), np.sort(np.linalg.eigvals(z).real, axis=-1).tolist()))

        solved = [pair for pattern, g in groups.items() for pair in roots(g, pattern)]
        # a + t b at each pencil's midpoints, then at its roots
        pens = [p for p, t in solved for _ in range(2 * len(t) - 1)]
        ts = [x for _, t in solved for x in [0.5 * (t0 + t1) for t0, t1 in zip(t, t[1:])] + t]
        h = a[pens] + np.array(ts)[:, None, None] * b[pens]
        low = iter(np.linalg.eigvalsh(0.5 * (h + adjoint(h)))[:, 0].tolist())
        for p, t in solved:
            mids, ends = [next(low) for _ in t[1:]], [next(low) for _ in t]
            k = int(np.argmax(mids)) if len(mids) > 1 else 0
            if mids and mids[k] >= -op.TOL_PSD:
                out[idx[p]] = t[k], t[k + 1]
            else:
                out[idx[p]] = next(((x, x) for x, e in zip(t, ends) if e >= -op.TOL_PSD), None)
    return out


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
        x = x + _psd_ranges((adjoint(u) @ x @ u)[None], (adjoint(u) @ step @ u)[None])[0][1] * step
    return x


def _leads_negative(sigma: np.ndarray) -> bool:
    """Whether the leading component of the Hermitian ``sigma`` is negative: of the real
    and imaginary parts of its upper triangle, entry by entry in row-major order, the
    first whose modulus is within a relative 1e-8 of the largest."""
    upper = sigma[np.triu_indices(len(sigma))]
    parts = np.column_stack([upper.real, upper.imag]).ravel()
    return bool(parts[np.argmax(np.abs(parts) >= (1.0 - 1e-8) * np.abs(parts).max())] < 0)


def _eigenspace(restr: RestrictedGenerator, cluster) -> tuple:
    """``(basis, notes)`` of a real cluster: restricted m x m Hermitian matrices, orthonormal
    in HS, from the cluster's real null space ``coords`` mapped through the Hermitian frame.
    A cluster with fewer null vectors than members is defective, and its note says so: only
    genuine eigenvectors enter the basis."""
    alg, geom = len(cluster.members), cluster.coords.shape[1]
    basis = tuple(devectorize(x) for x in (hermitian_frame(restr.m) @ cluster.coords).T)
    warning = f"defective eigenvalue: algebraic {alg}, geometric {geom}; generalized eigenvectors excluded"
    return basis, (warning,) if geom < alg else ()


def _slice(basis: tuple, notes: tuple):
    """An eigenspace's trace-one slice before the stacked tests: a rejection reason (a str),
    or ``(basis, notes, point, dirs, interval)`` with ``interval`` None.  1-D: ``point`` is the
    trace-one element.  2-D: ``point`` is the minimum-norm trace-one element nu0 and ``dirs``
    the unit traceless direction sigma.  >= 3-D: ``dirs`` are orthonormal traceless
    directions and ``point`` is nu0 when PSD, else the midpoint of the first non-empty chord
    through nu0 along one of them (a heuristic search)."""
    if not basis:
        return notes[0]
    traces = np.array([np.trace(b).real for b in basis])
    if len(basis) == 1:
        if abs(traces[0]) <= 1e-10:
            return "trace-zero eigenvector"
        return basis, notes, basis[0] / traces[0], None, None
    tnorm2 = float(traces @ traces)
    if tnorm2 <= 1e-16:
        return "no trace-one element in eigenspace"
    nu0 = sum(t * b for t, b in zip(traces, basis)) / tnorm2  # minimum-norm trace-one element
    if len(basis) == 2:
        return basis, notes, nu0, (traces[1] * basis[0] - traces[0] * basis[1]) / np.sqrt(tnorm2), None
    _, _, vt = np.linalg.svd(traces[None, :])  # rows 1.. are orthogonal to the traces
    dirs = np.tensordot(vt[1:], np.array(basis), axes=1)
    if _min_eig(nu0) < -op.TOL_PSD:  # anchor at the midpoint of the first non-empty chord through nu0
        chords = ((d, _psd_ranges(nu0[None], d[None])[0]) for d in dirs)
        d, chord = next(((d, chord) for d, chord in chords if chord is not None), (None, None))
        if chord is None:
            return "no PSD state on the chords through the minimum-norm element (heuristic search)"
        nu0 = nu0 + 0.5 * (chord[0] + chord[1]) * d
    return basis, notes, nu0, dirs, None


def _decide_stack(restrs) -> list:
    """Decision stage: per restriction, the :func:`_slice` of each real cluster, with every 1-D
    point of every restriction tested in one ``op.psd_check`` and every 2-D interval solved in
    one :func:`_psd_ranges`; a failed test replaces the slice data by its rejection reason."""
    found = [_slice(*_eigenspace(restr, c)) for restr in restrs for c in restr.real_clusters]
    ones, twos = ([k for k, f in enumerate(found) if not isinstance(f, str) and len(f[0]) == n] for n in (1, 2))
    if ones:
        ok, min_eig = op.psd_check(np.array([found[k][2] for k in ones]), op.TOL_PSD)
        for k, good, low in zip(ones, ok, min_eig):
            if not good:
                found[k] = f"not PSD (min eigenvalue {low:.3e})"
    if twos:
        ranges = _psd_ranges(np.array([found[k][2] for k in twos]), np.array([found[k][3] for k in twos]))
        for k, interval in zip(twos, ranges):
            found[k] = "empty PSD slice" if interval is None else found[k][:4] + (interval,)
    found = iter(found)
    return [[next(found) for _ in restr.real_clusters] for restr in restrs]


def _family(restr: RestrictedGenerator, alpha: float, basis, notes, point, dirs, interval) -> QssFamily:
    """Geometry stage: the family of a non-empty slice (:func:`_slice`), with its endpoint
    states, the embedded basis and the certificates."""
    anchor, points = point, ()
    if interval is not None:
        (lo, hi), sigma = interval, dirs
        anchor = point + 0.5 * (lo + hi) * sigma
        # the segment's direction is fixed up to sign by the family: report the
        # interval and the ends along the direction whose leading component is positive
        if _leads_negative(sigma):
            sigma, lo, hi = -sigma, -hi, -lo
        interval, points = (lo, hi), (point + lo * sigma, point + hi * sigma)
    elif dirs is not None:
        points = tuple(_walk_to_extreme(anchor, dirs, s * p) for p in np.eye(len(dirs))[:2] for s in (1.0, -1.0))
        notes = notes + (EXTREME_POINTS_NOTE,)
    return QssFamily(
        alpha=alpha,
        herm_basis=tuple(restr.embed(b) for b in basis),
        anchor=_certificate(restr, alpha, anchor),
        is_perron=alpha == -restr.real_clusters[0].mean,
        param_interval=interval,
        endpoints=tuple(_certificate(restr, alpha, x) for x in points),
        notes=notes,
    )


def extract_qss(restr: RestrictedGenerator) -> ExtractionResult:
    """Trace-one PSD representatives of each real eigenspace of ``restr``, in two stages.

    One candidate per real cluster of ``restr.real_clusters``, at rate minus its
    mean (:func:`_eigenspace`).  The decision stage (:func:`_decide_stack`) finds
    whether each slice is empty: dimension 1 by one stacked ``op.psd_check``,
    dimension 2 (a line) by its exact interval from one stacked
    :func:`_psd_ranges`, dimension >= 3 by an anchor state.  The geometry stage
    (:func:`_family`) builds, for the non-empty slices only, the certified
    endpoint (extremal-support) states of a segment, or four extreme points of a
    larger slice from face walks, flagged as a partial list; the embedded basis;
    the certificates.  :func:`rates_stack` stops after decision.
    """
    families, rejected = [], []
    for c, found in zip(restr.real_clusters, _decide_stack((restr,))[0]):
        alpha = 0.0 - c.mean  # a zero rate is +0, whatever the sign of the computed mean
        if isinstance(found, str):
            rejected.append(RejectedCandidate(alpha, found))
        else:
            families.append(_family(restr, alpha, *found))
    return ExtractionResult(families=tuple(families), rejected=tuple(rejected))


def rates_stack(restrs) -> tuple:
    """Per restriction, the ascending rates of its QSS families from the decision stage of
    :func:`extract_qss` alone, after the existence check of :func:`perron_structure`."""
    rates = []
    for restr, slices in zip(restrs, _decide_stack(restrs)):
        alphas = sorted(0.0 - c.mean for c, found in zip(restr.real_clusters, slices) if not isinstance(found, str))
        if not slices or isinstance(slices[0], str):  # the top cluster carries the Perron family
            _no_perron(restr, bool(alphas))
        rates.append(alphas)
    return tuple(rates)


def _no_perron(restr: RestrictedGenerator, found: bool):
    """Raise the existence failure of ``restr``, which has QSS families iff ``found``."""
    reason = f"no family at spectral abscissa {restr.real_clusters[0].mean:.6e}" if found else "no QSS family found"
    # one line: the message is printed as the CLI's one-line error
    spectrum = np.array2string(np.sort_complex(restr.eig[0]), max_line_width=np.inf)
    raise QssTheoryError(f"Perron existence failed: {reason}; spectrum {spectrum}")


def perron_structure(restr: RestrictedGenerator, result: ExtractionResult,
                     irreducible: bool = False) -> ExtractionResult:
    """Enforce the existence/uniqueness guarantees on the families of ``restr``; returns ``result``.

    Existence (finite dimension, subharmonic p0) requires a nonempty family
    at the negated spectral abscissa, which is a real eigenvalue (Evans &
    Hoegh-Krohn, J. London Math. Soc. 1978): the Perron family, marked at
    extraction.  A violation raises, carrying the full spectrum.  Under
    irreducibility the Perron family must be a single strictly positive state
    and the only family.
    """
    families = result.families
    if not any(fam.is_perron for fam in families):
        _no_perron(restr, bool(families))
    if irreducible:
        if len(families) != 1 or families[0].param_interval is not None:
            raise QssTheoryError(
                "irreducible restriction must carry a unique QSS; "
                f"found {len(families)} families"
            )
        nu_hat = restr.compress(families[0].anchor.nu)
        if _min_eig(nu_hat) <= 0:
            raise QssTheoryError("Perron state of an irreducible restriction must be strictly positive")
    return result


@dataclass(frozen=True)
class VerificationReport:
    residual_defn: float
    residual_exp_survival: float
    residual_mult: float
    residual_repeated: float
    alpha_log_crosscheck: float
    ok: bool


def verify_qss(cert: QssCertificate) -> VerificationReport:
    """Certify a QSS by the equivalent characterizations, from one residual.

    On the p0_perp corner T_t(nu) is the restricted evolution T^_t of nu^ =
    compress(nu), on the restriction ``cert`` carries; f(t) = tr T^_t(nu^).  Each
    value bounds its quantity for all t in [0, T], T = 2.2 / k, k = 2^floor(log2 alpha)
    for alpha >= 2 and 1 otherwise:
    ``residual_defn`` sup ||T^_t(nu^) / f(t) - nu^||_F, ``residual_exp_survival``
    sup |f(t) - e^{-alpha t}|, ``residual_mult`` sup |f(t+s) - f(t) f(s)| (t + s <= T),
    ``residual_repeated`` the definition's bound, since measure-and-condition cycles
    compose to T^_{t+s}, and ``alpha_log_crosscheck`` sup |alpha t + log f(t)|.

    Proof.  With r = S^(nu^) + alpha nu^, Duhamel's formula gives X_t := e^{alpha t}
    T^_t(nu^) - nu^ = int_0^t e^{alpha s} T^_s(r) ds.  T^_s is CP for any stored
    (g_hat, L_hat), and d/ds tr T^_s(y) <= lam tr T^_s(y) for y >= 0, lam the top
    eigenvalue of M = g + g^dag + sum_k L_k^dag L_k (<= 0 up to rounding), so
    T^*_s(1) <= e^{lam+ s} 1 and T^_s changes trace norms by at most e^{lam+ s}
    (Russo-Dye; Perez-Garcia, Wolf, Petz & Ruskai, J. Math. Phys. 47, 2006).  For
    rho >= ||r||_1 and c = max(0, alpha + lam+), ||X_t||_1 <= rho (e^{ct} - 1) / c =: E_t
    <= rho t e^{ct}, increasing in t; so eps_t = e^{-alpha t} E_t <= rho t e^{lam+ t}
    bounds ||T^_t(nu^) - e^{-alpha t} nu^||_1 for alpha >= 0.  Let E = E_T, delta >=
    |tr nu^ - 1|, N = ||nu^||_F, g(t) = e^{alpha t} f(t) = tr nu^ + tr X_t, so
    |g - 1| <= a = E + delta.  Then T^_t(nu^) / f - nu^ = (nu^ (1 - g) + X_t) / g gives
    the definition bound (E (1 + N) + delta N) / (1 - delta - E), i.e. 2 eps /
    (e^{-alpha t} - eps) plus the delta term; |f - e^{-alpha t}| = e^{-alpha t} |g - 1|
    <= e^{-alpha T} E + delta max(1, e^{-alpha T}); f(t+s) - f(t) f(s) =
    e^{-alpha (t+s)} (g(t+s) - g(t) g(s)) is at most max(1, e^{-alpha T}) (3a + a^2);
    and |alpha t + log f(t)| = |log g| <= -log(1 - a).  A non-positive denominator
    gives inf.

    Rounding: rho is the entrywise 1-norm of the computed r plus the bound of
    :func:`_residual`; lam+ adds to the computed top eigenvalue of M the gamma bound of
    M's products, M's asymmetry and LAPACK's backward error, taken as gamma_{4m}
    ||M||_F; the factor 1 + gamma_{m^2+64} covers the evaluation of the bounds.
    ``ok`` gates the four residuals at 1e-8 and the rate at 1e-7.
    """
    (r, err), g, jumps = cert.residual, cert.restr.g_hat, cert.restr.jumps_hat
    x, alpha, m = cert.rho_hat, cert.alpha, len(cert.rho_hat)
    mat = g + adjoint(g) + sum((adjoint(l) @ l for l in jumps), np.zeros_like(g))
    moduli = 2.0 * np.abs(g) + sum((np.abs(l).T @ np.abs(l) for l in jumps), np.zeros((m, m)))
    lam = float(np.linalg.eigvalsh(mat)[-1]) + _gamma(2 * (m + len(jumps) + 4)) * frob(moduli)
    lam += frob(mat - adjoint(mat)) + _gamma(4 * m + 1) * frob(mat)
    k = 2.0 ** math.floor(math.log2(alpha)) if alpha >= 2 else 1.0
    horizon, c = VERIFY_HORIZON / k, max(0.0, alpha + max(lam, 0.0))
    e = float(np.abs(r).sum() + err.sum()) * (math.expm1(c * horizon) / c if c > 0 else horizon)
    diag = np.diag(x).real
    delta = abs(float(diag.sum()) - 1.0) + _gamma(m) * float(np.abs(diag).sum())
    norm, decay, a = frob(x), math.exp(-alpha * horizon), e + delta
    up = 1.0 + _gamma(m * m + 64)
    defn = up * (e * (1 + norm) + delta * norm) / (1 - delta - e) if delta + e < 1 else math.inf
    survival = up * (decay * e + delta * max(1.0, decay))
    mult = up * max(1.0, decay) * (3 * a + a * a)
    rate = -up * math.log1p(-a) if a < 1 else math.inf
    return VerificationReport(
        residual_defn=defn, residual_exp_survival=survival, residual_mult=mult,
        residual_repeated=defn, alpha_log_crosscheck=rate,
        ok=max(defn, survival, mult) <= 1e-8 and rate <= 1e-7,
    )

