"""Dense complex matrix primitives shared by the whole package.

Everything operates on plain numpy ``complex128`` arrays.  The helpers here
are the only place where hermiticity / positivity predicates, eigensolves and
matrix exponentials are implemented; the rest of the package goes through
these functions so that tolerances are applied consistently.  numpy is the
only dependency: :func:`expm` is a numpy scaling-and-squaring, so no command
loads scipy.

Default tolerances (overridable where a function takes ``tol``):

* ``TOL_HERM``  - hermiticity and projection defects
* ``TOL_TRACE`` - trace normalization of densities
* ``TOL_PSD``   - how negative the smallest eigenvalue may be
* ``TOL_EIG``   - relative eigenpair residuals
"""

from __future__ import annotations

import math

import numpy as np

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_EIG = 1e-9

# switch to scaling-and-squaring when the eigenvector basis is worse than this
EXPM_COND_LIMIT = 1e6
# most matrix entries per stacked expm call of a Propagator: its temporaries stay in cache
EXPM_CHUNK_ENTRIES = 2**13

# degree-13 Pade coefficients b_0 .. b_13 of exp, and the largest 1-norm they
# serve unscaled to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
THETA_13 = 5.371920351148152


class EigenSolveError(RuntimeError):
    """An eigensolve that does not converge or check out."""


def as_operator(a, dtype=complex, stack=False) -> np.ndarray:
    """Validate a square, finite matrix, or with ``stack`` a ``(..., n, n)`` stack of
    them, and return it as ``dtype``, complex128 by default."""
    a = np.asarray(a, dtype=dtype)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix{' or a stack of them' if stack else ''}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def frob(a) -> float:
    """Frobenius norm; the default distance between operators here."""
    return float(np.linalg.norm(a))


def hermiticity_defect(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a - adjoint(a)))) if a.size else 0.0


def is_hermitian(a, tol: float = TOL_HERM) -> bool:
    return hermiticity_defect(a) <= tol


def psd_check(a, tol: float = TOL_PSD):
    """Decide positive semidefiniteness of a Hermitian matrix, or of each matrix of a
    ``(..., n, n)`` stack from one stacked eigensolve.

    Returns ``(verdict, min_eigenvalue)``, of the stack's shape, where the verdict is
    true iff the smallest eigenvalue is >= -tol.  Raises on inputs that are not
    Hermitian within ``tol``.
    """
    a = as_operator(a, stack=True)
    if not is_hermitian(a, max(tol, TOL_HERM)):
        raise ValueError(
            f"not Hermitian: defect {hermiticity_defect(a):.3e} exceeds tolerance"
        )
    min_eig = np.linalg.eigvalsh(0.5 * (a + adjoint(a)))[..., 0]
    return min_eig >= -tol, min_eig


def validate_density(rho) -> np.ndarray:
    """Check the density-matrix invariants within the ``TOL_*`` tolerances; return the matrix."""
    rho = as_operator(rho)
    defect = hermiticity_defect(rho)
    if defect > TOL_HERM:
        raise ValueError(f"density not Hermitian: defect {defect:.3e}")
    ok, min_eig = psd_check(rho)
    if not ok:
        raise ValueError(f"density not PSD: min eigenvalue {min_eig:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"density trace {tr} is not 1")
    return rho


def projection_rank(p) -> int:
    """Verify within the ``TOL_*`` tolerances that ``p`` is an orthogonal projection; return its rank."""
    p = as_operator(p)
    if hermiticity_defect(p) > TOL_HERM:
        raise ValueError("projection is not Hermitian")
    if frob(p @ p - p) > TOL_HERM * max(1.0, frob(p)):
        raise ValueError("matrix is not idempotent")
    w = np.linalg.eigvalsh(0.5 * (p + adjoint(p)))
    if np.any(np.minimum(np.abs(w), np.abs(w - 1.0)) > TOL_PSD):
        raise ValueError("projection eigenvalues are not all 0 or 1")
    return int(np.sum(w > 0.5))


def vectorize(x) -> np.ndarray:
    """Column-stacking vectorization: vec([[a,b],[c,d]]) = (a, c, b, d)."""
    x = as_operator(x)
    return x.reshape(-1, order="F").copy()


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`.  Length must be a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape(d, d, order="F").copy()


def expm(a) -> np.ndarray:
    """Exponential of a square matrix, or of each matrix of a ``(..., n, n)`` stack.

    Degree-13 Pade after scaling by 2^-s, then s squarings, with s the least
    power that brings the matrix's 1-norm to ``THETA_13``.  s is chosen per
    matrix, each product and solve is one BLAS or LAPACK call per matrix and
    the rest is elementwise, so a matrix's bits do not depend on the rest of
    the stack.  The whole stack is one call: :meth:`Propagator.apply` and
    :meth:`Propagator.trace_rows` bound its size by ``EXPM_CHUNK_ENTRIES``.
    """
    a = as_operator(a, stack=True)
    shape, b = a.shape, PADE13
    a = a.reshape((math.prod(shape[:-2]),) + shape[-2:])
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    mant, s = np.frexp(np.maximum(norm / THETA_13, 1.0))
    s -= mant == 0.5  # s = ceil(log2(norm / THETA_13)), at least 0
    a = a * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        rows = np.flatnonzero(s > k)
        x = r[rows]
        r[rows] = x @ x
    return r.reshape(shape)


class Propagator:
    """``exp(t*a)`` for many ``t`` from one eigendecomposition ``a = V diag(w) V^-1``.

    ``eig`` is an eigenpair ``(w, V)`` of ``a`` solved elsewhere; without it
    ``a`` is eigendecomposed here.  The inverse, the condition-number gate
    (``EXPM_COND_LIMIT``) and the reconstruction check run once, on either.
    If both gates pass, ``spectral`` is true; otherwise :meth:`apply` and
    :meth:`trace_rows` fall back to :func:`expm` of ``t*a``, one stacked call
    per chunk of at most ``EXPM_CHUNK_ENTRIES`` entries of their times.
    ``trace_row`` is the functional that :meth:`coords` and :meth:`trace_rows`
    read.  These two and :meth:`apply` serve either path: callers need not know which.
    """

    def __init__(self, a, eig=None, trace_row=None):
        self.mat = a = as_operator(a)
        self.trace_row = trace_row
        self.w = self.v = self.v_inv = None
        self.spectral = False
        try:
            self.w, self.v = np.linalg.eig(a) if eig is None else eig
            self.v_inv = np.linalg.inv(self.v)
            cond = np.linalg.cond(self.v)
        except np.linalg.LinAlgError:  # also raised for an empty matrix
            return
        # the cond gate alone misses near-defective cases; require the
        # decomposition to actually reconstruct the matrix
        self.spectral = bool(
            np.isfinite(cond)
            and cond < EXPM_COND_LIMIT
            and frob((self.v * self.w) @ self.v_inv - a) <= 1e-12 * max(1.0, frob(a))
        )
        self._trace_weights = trace_row @ self.v if self.spectral and trace_row is not None else None

    def apply(self, t, vec: np.ndarray, coef=None) -> np.ndarray:
        """``exp(t*a) @ vec``: one time per row of a batch ``vec``, or times for one ``vec``.

        Spectral: ``V (exp(t*w) * (V^-1 vec))``, two :func:`rowdot` matvecs per row;
        ``coef``, if given, is the one :meth:`coords` returned for ``vec``.
        Fallback: one :func:`rowdot` matvec of ``expm(t*a)`` per row.
        """
        if self.spectral:
            coef = rowdot(self.v_inv, vec) if coef is None else coef
            return rowdot(self.v, np.exp(np.multiply.outer(t, self.w)) * coef)
        times = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(times.shape, np.shape(vec)[:-1]) + np.shape(vec)[-1:]
        times = np.broadcast_to(times, shape[:-1]).reshape(-1)
        vecs = np.broadcast_to(vec, shape).reshape(-1, shape[-1])
        out = np.empty(vecs.shape, dtype=complex)
        for rows, e in self._exponentials(times):
            out[rows] = rowdot(e, vecs[rows])
        return out.reshape(shape)

    def coords(self, vecs: np.ndarray) -> tuple:
        """``(coef, x, dx)`` per row of ``vecs``: ``trace_row @ exp(t*a) vec`` is
        ``sum(x * trace_rows(t))``, and its time derivative ``sum(dx * trace_rows(t))``.

        Spectral: ``coef = V^-1 vec``, which :meth:`apply` reuses, ``x`` its trace-weighted
        coefficients zeroed at modulus <= 1e-18, ``dx = x * w``.  Fallback: ``(None, vec, a vec)``.
        """
        if not self.spectral:
            return None, np.asarray(vecs, dtype=complex), rowdot(self.mat, vecs)
        coef = rowdot(self.v_inv, vecs)
        x = self._trace_weights * coef
        x[np.abs(x) <= 1e-18] = 0.0
        return coef, x, x * self.w

    def trace_rows(self, times) -> np.ndarray:
        """``exp(t*w)`` per time; the fallback forms ``trace_row @ expm(t*a)``."""
        times = np.asarray(times, dtype=float)
        if self.spectral:
            return np.exp(times[..., None] * self.w)
        out = np.empty((times.size, len(self.mat)), dtype=complex)
        for rows, e in self._exponentials(times.reshape(-1)):
            out[rows] = self.trace_row @ e
        return out.reshape(times.shape + out.shape[1:])

    def _exponentials(self, times: np.ndarray):
        """``(rows, expm(t*a) for t in times[rows])``, ``EXPM_CHUNK_ENTRIES`` entries at a time."""
        if not np.isfinite(times).all():
            raise ValueError("time parameter must be finite")
        step = max(1, EXPM_CHUNK_ENTRIES // max(1, self.mat.size))
        for c in range(0, times.size, step):
            rows = slice(c, c + step)
            yield rows, expm(times[rows, None, None] * self.mat)


def rowdot(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x[b]`` for each row ``b``: ``matmul`` runs one BLAS gemv per row, of one
    shape and layout, so a row's bits depend on that row only.  ``a`` is made
    C-contiguous, since an F-ordered one runs gemv transposed, with other bits."""
    return np.matmul(np.ascontiguousarray(a), x[..., None])[..., 0]


def eig_general(a):
    """All eigenpairs of a general real or complex matrix, or of each matrix of a
    ``(..., n, n)`` stack, from one ``np.linalg.eig``.

    A real matrix goes to LAPACK ``dgeev``: real eigenvalues come out with
    imaginary part exactly 0, complex ones in exact conjugate pairs.  Returns
    the eigenvalues as complex128 and unit-norm right eigenvectors as
    columns, sorted by descending real part; real parts within
    ``1e-12 * max(1, ||a||)`` of the next tie, and a run of ties is sorted by
    descending imaginary part, so roundoff does not order eigenvalues that
    share a real part.  Residuals ``||a v - lambda v||`` of every returned
    vector are checked against ``TOL_EIG * max(1, ||a||)``.

    The vectors of a real matrix with a real spectrum are float64.  In a stack
    they are complex as soon as one matrix has a complex eigenvalue, as numpy
    returns them; a real-spectrum matrix is still normalized in float64, so the
    real part of its vectors is, bit for bit, what the matrix gets alone.
    """
    a = as_operator(a, float if np.isrealobj(a) else complex, stack=True)
    n = a.shape[-1]
    flat = a.reshape((-1, n, n))
    try:
        w, v = np.linalg.eig(flat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolveError(f"eigensolver did not converge: {exc}") from exc
    norms = np.linalg.norm(v, axis=-2, keepdims=True)
    norms[norms == 0] = 1.0
    unit = v / norms
    if np.isrealobj(flat) and np.iscomplexobj(v):
        real = (w.imag == 0).all(axis=-1)
        if real.any():
            unit[real] = v.real[real] / norms[real]
    rows, w = np.arange(len(flat))[:, None], w.astype(complex)
    scale = np.maximum(1.0, np.linalg.norm(flat, axis=(-2, -1)))
    order = np.argsort(-w.real, axis=-1, kind="stable")
    re = w.real[rows, order]
    step = np.ones(re.shape, dtype=bool)  # where a run of ties starts
    step[:, 1:] = re[:, 1:] - re[:, :-1] < -1e-12 * scale[:, None]
    order = order[rows, np.lexsort((-w.imag[rows, order], np.cumsum(step, axis=-1)))]
    w, v = w[rows, order], unit[rows[:, :, None], np.arange(n)[:, None], order[:, None, :]]
    residual = np.linalg.norm(flat @ v - v * w[:, None, :], axis=-2).max(axis=-1, initial=0.0)
    for k in np.flatnonzero(residual > TOL_EIG * scale)[:1]:
        raise EigenSolveError(f"eigenpair residual {residual[k]:.3e} exceeds {TOL_EIG * scale[k]:.3e}")
    return w.reshape(a.shape[:-1]), v.reshape(a.shape)
