"""Dense complex matrix primitives shared by the whole package.

Everything operates on plain numpy ``complex128`` arrays.  The helpers here
are the only place where hermiticity / positivity predicates, eigensolves and
matrix exponentials are implemented; the rest of the package goes through
these functions so that tolerances are applied consistently.  numpy is the
only dependency: :class:`Propagator` falls back to a numpy Taylor cell table,
so no command loads scipy.

Default tolerances (overridable where a function takes ``tol``):

* ``TOL_HERM``  - hermiticity and projection defects
* ``TOL_TRACE`` - trace normalization of densities
* ``TOL_PSD``   - how negative the smallest eigenvalue may be
* ``TOL_EIG``   - relative eigenpair residuals
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_EIG = 1e-9

# switch to the Taylor cell table when the eigenvector basis is worse than this
EXPM_COND_LIMIT = 1e6


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


class Propagator:
    """``exp(t*a)`` for many ``t`` from one eigendecomposition ``a = V diag(w) V^-1``.

    ``eig`` is an eigenpair ``(w, V)`` of ``a`` solved elsewhere; without it
    ``a`` is eigendecomposed here.  The inverse, the condition-number gate
    (``EXPM_COND_LIMIT``) and the reconstruction check run once, on either.
    If both gates pass, ``spectral`` is true; otherwise :meth:`apply` and
    :meth:`trace_rows` fall back to the :class:`_CellTable` of ``a`` and of
    ``a^T``, each built on its first call.
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
        Fallback: the cell table of ``a``, whose times must be finite and >= 0.
        """
        if self.spectral:
            coef = rowdot(self.v_inv, vec) if coef is None else coef
            return rowdot(self.v, np.exp(np.multiply.outer(t, self.w)) * coef)
        times = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(times.shape, np.shape(vec)[:-1]) + np.shape(vec)[-1:]
        times = np.broadcast_to(times, shape[:-1]).reshape(-1)
        vecs = np.broadcast_to(vec, shape).reshape(-1, shape[-1])
        return self._cells.apply(times, vecs).reshape(shape)

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
        """``exp(t*w)`` per time; the fallback forms ``trace_row @ exp(t*a)`` as
        ``exp(t*a^T) trace_row`` from the cell table of ``a^T``."""
        times = np.asarray(times, dtype=float)
        if self.spectral:
            return np.exp(times[..., None] * self.w)
        flat = times.reshape(-1)
        out = self._trace_cells.apply(flat, np.broadcast_to(self.trace_row, (flat.size, len(self.mat))))
        return out.reshape(times.shape + out.shape[1:])

    @cached_property
    def _cells(self) -> _CellTable:
        return _CellTable(self.mat)

    @cached_property
    def _trace_cells(self) -> _CellTable:
        return _CellTable(self.mat.T)


class _CellTable:
    """``exp(t*a) v = E^j T(t - j h) v`` for times ``t >= 0``, with ``j = floor(t / h)``.

    ``h = 2^-k`` is the widest power of two with ``h ||a||_1 <= 1``.  ``T(s)`` is the
    Taylor polynomial of ``exp(s*a)`` of the least degree q whose remainder at
    ``||s a||_1 <= 1``, below ``(q+2) / ((q+1) (q+1)!)``, is under ``2^-55``: q = 18.
    ``E = T(h)``, and ``E^j`` is the product of the squares ``E^(2^b)`` over the bits
    ``b`` of ``j``, each squared once, on demand.  ``t / h`` and ``t - j h`` are exact,
    and every step is one :func:`rowdot` matvec per row, so a row's bits depend on it only.
    """

    def __init__(self, a: np.ndarray):
        self.a = np.ascontiguousarray(a)
        mant, k = math.frexp(float(np.abs(self.a).sum(axis=0).max(initial=0.0)))
        self.h = math.ldexp(1.0, (mant == 0.5) - k)  # h ||a||_1 is 1 or mant < 1
        self.degree = next(q for q in itertools.count(1) if math.factorial(q + 1) * (q + 1) > 2**55 * (q + 2))
        n = len(self.a)
        self.squares = [np.ascontiguousarray(self._taylor(np.full(n, self.h), np.eye(n)).T)]

    def _taylor(self, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``T(s) v`` per row by Horner's rule: ``v + s a (v + s a / 2 (... (v + s a / q v)))``."""
        y = v
        for k in range(self.degree, 0, -1):
            y = v + (s / k)[:, None] * rowdot(self.a, y)
        return y

    def apply(self, times: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """``exp(t*a) v`` for each time ``t`` of ``times`` (n,) and row ``v`` of ``vecs`` (n, len(a))."""
        j = np.floor(times / self.h)
        if not np.all(np.isfinite(j) & (j >= 0)):
            raise ValueError("time parameter must be finite and non-negative")
        out = self._taylor(times - j * self.h, vecs)
        for b in range(int(j.max(initial=0)).bit_length()):
            if b == len(self.squares):
                self.squares.append(self.squares[-1] @ self.squares[-1])
            rows = np.flatnonzero(j // 2.0**b % 2)
            out[rows] = rowdot(self.squares[b], out[rows])
        return out


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
