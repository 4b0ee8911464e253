"""Dense complex matrix primitives shared by the whole package.

Everything operates on plain numpy ``complex128`` arrays.  The helpers here
are the only place where hermiticity / positivity predicates, eigensolves and
matrix exponentials are implemented; the rest of the package goes through
these functions so that tolerances are applied consistently.

Default tolerances (all overridable per call):

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


class EigenSolveError(RuntimeError):
    """An eigensolve that does not converge or check out."""


def as_operator(a) -> np.ndarray:
    """Validate a square, finite complex matrix and return it as complex128."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
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
    """Decide positive semidefiniteness of a Hermitian matrix.

    Returns ``(verdict, min_eigenvalue)`` where the verdict is true iff the
    smallest eigenvalue is >= -tol.  Raises on inputs that are not Hermitian
    within ``tol``.
    """
    a = as_operator(a)
    if not is_hermitian(a, max(tol, TOL_HERM)):
        raise ValueError(
            f"not Hermitian: defect {hermiticity_defect(a):.3e} exceeds tolerance"
        )
    w = np.linalg.eigvalsh(0.5 * (a + adjoint(a)))
    min_eig = float(w[0])
    return min_eig >= -tol, min_eig


def validate_density(
    rho,
    tol_herm: float = TOL_HERM,
    tol_psd: float = TOL_PSD,
    tol_trace: float = TOL_TRACE,
) -> np.ndarray:
    """Check the density-matrix invariants and return the matrix."""
    rho = as_operator(rho)
    defect = hermiticity_defect(rho)
    if defect > tol_herm:
        raise ValueError(f"density not Hermitian: defect {defect:.3e}")
    ok, min_eig = psd_check(rho, tol_psd)
    if not ok:
        raise ValueError(f"density not PSD: min eigenvalue {min_eig:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"density trace {tr} is not 1")
    return rho


def projection_rank(p, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD) -> int:
    """Verify that ``p`` is an orthogonal projection and return its rank."""
    p = as_operator(p)
    if hermiticity_defect(p) > tol_herm:
        raise ValueError("projection is not Hermitian")
    if frob(p @ p - p) > max(tol_herm, 1e-10) * max(1.0, frob(p)):
        raise ValueError("matrix is not idempotent")
    w = np.linalg.eigvalsh(0.5 * (p + adjoint(p)))
    if np.any(np.minimum(np.abs(w), np.abs(w - 1.0)) > max(tol_psd, 1e-9)):
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
    If both gates pass, ``spectral`` is true; otherwise every call falls back
    to scaling-and-squaring (scipy's, imported there only).  ``w``, ``v`` and
    ``v_inv`` are kept on either path for spectral projections.  ``trace_row``
    is the functional that :meth:`trace_coords` and :meth:`trace_rows` read.
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

    def matrix(self, t: float) -> np.ndarray:
        if not np.isfinite(t):
            raise ValueError("time parameter must be finite")
        if self.spectral:
            return (self.v * np.exp(t * self.w)) @ self.v_inv
        import scipy.linalg  # here only: a command that stays spectral never loads scipy
        return scipy.linalg.expm(t * self.mat)

    def adjoint(self) -> Propagator:
        """Propagator of ``adjoint(a)``: pairs (conj(w), V^-dag), inverse V^dag, same gates."""
        adj = object.__new__(Propagator)
        adj.mat, adj.spectral, adj.w = adjoint(self.mat), self.spectral, self.w.conj()
        adj.trace_row = None
        adj.v, adj.v_inv = (None if x is None else adjoint(x) for x in (self.v_inv, self.v))
        return adj

    def apply(self, t, vec: np.ndarray, coef=None) -> np.ndarray:
        """``exp(t*a) @ vec``: one time per row of a batch ``vec``, or times for one ``vec``.

        Spectral: ``V (exp(t*w) * (V^-1 vec))``, two :func:`rowdot` matvecs per row;
        ``coef``, if given, is ``rowdot(v_inv, vec)`` computed by the caller.
        """
        if self.spectral:
            coef = rowdot(self.v_inv, vec) if coef is None else coef
            return rowdot(self.v, np.exp(np.multiply.outer(t, self.w)) * coef)
        if np.ndim(t) == 0:
            return self.matrix(t) @ vec
        vec = np.broadcast_to(vec, np.shape(t) + np.shape(vec)[-1:])
        return np.reshape([self.matrix(s) @ x for s, x in zip(t, vec)], vec.shape)

    def trace_coords(self, vecs: np.ndarray, coef=None) -> np.ndarray:
        """``x`` with ``trace_row @ exp(t*a) vec = sum(x * trace_rows(t))``, per row of ``vecs``.

        Spectral: trace-weighted eigencoefficients, zeroed at modulus <= 1e-18;
        ``coef`` as in :meth:`apply`.
        """
        if not self.spectral:
            return np.asarray(vecs, dtype=complex)
        x = (self.trace_row @ self.v) * (rowdot(self.v_inv, vecs) if coef is None else coef)
        x[np.abs(x) <= 1e-18] = 0.0
        return x

    def trace_rows(self, times) -> np.ndarray:
        """``exp(t*w)`` per time; the fallback forms ``trace_row @ exp(t*a)`` by :meth:`matrix`."""
        times = np.asarray(times, dtype=float)
        if self.spectral:
            return np.exp(times[..., None] * self.w)
        rows = [self.trace_row @ self.matrix(t) for t in times.ravel()]
        return np.reshape(rows, times.shape + self.mat.shape[:1])


def rowdot(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x[b]`` for each row ``b``: ``matmul`` runs one BLAS gemv per row, of one
    shape and layout, so a row's bits depend on that row only.  ``a`` is made
    C-contiguous, since an F-ordered one runs gemv transposed, with other bits."""
    return np.matmul(np.ascontiguousarray(a), x[..., None])[..., 0]


def eig_general(a, tol: float = TOL_EIG):
    """All eigenpairs of a general complex matrix, from one ``np.linalg.eig``.

    Returns ``(eigenvalues, eigenvectors)`` with unit-norm right eigenvectors
    as columns, sorted by descending real part; real parts within
    ``1e-12 * max(1, ||a||)`` of the next tie, and a run of ties is sorted by
    descending imaginary part, so roundoff does not order a conjugate pair.  Residuals
    ``||a v - lambda v||`` of every returned vector are checked against
    ``tol * max(1, ||a||)``.
    """
    a = as_operator(a)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolveError(f"eigensolver did not converge: {exc}") from exc
    scale = max(1.0, frob(a))
    order = np.argsort(-w.real, kind="stable")
    run = np.cumsum(np.diff(w.real[order], prepend=np.inf) < -1e-12 * scale)
    order = order[np.lexsort((-w.imag[order], run))]
    w = w[order]
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0] = 1.0
    v = (v / norms)[:, order]
    residual = np.max(np.linalg.norm(a @ v - v * w, axis=0), initial=0.0)
    if residual > tol * scale:
        raise EigenSolveError(f"eigenpair residual {residual:.3e} exceeds {tol * scale:.3e}")
    return w, v
