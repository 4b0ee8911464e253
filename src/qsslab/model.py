"""GKLS models and their generators as explicit superoperator matrices.

The vectorization convention for the whole package is fixed here: column
stacking, so that ``vec(A X B) = kron(B.T, A) vec(X)``.  A generator is the
Schroedinger (state-evolution) matrix; the Heisenberg evolution is its
conjugate transpose, which realizes the trace pairing
``tr(x T_t(y)) = tr(T_t*(x) y)``, and is served by ``Propagator.adjoint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from .operators import adjoint, frob, vectorize


@dataclass(frozen=True)
class ModelSpec:
    """A GKLS model: Hamiltonian, jump operators, distinguished projection.

    ``p0`` must be an orthogonal projection onto a strict, nontrivial
    subspace; its rank is validated and cached at construction.
    """

    dim: int
    hamiltonian: np.ndarray
    jump_ops: tuple
    p0: np.ndarray
    label: str = ""
    p0_rank: int = field(init=False)

    def __post_init__(self):
        h = op.as_operator(self.hamiltonian)
        if h.shape[0] != self.dim:
            raise ValueError("hamiltonian dimension mismatch")
        if not op.is_hermitian(h, op.TOL_HERM):
            raise ValueError(
                f"hamiltonian not Hermitian: defect {op.hermiticity_defect(h):.3e}"
            )
        jumps = tuple(op.as_operator(l) for l in self.jump_ops)
        for l in jumps:
            if l.shape[0] != self.dim:
                raise ValueError("jump operator dimension mismatch")
        p0 = op.as_operator(self.p0)
        if p0.shape[0] != self.dim:
            raise ValueError("p0 dimension mismatch")
        rank = op.projection_rank(p0)
        if rank == 0 or rank == self.dim:
            raise ValueError(f"p0 rank {rank} must be strictly between 0 and {self.dim}")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_ops", jumps)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p0_rank", rank)

    @property
    def p0_perp(self) -> np.ndarray:
        return np.eye(self.dim) - self.p0

    def effective_drift(self) -> np.ndarray:
        """G = -iH - (1/2) sum_l L_l^dag L_l, the no-jump drift operator."""
        g = -1j * self.hamiltonian
        for l in self.jump_ops:
            g = g - 0.5 * (adjoint(l) @ l)
        return g


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices as one broadcast product, entry for entry."""
    (n, m), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * p, m * q)


def left_mul(a: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of x -> a x."""
    return _kron(np.eye(a.shape[0]), a)


def right_mul(b: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of x -> x b."""
    return _kron(b.T, np.eye(b.shape[0]))


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of x -> a x b."""
    return _kron(b.T, a)


def gkls_matrix(hamiltonian, jump_ops) -> np.ndarray:
    """Raw GKLS generator matrix without ModelSpec validation.

    L*(rho) = -i[H, rho] + sum_l (L rho L^dag - 1/2 {L^dag L, rho}).
    """
    h = np.asarray(hamiltonian, dtype=complex)
    m = -1j * (left_mul(h) - right_mul(h))
    for l in jump_ops:
        l = np.asarray(l, dtype=complex)
        k = adjoint(l) @ l
        m = m + sandwich(l, adjoint(l)) - 0.5 * (left_mul(k) + right_mul(k))
    return m


def build_generator(spec: ModelSpec) -> np.ndarray:
    """The d^2 x d^2 GKLS generator matrix of ``spec``, checked trace-preserving."""
    m = gkls_matrix(spec.hamiltonian, spec.jump_ops)
    defect = np.linalg.norm(vectorize(np.eye(spec.dim)).conj() @ m)
    if defect > op.TOL_EIG * max(1.0, frob(m)):
        raise RuntimeError(f"generator is not trace-preserving: defect {defect:.3e}")
    return m


def apply_semigroup(prop: op.Propagator, t, x: np.ndarray) -> np.ndarray:
    """exp(t * prop.mat) applied to the operator x.  Semigroup only: t >= 0.

    On the spectral path ``Propagator.apply`` maps x into the generator's
    eigenbasis and back, O(d^4); the exponential is not formed.  A 1-D sequence
    of times gives a (k, d, d) stack from one ``Propagator.apply`` call, each
    slice bit for bit the scalar call's.
    """
    times = np.asarray(t, dtype=float)
    if not np.all((0 <= times) & (times < np.inf)):
        raise ValueError("semigroup is defined for finite t >= 0 only")
    x = op.as_operator(x)
    zero = times == 0
    if zero.all():
        return np.broadcast_to(x, times.shape + x.shape).copy()
    rows = prop.apply(times, x.reshape(-1, order="F"))  # vectorize(x), validated once
    # C-ordered slices, as devectorize returns: norms sum in memory order
    out = rows.reshape(times.shape + x.shape).swapaxes(-1, -2).copy()
    out[zero] = x
    return out


# ---------------------------------------------------------------------------
# Two-qubit fixtures: one decaying site, or decay on both sites.
# ---------------------------------------------------------------------------

def _two_qubit_pieces(omega: float):
    ket0 = np.array([[1.0], [0.0]], dtype=complex)
    ket1 = np.array([[0.0], [1.0]], dtype=complex)
    lower = ket0 @ ket1.conj().T  # |0><1|
    eye2 = np.eye(2, dtype=complex)
    s1m = np.kron(lower, eye2)
    s2m = np.kron(eye2, lower)
    s1p, s2p = adjoint(s1m), adjoint(s2m)
    h = 0.5 * omega * (s1p @ s2m + s1m @ s2p)
    p0 = np.zeros((4, 4), dtype=complex)
    p0[0, 0] = 1.0  # |00><00|
    return h, s1m, s2m, p0


def two_qubit_site1(omega: float = 1.0) -> ModelSpec:
    """Exchange Hamiltonian with decay on the first qubit only."""
    h, s1m, _, p0 = _two_qubit_pieces(omega)
    return ModelSpec(
        dim=4, hamiltonian=h, jump_ops=(s1m,), p0=p0,
        label=f"two_qubit_site1(omega={omega:g})",
    )


def two_qubit_both(omega: float = 1.0) -> ModelSpec:
    """Exchange Hamiltonian with decay on both qubits."""
    h, s1m, s2m, p0 = _two_qubit_pieces(omega)
    return ModelSpec(
        dim=4, hamiltonian=h, jump_ops=(s1m, s2m), p0=p0,
        label=f"two_qubit_both(omega={omega:g})",
    )


FIXTURE_FAMILIES = {
    "two_qubit_site1": two_qubit_site1,
    "two_qubit_both": two_qubit_both,
}
