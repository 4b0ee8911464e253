"""GKLS models and their generators as explicit superoperator matrices.

Every generator is :func:`gkls_superop` of a drift and jumps: the restriction of
the compressed (g_hat, L_hat_k), the no-jump evolution of the counting process of
(G - 1/2 p0_perp, L_k) and, for reference, the full generator of (G, L_k).

The vectorization convention for the whole package is fixed here: column
stacking, so that ``vec(A X B) = kron(B.T, A) vec(X)``.  A generator is the
Schroedinger (state-evolution) matrix; the Heisenberg evolution is its
conjugate transpose, which realizes the trace pairing
``tr(x T_t(y)) = tr(T_t*(x) y)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import operators as op
from .operators import adjoint


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
        rank = _projection_rank(p0.tobytes(), self.dim)
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


@lru_cache(maxsize=1)  # the models of a sweep share their p0, which is validated once
def _projection_rank(p0: bytes, dim: int) -> int:
    return op.projection_rank(np.frombuffer(p0, dtype=complex).reshape(dim, dim))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices, or of each pair of two stacks, as one broadcast
    product, entry for entry."""
    (n, m), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * p, m * q))


def left_mul(a: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of x -> a x; of each matrix of a stack, too."""
    return _kron(np.eye(a.shape[-1]), a)


def right_mul(b: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of x -> x b; of each matrix of a stack, too."""
    return _kron(b.swapaxes(-1, -2), np.eye(b.shape[-1]))


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-stacking matrix of x -> a x b; of each pair of two stacks, too."""
    return _kron(b.swapaxes(-1, -2), a)


def gkls_superop(g: np.ndarray, jumps) -> np.ndarray:
    """Column-stacking matrix of x -> g x + x g^dag + sum_k L_k x L_k^dag.

    ``g`` is one drift or a stack of them, and each L_k of ``jumps`` one matrix or
    a stack alike: the caller iterates over the jump axis.
    """
    m = left_mul(g) + right_mul(adjoint(g))
    for l in jumps:
        m = m + sandwich(l, adjoint(l))
    return m


# ---------------------------------------------------------------------------
# Two-qubit fixtures: one decaying site, or decay on both sites.
# ---------------------------------------------------------------------------

def _two_qubit_pieces(omega: float):
    ket0 = np.array([[1.0], [0.0]], dtype=complex)
    ket1 = np.array([[0.0], [1.0]], dtype=complex)
    lower = ket0 @ ket1.conj().T  # |0><1|
    eye2 = np.eye(2, dtype=complex)
    s1m = _kron(lower, eye2)
    s2m = _kron(eye2, lower)
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
