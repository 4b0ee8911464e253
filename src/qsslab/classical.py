"""Classical absorbing chains as diagonal quantum models.

A continuous-time Markov chain with a closed absorbing set embeds into a
GKLS model with zero Hamiltonian and one jump operator per nonzero rate;
diagonal densities then evolve exactly as the classical chain.  This gives
an independent commutative oracle for the quasi-stationary pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as op
from . import qss as qss_mod
from . import structure as structure_mod
from .model import ModelSpec
from .operators import frob


class ClassicalError(ValueError):
    pass


@dataclass(frozen=True)
class RateMatrix:
    """Conservative rate matrix with a closed absorbing set of states."""

    n: int
    q: np.ndarray
    absorbing_set: tuple

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.n, self.n):
            raise ClassicalError(f"rate matrix shape {q.shape} does not match n={self.n}")
        off = q - np.diag(np.diag(q))
        if np.any(off < -1e-12):
            raise ClassicalError("off-diagonal rates must be nonnegative")
        if np.max(np.abs(q.sum(axis=1))) > 1e-12:
            raise ClassicalError("rows must sum to zero")
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in self.absorbing_set):
            raise ClassicalError("absorbing set entries must be integers")
        a = tuple(sorted(set(int(i) for i in self.absorbing_set)))
        if not a or len(a) >= self.n:
            raise ClassicalError("absorbing set must be a nonempty strict subset")
        if any(i < 0 or i >= self.n for i in a):
            raise ClassicalError("absorbing set indices out of range")
        comp = [x for x in range(self.n) if x not in a]
        for x in a:
            for y in comp:
                if q[x, y] > 1e-12:
                    raise ClassicalError(
                        f"absorbing set not closed: rate {x}->{y} is {q[x, y]:g}"
                    )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "absorbing_set", a)

    @property
    def complement(self) -> tuple:
        return tuple(x for x in range(self.n) if x not in self.absorbing_set)

    def sub_rate_matrix(self) -> np.ndarray:
        c = list(self.complement)
        return self.q[np.ix_(c, c)]


@dataclass(frozen=True)
class ClassicalQsd:
    density: np.ndarray  # indexed by the complement states, sums to 1
    alpha: float
    unique: bool  # whether every nonnegative top-rate eigenvector gives this density


def classical_qsd(rm: RateMatrix) -> ClassicalQsd:
    """Left Perron eigenvector of the sub-rate matrix on the survivors."""
    sub = rm.sub_rate_matrix()
    w, v = op.eig_general(sub.T)
    top = w[0].real
    close = [j for j in range(len(w)) if abs(w[j].real - top) <= 1e-10 and w[j].imag == 0]
    densities = []
    for j in close:
        vec = v[:, j].real
        if np.sum(vec) < 0:
            vec = -vec
        s = np.sum(vec)
        if s <= 1e-12 or np.any(vec < -1e-9):
            continue
        densities.append(vec / s)
    if not densities:
        raise ClassicalError("no nonnegative Perron density found")
    # a defective top rate gives parallel eigenvectors, hence one density
    unique = all(np.abs(d - densities[0]).max() <= 1e-9 for d in densities)
    return ClassicalQsd(density=densities[0], alpha=float(0.0 - top), unique=unique)


def embed(rm: RateMatrix) -> ModelSpec:
    """Diagonal GKLS embedding: L_xy = sqrt(q[x,y]) |y><x|, H = 0."""
    n = rm.n
    jumps = []
    for x in range(n):
        for y in range(n):
            if x != y and rm.q[x, y] > 0:
                l = np.zeros((n, n), dtype=complex)
                l[y, x] = np.sqrt(rm.q[x, y])
                jumps.append(l)
    p0 = np.zeros((n, n), dtype=complex)
    for a in rm.absorbing_set:
        p0[a, a] = 1.0
    return ModelSpec(
        dim=n, hamiltonian=np.zeros((n, n), dtype=complex),
        jump_ops=tuple(jumps), p0=p0, label="classical-embedding",
    )


@dataclass(frozen=True)
class EmbeddedMatch:
    """The family of the embedded model that carries the QSD; None where no family does."""

    alpha: Optional[float]
    alpha_gap: Optional[float]
    residual: Optional[float]
    ok: bool


@dataclass(frozen=True)
class CrosscheckReport:
    qsd: ClassicalQsd
    embedded_match: EmbeddedMatch
    n_extra_families: int  # families other than the match


def crosscheck(rm: RateMatrix) -> CrosscheckReport:
    """Classical QSD vs the quantum pipeline on the embedded model.

    The diagonal embedding of the QSD must reappear as a QSS with the same
    decay rate: the match is the family nearest to it of those within 1e-6 of
    the rate.  The other (possibly non-diagonal) families are counted, not judged.
    """
    qsd = classical_qsd(rm)
    spec = embed(rm)
    result = qss_mod.extract_qss(structure_mod.restrict(spec))

    nu_hat_target = np.zeros((spec.dim, spec.dim), dtype=complex)
    for val, x in zip(qsd.density, rm.complement):
        nu_hat_target[x, x] = val
    match = EmbeddedMatch(None, None, None, False)
    for fam in result.families:
        gap, res = abs(fam.alpha - qsd.alpha), _distance_to_family(fam, nu_hat_target)
        if gap <= 1e-6 and (match.residual is None or res < match.residual):
            match = EmbeddedMatch(fam.alpha, gap, res, gap <= 1e-9 and res <= 1e-9)
    return CrosscheckReport(qsd, match, len(result.families) - (match.alpha is not None))


def _distance_to_family(fam, target: np.ndarray) -> float:
    """Distance from ``target`` to span(``fam.herm_basis``).

    The family is the PSD trace-one part of that span, so a PSD trace-one
    target is a member iff the distance is zero.  The embedded basis is
    Hilbert-Schmidt orthonormal, which makes the distance the norm of the
    orthogonal remainder.
    """
    return frob(target - sum(np.vdot(b, target).real * b for b in fam.herm_basis))
