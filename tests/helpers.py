"""Test-only helpers: the Choi matrix of a superoperator, a matrix or a ModelSpec as a
model-file document, fast-decaying, rotated and spectator models and a line-by-line
text comparison."""

import numpy as np

from qsslab.model import ModelSpec, two_qubit_both
from qsslab.modelio import SCHEMA_VERSION
from qsslab.operators import devectorize, vectorize


def choi_matrix(superop_mat: np.ndarray) -> np.ndarray:
    """Choi matrix of the map realized by ``superop_mat``.

    C = sum_{ij} |i><j| (x) Phi(|i><j|); the map is completely positive iff
    C is PSD.
    """
    d2 = superop_mat.shape[0]
    d = int(round(d2**0.5))
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            block = devectorize(superop_mat @ vectorize(e))
            c[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    return c


def matrix_to_json(mat: np.ndarray):
    """A matrix as model files write it: row-major nested ``[re, im]`` pairs."""
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def model_to_doc(spec: ModelSpec, family: str = None, params: dict = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "label": spec.label,
        "dim": spec.dim,
        "hamiltonian": matrix_to_json(spec.hamiltonian),
        "jump_ops": [matrix_to_json(l) for l in spec.jump_ops],
        "p0_matrix": matrix_to_json(spec.p0),
    }
    if family:
        doc["family"] = family
    if params:
        doc["params"] = params
    return doc


def assert_same_lines(got: str, want: str):
    """Assert that two texts are equal, naming the first line that differs.

    ``assert got == want`` on megabyte record texts lets pytest diff them line by
    line with intraline hints, which takes minutes when they differ."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            cut = slice(max(0, i - 80), i + 80)
            raise AssertionError(f"line {k + 1} differs at character {i}:\n got  {a[cut]!r}\n want {b[cut]!r}")
    if len(got_lines) != len(want_lines):
        raise AssertionError(f"{len(got_lines)} lines, expected {len(want_lines)}")


def fast_decay_model(family=two_qubit_both, factor: float = 20) -> ModelSpec:
    """``family`` at omega = 1 with every jump operator x ``factor``.  For ``two_qubit_both``
    x20, alpha = 400: T_t(nu) = exp(-400 t) nu underflows to 0 by t = 2, so verification
    runs on the time scale k = 256."""
    spec = family(1.0)
    return ModelSpec(dim=4, hamiltonian=spec.hamiltonian, p0=spec.p0,
                     jump_ops=tuple(factor * l for l in spec.jump_ops),
                     label=f"{spec.label} x{factor:g}")


def rotated(spec: ModelSpec, seed: int) -> ModelSpec:
    """``spec`` with H, every L and p0 conjugated by a random unitary: p0 is not diagonal."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((spec.dim,) * 2) + 1j * rng.standard_normal((spec.dim,) * 2))

    def conj(x):
        return u @ x @ u.conj().T

    return ModelSpec(dim=spec.dim, hamiltonian=conj(spec.hamiltonian),
                     jump_ops=tuple(conj(l) for l in spec.jump_ops), p0=conj(spec.p0))


def with_spectator(spec: ModelSpec, k: int = 2) -> ModelSpec:
    """``spec`` on X (x) C^k, every operator tensored with 1_k: an idle spectator."""
    one = np.eye(k)
    return ModelSpec(dim=spec.dim * k, hamiltonian=np.kron(spec.hamiltonian, one),
                     jump_ops=tuple(np.kron(l, one) for l in spec.jump_ops), p0=np.kron(spec.p0, one))
