"""Test-only helpers: the Choi matrix of a superoperator, and a ModelSpec as a model-file document."""

import numpy as np

from qsslab.model import ModelSpec
from qsslab.modelio import SCHEMA_VERSION, matrix_to_json
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
