"""Model-file parsing and deterministic JSON/CSV emission.

Model files are JSON, schema_version "1".  Complex entries are [re, im]
pairs; matrices are row-major nested arrays of such pairs.  Parsing errors
carry the JSON path of the offending field.  Report serialization is byte
deterministic: keys sorted, floats rendered with 17 significant digits.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classical import RateMatrix
from .model import FIXTURE_FAMILIES, ModelSpec

SCHEMA_VERSION = "1"
RECORD_GROUP = 32  # trajectory records per array conversion of record_lines


class ModelFileError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ModelFile:
    label: str
    spec: Optional[ModelSpec]
    classical: Optional[RateMatrix]
    family: Optional[str]
    params: dict


def _matrix(value, dim: int, path: str) -> np.ndarray:
    """A ``dim`` x ``dim`` matrix of ``[re, im]`` pairs (parsed JSON) as complex128, from one
    conversion; the entries are walked only to name an offending one."""
    parts = np.array(value, dtype=object)
    kinds = set(map(type, parts.ravel().tolist()))
    if parts.shape == (dim, dim, 2) and all(
        issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds
    ):
        return parts.astype(float).view(complex)[..., 0]
    if not isinstance(value, list) or len(value) != dim:
        raise ModelFileError(path, f"expected {dim} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ModelFileError(f"{path}[{i}]", f"expected {dim} entries")
        for j, entry in enumerate(row):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)):
                raise ModelFileError(f"{path}[{i}][{j}]", f"expected [re, im] pair, got {entry!r}")
    raise ModelFileError(path, f"expected a {dim} x {dim} matrix of [re, im] pairs")


def parse_model(doc: dict) -> ModelFile:
    if not isinstance(doc, dict):
        raise ModelFileError("$", "model file must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ModelFileError(
            "schema_version", f"expected {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}"
        )
    label = doc.get("label", "")
    params = doc.get("params", {}) or {}
    family = doc.get("family")
    if family is not None and family not in FIXTURE_FAMILIES:
        raise ModelFileError("family", f"unknown model family {family!r}")

    spec = None
    if "dim" in doc:
        dim = doc["dim"]
        if not isinstance(dim, int) or dim <= 0:
            raise ModelFileError("dim", "must be a positive integer")
        h = _matrix(doc.get("hamiltonian"), dim, "hamiltonian")
        raw_jumps = doc.get("jump_ops", [])
        if not isinstance(raw_jumps, list):
            raise ModelFileError("jump_ops", "expected a list of matrices")
        jumps = tuple(
            _matrix(entry, dim, f"jump_ops[{k}]") for k, entry in enumerate(raw_jumps)
        )
        if "p0_basis" in doc:
            idx = doc["p0_basis"]
            if (
                not isinstance(idx, list)
                or not idx
                or not all(isinstance(i, int) and 0 <= i < dim for i in idx)
            ):
                raise ModelFileError("p0_basis", f"expected basis indices in [0, {dim})")
            p0 = np.zeros((dim, dim), dtype=complex)
            for i in idx:
                p0[i, i] = 1.0
        elif "p0_matrix" in doc:
            p0 = _matrix(doc["p0_matrix"], dim, "p0_matrix")
        else:
            raise ModelFileError("p0_basis", "model needs p0_basis or p0_matrix")
        try:
            spec = ModelSpec(dim=dim, hamiltonian=h, jump_ops=jumps, p0=p0, label=label)
        except ValueError as exc:
            raise ModelFileError("$", str(exc)) from exc

    classical = None
    if "classical" in doc:
        block = doc["classical"]
        if not isinstance(block, dict):
            raise ModelFileError("classical", "expected an object")
        rates = block.get("rate_matrix")
        if not isinstance(rates, list) or not rates:
            raise ModelFileError("classical.rate_matrix", "expected a nonempty matrix")
        n = len(rates)
        q = np.zeros((n, n))
        for i, row in enumerate(rates):
            if not isinstance(row, list) or len(row) != n:
                raise ModelFileError(f"classical.rate_matrix[{i}]", f"expected {n} entries")
            for j, entry in enumerate(row):
                if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                    raise ModelFileError(
                        f"classical.rate_matrix[{i}][{j}]", "expected a number"
                    )
                q[i, j] = entry
        absorbing = block.get("absorbing_set")
        if not isinstance(absorbing, list) or not absorbing:
            raise ModelFileError("classical.absorbing_set", "expected a nonempty list")
        try:
            classical = RateMatrix(n=n, q=q, absorbing_set=tuple(absorbing))
        except ValueError as exc:
            raise ModelFileError("classical", str(exc)) from exc

    if spec is None and classical is None:
        raise ModelFileError("$", "model file defines neither a quantum nor a classical model")
    return ModelFile(label=label, spec=spec, classical=classical, family=family, params=params)


def load_model(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError("$", f"invalid JSON: {exc}") from exc
    return parse_model(doc)


def matrix_to_json(mat: np.ndarray):
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


# ---------------------------------------------------------------------------
# Deterministic JSON emission
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        kind = "NaN" if x != x else "infinity"
        raise ValueError(f"{kind} is not serializable in reports")
    return format(x, ".17g")


@functools.cache
def _template(shape) -> str:
    """``%``-format of a complex array of ``shape``: nested lists of ``[re, im]`` pairs."""
    text = "[%.17g, %.17g]"
    for n in reversed(shape):
        text = "[" + ", ".join([text] * n) + "]"
    return text


def dumps(obj) -> str:
    """JSON text with sorted keys and 17-significant-digit floats."""
    if type(obj) is float:
        return _fmt_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dumps, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {dumps(obj[key])}")
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            # the text of dumps(matrix_to_json(obj)), from one format call
            parts = np.stack([obj.real, obj.imag], -1).ravel()
            if not np.isfinite(parts).all():
                _fmt_float(float(parts[~np.isfinite(parts)][0]))  # raises its error
            return _template(obj.shape) % tuple(parts.tolist())
        return dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


@functools.cache
def _record_template(n_jumps: int, shape) -> str:
    """``%``-format of the float fields of a trajectory record line, in sorted key
    order from ``final_state`` to ``post_jump_states``."""
    state = _template(shape)
    return (
        '"final_state": ' + state + ', "final_weight": %.17g, "horizon": %.17g, '
        '"jump_times": [' + ", ".join(["%.17g"] * n_jumps) + '], '
        '"post_jump_states": [' + ", ".join([state] * n_jumps) + '], '
    )


def record_lines(batch):
    """``dumps(vars(rec)) + "\\n"`` of each trajectory record, one string per group.

    ``batch`` is a :class:`~qsslab.trajectory.TrajectoryBatch`.  A group of
    ``RECORD_GROUP`` records gathers its floats from the batch's columns in line
    order, passes one finiteness check and one ``tolist`` and is one ``%`` of
    the records' templates.  The first non-finite value in record and key
    order raises the error ``dumps`` gives for it.
    """
    counts, times, posts = batch.counts, batch.jump_times, batch.post_jump_states
    finals, weights, horizon = batch.final_states, batch.final_weights, [batch.horizon]
    at = np.concatenate([[0], np.cumsum(counts)]).tolist()  # each record's first jump
    size = 2 * math.prod(finals.shape[1:])  # floats per state, C-ordered [re, im] pairs
    finals_f, posts_f = (x.view(np.float64).reshape(len(x), size) for x in (finals, posts))
    for g in range(0, len(batch), RECORD_GROUP):
        group = range(g, min(g + RECORD_GROUP, len(batch)))
        values = np.concatenate([x for i in group for x in (
            finals_f[i], weights[i:i + 1], horizon, times[at[i]:at[i + 1]],
            posts_f[at[i]:at[i + 1]].ravel())])
        bad = ~np.isfinite(values)
        if bad.any():
            _fmt_float(float(values[bad][0]))  # raises its error
        yield "".join(
            '{"censored": true, '
            + _record_template(at[i + 1] - at[i], finals.shape[1:])
            + f'"seed": {batch.seed}, "stream": {batch.first_stream + i}}}\n'
            for i in group
        ) % tuple(values.tolist())
