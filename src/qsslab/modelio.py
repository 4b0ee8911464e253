"""Model-file parsing and deterministic JSON/CSV emission.

Model files are JSON, schema_version "1".  Complex entries are [re, im]
pairs; matrices are row-major nested arrays of such pairs.  Parsing errors
carry the JSON path of the offending field.  Report serialization is byte
deterministic: keys sorted, floats rendered with 17 significant digits, the
text of ``'%.17g'``.  ``dumps`` writes reports with ``'%.17g'`` itself.
``record_lines`` writes trajectory records in chunks of a fixed number of
floats through ``_format17``, which computes the same 17 digits exactly as
integers (a double-double product) and writes them with integer formatting;
the few values where that is not certain (ties, the ends of its range) fall
back to ``'%.17g'``.
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


class ModelFileError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ModelFile:
    spec: Optional[ModelSpec]
    classical: Optional[RateMatrix]
    family: Optional[str]


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
    family = doc.get("family")
    if family is not None and family not in FIXTURE_FAMILIES:
        raise ModelFileError("family", f"unknown model family {family!r}")

    spec = None
    if "dim" in doc:
        dim = doc["dim"]
        if type(dim) is not int or dim <= 0:  # a JSON integer: not a float, not a bool
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
                or not all(type(i) is int and 0 <= i < dim for i in idx)
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
            spec = ModelSpec(dim=dim, hamiltonian=h, jump_ops=jumps, p0=p0, label=doc.get("label", ""))
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
        if not isinstance(absorbing, list) or not absorbing or not all(type(i) is int for i in absorbing):
            raise ModelFileError("classical.absorbing_set", "expected a nonempty list of state indices")
        try:
            classical = RateMatrix(n=n, q=q, absorbing_set=tuple(absorbing))
        except ValueError as exc:
            raise ModelFileError("classical", str(exc)) from exc

    if spec is None and classical is None:
        raise ModelFileError("$", "model file defines neither a quantum nor a classical model")
    return ModelFile(spec=spec, classical=classical, family=family)


def load_model(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # UTF-8 is decoded as JSON is read
            raise ModelFileError("$", f"invalid JSON: {exc}") from exc
    return parse_model(doc)


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
            # the text of dumps of its nested lists of [re, im] pairs, from one format call
            parts = np.stack([obj.real, obj.imag], -1).ravel()
            if not np.isfinite(parts).all():
                _fmt_float(float(parts[~np.isfinite(parts)][0]))  # raises its error
            return _template(obj.shape) % tuple(parts.tolist())
        return dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


# The 17-digit kernel of record_lines.  A float x with 1e-270 <= |x| <= 1e270 has
# decimal exponent e = floor(log10 |x|), and P = |x| 10^(16 - e) lies in [10^16, 10^17).
_E_LO, _E_HI = -270, 270
_KEYS = (_E_HI - _E_LO + 1) * 2 * 10 * 17 * 2  # by e, sign, lead digit, width, padding
_SPLIT = 2.0**27 + 1  # Veltkamp's constant for doubles


class _Pieces:
    """The kernel's ``%``-format pieces by key (see :func:`_piece`), each made on
    first use: ``table[slot[key]]``, slot 0 until made."""

    def __init__(self):
        self.slot = np.zeros(_KEYS + 2, np.int32)
        self.table = np.array([None], dtype=object)

    def __getitem__(self, key: np.ndarray) -> np.ndarray:
        new = np.unique(key[self.slot[key] == 0])
        if new.size:
            self.slot[new] = len(self.table) + np.arange(new.size)
            made = np.empty(new.size, dtype=object)
            made[:] = [_piece(k) for k in new.tolist()]
            self.table = np.concatenate([self.table, made])
        return self.table[self.slot[key]]


@functools.cache
def _kernel_tables():
    """The kernel's constants, made on first use: ``hi`` and ``lo`` with hi + lo =
    10^(16 - e) to about 2^-106 relative for e in [_E_LO, _E_HI], each rounded
    once from exact integers (``int / int`` rounds correctly), and hi's halves
    (:func:`_halves`); 10^k as int64 for k = 0 .. 17; and the pieces."""
    hi, lo = [], []
    for e in range(_E_LO, _E_HI + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h_num, h_den = (num / den).as_integer_ratio()
        hi.append(h_num / h_den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    return (hi := np.array(hi)), np.array(lo), *_halves(hi), 10 ** np.arange(18, dtype=np.int64), _Pieces()


def _piece(key: int) -> str:
    """The ``%``-format of key ((((e - _E_LO) 2 + sign) 10 + lead) 17 + width) 2 +
    padded: the sign, the lead digit (``%d`` for the integer part if 1 <= e <= 16),
    the point and ``width`` more digits (``%d``, or ``%0Nd`` if ``padded``), and,
    outside -4 <= e <= 16 where ``%.17g`` writes fixed point, the exponent.  The
    keys ``_KEYS`` and ``_KEYS + 1`` give the text of 0.0 and -0.0."""
    if key >= _KEYS:
        return format(-0.0 if key > _KEYS else 0.0, ".17g")
    rest, padded = divmod(key, 2)
    rest, width = divmod(rest, 17)
    rest, lead = divmod(rest, 10)
    e, neg = divmod(rest, 2)
    e += _E_LO
    digits = f"%0{width}d" if padded else "%d" if width else ""
    point = "." if width else ""
    if -4 <= e < 0:
        text = f"0.{'0' * (-e - 1)}{lead}{digits}"
    else:
        text = ("%d" if 1 <= e <= 16 else str(lead)) + point + digits
    return "-" * neg + text + ("" if -4 <= e <= 16 else f"e{e:+03d}")


def _halves(x):
    """Veltkamp's split of x into a high half of 26 bits and the exact rest."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _format17(values: np.ndarray, after) -> str:
    """``"".join(_fmt_float(x) + a for x, a in zip(values, after))``, the floats'
    digits computed exactly as integers; ``after`` is a sequence of strings
    without ``%``.

    For 1e-270 <= |x| <= 1e270, P = |x| 10^(16 - e) is the sum of Dekker's exact
    TwoProduct of |x| and hi (Numer. Math. 18, 1971), whose rounded head ``prod``
    is an integer, and a rest (its error term plus |x| lo) off by about 1e-15.  So
    D = prod + rint(rest) is P correctly rounded, ``%.17g``'s 17 digits, unless
    the rest's fraction is within 1e-9 of 1/2 (a tie, such as 1e14 + 0.125) or
    D lies within 64 of 10^16 or 10^17 (where log10 may be off by one or the
    rounding carries).  With its trailing zeros stripped, D is written by ``%d``
    and ``%0Nd`` inside a piece that holds the sign, the lead digit, the point
    and the exponent; one piece per key, made once.  Zeros skip the (elementwise)
    kernel and take the pieces of 0.0 and -0.0; every other value (ties, the ends of
    the range and non-finite values, which raise) takes :func:`_fmt_float` itself.
    """
    hi_e, lo_e, hh_e, hl_e, pow10, pieces = _kernel_tables()
    key, values = _KEYS + np.signbit(values), values[nonzero := np.flatnonzero(values != 0)]  # zeros keyed here
    mag = np.abs(values)
    fast = (mag >= 1e-270) & (mag <= 1e270)  # false for non-finite values
    mag = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.int64).clip(_E_LO, _E_HI)
    hi, lo, hh, hl = (table[e - _E_LO] for table in (hi_e, lo_e, hh_e, hl_e))
    prod = mag * hi
    xh, xl = _halves(mag)
    rest = (((xh * hh - prod) + xh * hl) + xl * hh) + xl * hl + mag * lo
    digits = prod.astype(np.int64) + np.rint(rest).astype(np.int64)
    fast &= (np.abs(rest - np.floor(rest) - 0.5) > 1e-9) & (digits > 10**16 + 64) & (digits < 10**17 - 64)
    z, ends0 = np.zeros_like(digits), np.flatnonzero(fast & (digits // 10 * 10 == digits))
    tail = digits[ends0]
    for k in (16, 8, 4, 2, 1):  # count D's trailing zeros where it has one
        cut = tail // pow10[k]
        zeros = cut * pow10[k] == tail
        tail, z[ends0] = np.where(zeros, cut, tail), z[ends0] + k * zeros
    whole = (e >= 1) & (e <= 16)  # an integer part of two digits or more: one more argument
    z = np.minimum(z, np.where(whole, 16 - e, 16))  # zeros of the integer part stay
    width = 16 - z - np.where(whole, e, 0)  # digits after the point
    kept, scale = digits // pow10[z], pow10[width]
    head = kept // scale  # the integer part: the lead digit unless `whole`
    frac = kept - head * scale
    padded = (frac * 10 < scale) & (width > 0)  # a zero after the point or the lead
    neg = np.signbit(values)
    key[nonzero] = np.where(fast, ((((e - _E_LO) * 2 + neg) * 10 + np.where(whole, 0, head)) * 17 + width) * 2
                            + padded, _KEYS)
    text = pieces[key]
    text[nonzero[~fast]] = [_fmt_float(x) for x in values[~fast].tolist()]
    args = np.stack([head, frac], 1)[np.stack([fast & whole, fast & (width > 0)], 1)]
    out = np.empty(2 * len(key), dtype=object)
    out[0::2], out[1::2] = text, after
    return "".join(out.tolist()) % tuple(args.tolist())


RECORD_CHUNK_ENTRIES = 2**12  # most floats per chunk of record_lines: one kernel run each


def record_lines(batch):
    """One ``dumps`` line per trajectory of ``batch``, joined and cut into chunks.

    ``batch`` is a :class:`~qsslab.trajectory.TrajectoryBatch`.  A line's keys are
    ``censored`` (always true), ``final_state``, ``final_weight``, ``horizon``,
    ``jump_times``, ``post_jump_states``, ``seed`` and ``stream``.  The floats of a
    line come in five runs, each a slice of one column: the final state, the
    final weight, the horizon, the jump times and the post-jump states.  The
    floats of all lines, in line order, are cut into chunks of at most
    ``RECORD_CHUNK_ENTRIES``, whatever the records' lengths, so memory is bounded
    by the chunk, not by the longest record.  A chunk copies the slices of the
    columns it reads into one source and gathers its floats from it by one
    index array; one :func:`_format17` writes them, each followed by its text:
    a separator of the state template split at its placeholders, the next
    key, or its record's end.  The first non-finite value in record and key
    order raises the error ``dumps`` gives for it.
    """
    counts, at, n = batch.counts, batch.offsets, len(batch)
    finals, seed, first = batch.final_states, batch.seed, batch.first_stream
    seps = _template(finals.shape[1:]).split("%.17g")
    size = len(seps) - 1  # floats per state, C-ordered [re, im] pairs
    columns = (finals.view(np.float64).reshape(-1), batch.final_weights, np.array([batch.horizon]),
               batch.jump_times, batch.post_jump_states.view(np.float64).reshape(-1))
    run_len = np.stack([np.full(n, size), np.ones(n, int), np.ones(n, int), counts, size * counts], 1)
    run_src = np.stack([size * np.arange(n), np.arange(n), np.zeros(n, int), at[:-1], size * at[:-1]], 1)
    run_end = np.cumsum(run_len).reshape(n, 5)
    run_start = run_end - run_len
    # the text after a float, by run and place in a state; run ends are set apart
    follow = np.array([seps[1:-1] + [seps[-1] + ', "final_weight": '], [', "horizon": '] * size,
                       [', "jump_times": ['] * size, [", "] * size,
                       seps[1:-1] + [seps[-1] + ", " + seps[0]]], dtype=object)
    opening = '{"censored": true, "final_state": ' + seps[0]
    total = int(run_end[-1, -1])
    for lo in range(0, total, RECORD_CHUNK_ENTRIES):
        hi = min(lo + RECORD_CHUNK_ENTRIES, total)
        r0, r1 = np.searchsorted(run_end[:, -1], [lo, hi - 1], "right")  # the records it touches
        recs = np.arange(r0, r1 + 1)
        start, end = np.clip(run_start[recs], lo, hi), np.clip(run_end[recs], lo, hi)
        src, lens = run_src[recs] + start - run_start[recs], end - start  # the runs' parts in the chunk
        parts, shift, offset = [], np.zeros(5, int), 0
        for c, column in enumerate(columns):  # source indices grow along each column's runs
            used = np.flatnonzero(lens[:, c])
            a, b = (src[used[0], c], src[used[-1], c] + lens[used[-1], c]) if used.size else (0, 0)
            parts.append(column[a:b])
            shift[c], offset = offset - a, offset + b - a
        flat = np.repeat((src - start).ravel(), lens.ravel()) + np.arange(lo, hi)  # index in its column
        kind = np.repeat(np.tile(np.arange(5), len(recs)), lens.ravel())
        values = np.concatenate(parts)[flat + shift[kind]]
        after = follow[kind, flat % size]
        times_end = run_end[recs, 3]
        after[times_end[(counts[recs] > 0) & (times_end > lo) & (times_end <= hi)] - 1 - lo] = (
            '], "post_jump_states": [' + seps[0])
        done = recs[run_end[recs, 4] <= hi]
        after[run_end[done, 4] - 1 - lo] = [
            (seps[-1] + "]" if counts[i] else ', "jump_times": [], "post_jump_states": []')
            + f', "seed": {seed}, "stream": {first + i}}}\n' + (opening if i + 1 < n else "")
            for i in done.tolist()]
        yield (opening if lo == 0 else "") + _format17(values, after)
