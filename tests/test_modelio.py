import json
import math
import warnings

import numpy as np
import pytest

from helpers import assert_same_lines, matrix_to_json, model_to_doc
from oracles import records
from qsslab import modelio
from qsslab.model import two_qubit_both, two_qubit_site1
from qsslab.modelio import ModelFileError, dumps, parse_model


def minimal_doc():
    return {
        "schema_version": "1",
        "label": "minimal",
        "dim": 2,
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "jump_ops": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        "p0_basis": [0],
    }


def test_parse_minimal_model():
    mf = parse_model(minimal_doc())
    assert mf.spec is not None
    assert mf.spec.dim == 2
    assert np.allclose(mf.spec.p0, np.diag([1.0, 0.0]))
    assert mf.classical is None


def test_parse_rejects_with_field_paths():
    doc = minimal_doc()
    doc["schema_version"] = "2"
    with pytest.raises(ModelFileError, match="schema_version"):
        parse_model(doc)

    doc = minimal_doc()
    doc["hamiltonian"][0][1] = [1.0]
    with pytest.raises(ModelFileError, match=r"hamiltonian\[0\]\[1\]"):
        parse_model(doc)

    doc = minimal_doc()
    doc["jump_ops"][0][0] = [[0.0, 0.0]]
    with pytest.raises(ModelFileError, match=r"jump_ops\[0\]\[0\]"):
        parse_model(doc)

    doc = minimal_doc()
    del doc["p0_basis"]
    with pytest.raises(ModelFileError, match="p0_basis"):
        parse_model(doc)

    doc = minimal_doc()
    doc["p0_basis"] = [7]
    with pytest.raises(ModelFileError, match="p0_basis"):
        parse_model(doc)

    doc = minimal_doc()
    doc["family"] = "unknown_family"
    with pytest.raises(ModelFileError, match="family"):
        parse_model(doc)

    doc = minimal_doc()
    doc["hamiltonian"][0][1] = [0.0, 1.0]  # makes H non-Hermitian
    doc["hamiltonian"][1][0] = [0.0, 1.0]
    with pytest.raises(ModelFileError, match="Hermitian"):
        parse_model(doc)

    with pytest.raises(ModelFileError, match="neither"):
        parse_model({"schema_version": "1", "label": "empty"})


def test_matrix_is_one_conversion_with_the_bits_of_each_pair():
    rng = np.random.default_rng(12)
    for dim in (1, 3, 12):
        doc = matrix_to_json(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        doc[0][0] = [3, -0.0]  # ints convert like floats; the sign of zero stays
        got = modelio._matrix(doc, dim, "m")
        want = np.array([[complex(re, im) for re, im in row] for row in doc])
        assert got.shape == (dim, dim) and got.dtype == complex
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda m: m[1][2].__setitem__(0, True), r"m\[1\]\[2\]: expected \[re, im\] pair"),
        (lambda m: m[2][0].__setitem__(1, "1"), r"m\[2\]\[0\]: expected \[re, im\] pair"),
        (lambda m: m[0][1].__setitem__(1, None), r"m\[0\]\[1\]: expected \[re, im\] pair"),
        (lambda m: m[0][1].__setitem__(1, [1.0]), r"m\[0\]\[1\]: expected \[re, im\] pair"),
        (lambda m: m[2][2].append(0.0), r"m\[2\]\[2\]: expected \[re, im\] pair"),
        (lambda m: m[1].pop(), r"m\[1\]: expected 3 entries"),
        (lambda m: m.pop(), r"^m: expected 3 rows"),
    ],
)
def test_matrix_names_the_offending_entry(edit, where):
    doc = matrix_to_json(np.arange(9.0).reshape(3, 3) * (1 + 1j))
    edit(doc)
    with pytest.raises(ModelFileError, match=where):
        modelio._matrix(doc, 3, "m")


def test_parse_classical_block_errors():
    doc = {
        "schema_version": "1",
        "classical": {"rate_matrix": [[-1.0, 1.0], [0.0, 0.0]], "absorbing_set": [1]},
    }
    mf = parse_model(doc)
    assert mf.classical is not None and mf.classical.n == 2

    bad = {"schema_version": "1", "classical": {"rate_matrix": [[-1.0], [0.0]], "absorbing_set": [1]}}
    with pytest.raises(ModelFileError, match=r"classical.rate_matrix\[0\]"):
        parse_model(bad)

    bad = {
        "schema_version": "1",
        "classical": {"rate_matrix": [[-1.0, 1.0], [1.0, -1.0]], "absorbing_set": [1]},
    }
    with pytest.raises(ModelFileError, match="closed"):
        parse_model(bad)


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: doc["classical"].update(absorbing_set=[1.5]), "classical.absorbing_set"),
        (lambda doc: doc["classical"].update(absorbing_set=[True]), "classical.absorbing_set"),
        (lambda doc: doc["classical"].update(absorbing_set=[1, "1"]), "classical.absorbing_set"),
        (lambda doc: doc.update(minimal_doc(), p0_basis=[True]), "p0_basis"),
        (lambda doc: doc.update(minimal_doc(), dim=True), "dim"),
        (lambda doc: doc.update(minimal_doc(), dim=2.0), "dim"),
    ],
    ids=["float-state", "bool-state", "string-state", "bool-p0-index", "bool-dim", "float-dim"],
)
def test_indices_and_dim_are_json_integers(edit, where):
    # a float, a bool or a string is not coerced to a state index or a dimension
    doc = {"schema_version": "1", "classical": {"rate_matrix": [[-1.0, 1.0], [0.0, 0.0]], "absorbing_set": [1]}}
    edit(doc)
    with pytest.raises(ModelFileError) as exc:
        parse_model(doc)
    assert exc.value.path == where


def test_model_roundtrip():
    for spec in (two_qubit_site1(0.4), two_qubit_both(1.0)):
        doc = model_to_doc(spec, family=None, params={"omega": 0.4})
        mf = parse_model(json.loads(json.dumps(doc)))
        assert np.allclose(mf.spec.hamiltonian, spec.hamiltonian)
        assert np.allclose(mf.spec.p0, spec.p0)
        assert all(
            np.allclose(a, b) for a, b in zip(mf.spec.jump_ops, spec.jump_ops)
        )


def test_matrix_to_json_roundtrip():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    encoded = matrix_to_json(m)
    decoded = np.array([[complex(re, im) for re, im in row] for row in encoded])
    assert np.array_equal(decoded, m)


def test_dumps_deterministic_and_sorted():
    a = dumps({"b": 1.5, "a": [True, False, None], "c": {"y": 2, "x": 0.1}})
    b = dumps({"c": {"x": 0.1, "y": 2}, "a": [True, False, None], "b": 1.5})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')
    assert json.loads(a)["c"]["x"] == 0.1


def test_dumps_float_fidelity():
    x = 0.1 + 0.2
    assert float(dumps(x)) == x
    assert dumps(np.float64(1.0)) == "1"
    with pytest.raises(ValueError):
        dumps(math.nan)
    with pytest.raises(ValueError):
        dumps(math.inf)
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})


def test_load_model_files(models_dir):
    import os

    for name in (
        "two_qubit_site1.json",
        "two_qubit_both.json",
        "classical_two_state.json",
        "classical_three_state.json",
    ):
        mf = modelio.load_model(os.path.join(models_dir, name))
        assert mf.classical is not None if name.startswith("classical") else mf.spec.label


def _reference_dumps(obj):
    """The recursive formatter that ``dumps`` replaced for complex arrays: one
    ``format`` call per float, a nested list per axis and a pair per entry."""
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        obj = np.stack([obj.real, obj.imag], -1).tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_reference_dumps, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_reference_dumps(obj[k])}" for k in sorted(obj)) + "}"
    if type(obj) is float:
        if not math.isfinite(obj):
            raise ValueError(f"{'NaN' if obj != obj else 'infinity'} is not serializable in reports")
        return format(obj, ".17g")
    return json.dumps(obj)  # bool, int, None, str


def _random_complex(rng, shape):
    parts = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-30, 30, (2,) + shape)
    bits = rng.integers(0, 2**64, (2,) + shape, dtype=np.uint64).view(np.float64)
    parts = np.where(rng.random((2,) + shape) < 0.3, np.where(np.isfinite(bits), bits, 0.0), parts)
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -17.0])
    parts = np.where(rng.random((2,) + shape) < 0.3, rng.choice(specials, (2,) + shape), parts)
    return parts[0] + 1j * parts[1]


def test_complex_arrays_format_like_the_recursive_formatter():
    rng = np.random.default_rng(2024)
    shapes = [(r, c) for r in range(1, 13) for c in range(1, 13)] + [(k, 4, 4) for k in (1, 2, 5)]
    for shape in shapes:
        a = _random_complex(rng, shape)
        assert dumps(a) == _reference_dumps(a), shape
        assert dumps({"m": a, "x": [a, 1.5]}) == _reference_dumps({"m": a, "x": [a, 1.5]})
    for bad in ((math.nan, math.inf), (math.inf, math.nan), (0.0, -math.inf)):
        a = np.zeros((3, 3), dtype=complex)
        a[1, 2], a[2, 0] = complex(bad[0], 1.0), complex(0.0, bad[1])
        with pytest.raises(ValueError) as ref:
            _reference_dumps(a)
        with pytest.raises(ValueError, match=f"^{ref.value}$"):
            dumps(a)


def test_trajectory_records_format_like_the_recursive_formatter():
    from qsslab.structure import restrict
    from qsslab.trajectory import build_kernel, sample_trajectories
    from test_trajectory import perron_qss

    for spec in (two_qubit_both(1.0), two_qubit_site1(1.0)):
        for rec in records(sample_trajectories(build_kernel(restrict(spec)), perron_qss(spec), 6.0, seed=3, n=500)):
            assert dumps(vars(rec)) == _reference_dumps(vars(rec))


def test_record_lines_format_like_the_recursive_formatter():
    from qsslab.structure import restrict
    from qsslab.trajectory import build_kernel, sample_trajectories
    from test_trajectory import perron_qss

    for spec in (two_qubit_both(1.0), two_qubit_site1(1.0)):
        kernel, nu = build_kernel(restrict(spec)), perron_qss(spec)
        for horizon in (6.0, 0.3):  # at 0.3 about half the records have no jump
            for first, n in ((0, 500), (7, 493), (0, 32), (0, 1)):
                batch = sample_trajectories(kernel, nu, horizon, seed=3, n=n, first_stream=first)
                assert horizon > 1 or n < 500 or sum(batch.counts == 0) > 100
                lines = list(modelio.record_lines(batch))
                floats = 34 * n + 33 * int(batch.counts.sum())  # 32 per state
                assert len(lines) == -(-floats // modelio.RECORD_CHUNK_ENTRIES)
                want = "".join(_reference_dumps(vars(rec)) + "\n" for rec in records(batch))
                assert_same_lines("".join(lines), want)


def test_batch_record_lines_reject_non_finite_values_like_dumps(monkeypatch):
    # the same errors when the writer reads a batch's columns, as simulate does
    from dataclasses import replace

    from qsslab.structure import restrict
    from qsslab.trajectory import build_kernel, sample_trajectories
    from test_trajectory import perron_qss

    spec = two_qubit_both(1.0)
    batch = sample_trajectories(build_kernel(restrict(spec)), perron_qss(spec), 6.0, seed=3, n=64)
    monkeypatch.setattr(modelio, "RECORD_CHUNK_ENTRIES", 500)
    i = next(i for i in range(40, 64) if batch.counts[i] >= 2)  # past the first chunk
    a = int(batch.offsets[i])

    def broken(*edits):
        columns = {}
        for name, at, value in edits:
            columns[name] = columns.get(name, getattr(batch, name).copy())
            columns[name][at] = value
        finals = (columns.pop("final_states", batch.final_states), columns.pop("final_weights", batch.final_weights))
        fake = replace(batch, **columns)
        vars(fake)["_finals"] = finals  # the final states a batch forms on first read
        return fake

    bad = [
        broken(("final_states", (i, 1, 2), complex(0.0, math.nan)), ("final_weights", i, math.inf)),
        broken(("final_weights", i, -math.inf), ("jump_times", a, math.nan)),
        broken(("jump_times", a + 1, math.inf), ("post_jump_states", (a, 0, 0), math.nan)),
        broken(("post_jump_states", (a, 0, 0), math.inf), ("post_jump_states", (a + 1, 1, 2), math.nan)),
        broken(("post_jump_states", (a + 1, 0, 0), complex(0.0, math.nan))),
    ]
    for broken_batch in bad:
        with pytest.raises(ValueError) as ref:
            _reference_dumps(vars(records(broken_batch)[i]))
        with pytest.raises(ValueError, match=f"^{ref.value}$"):
            "".join(modelio.record_lines(broken_batch))


def _percent_g(values):
    """Each float's ``'%.17g'`` text from ``_format17``, and from ``%`` itself."""
    values = np.asarray(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the kernel's arithmetic
        got = modelio._format17(values, ["\n"] * len(values)).split("\n")[:-1]
    return got, ["%.17g" % x for x in values.tolist()]


def _first_mismatch(values):
    got, want = _percent_g(values)
    return next(((x, g, w) for x, g, w in zip(np.asarray(values).tolist(), got, want) if g != w), None)


def test_format17_is_percent_g_on_random_bits_and_every_decade():
    # 10^6 values: finite float64 bit patterns over the whole range, and normal
    # values of either sign at every decade from 1e-40 to 1e20
    rng = np.random.default_rng(20)
    for _ in range(5):
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        assert _first_mismatch(bits[np.isfinite(bits)]) is None
    for k in range(-40, 21):
        decade = rng.uniform(1.0, 10.0, 8200) * 10.0**k * rng.choice([-1.0, 1.0], 8200)
        assert _first_mismatch(decade) is None, k


def test_format17_is_percent_g_on_mostly_zero_values():
    # records are mostly exact zeros, which skip the digit kernel: 90 % of +-0
    # among random finite bit patterns, and chunks of zeros only and of no zeros
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    values = np.where(rng.uniform(size=bits.size) < 0.9, rng.choice([0.0, -0.0], bits.size), bits)
    values = values[np.isfinite(values)]
    assert 0.89 < (values == 0).mean() < 0.91
    for chunk in (values, values[values == 0], values[values != 0], values[:0]):
        got, want = _percent_g(chunk)
        assert got == want


def test_format17_is_percent_g_on_edge_cases():
    tiny = np.finfo(float).tiny
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.concatenate([
        [0.0, 5e-324, 3 * 5e-324, 1e-310, tiny - 5e-324, tiny, np.finfo(float).max],
        [1e-270, 1e270], np.nextafter([1e-270, 1e270], 0), np.nextafter([1e-270, 1e270], np.inf),
        powers, np.nextafter(powers, 0),
        [9.999999999999999e16, 1e17, 0.0001, 9.9999999999999995e-05],
        [1e14 + 0.125, 1e14 + 0.375],  # ties: round half to even
        [0.5, 6.0, 100.0, 1e16, 123.0, 10.5, 1.25e-3],  # digits that end in zeros
    ])
    values = np.concatenate([edges, -edges])
    got, want = _percent_g(values)
    assert got == want
    assert got[list(values).index(1e14 + 0.125)] == "100000000000000.12"
    assert [got[list(values).index(x)] for x in (0.5, 6.0, 100.0)] == ["0.5", "6", "100"]
    assert (got[0], got[len(edges)]) == ("0", "-0")


def test_format17_falls_back_on_ties_and_the_ends_of_its_range(monkeypatch):
    slow = []

    def recording(x):
        slow.append(x)
        return format(x, ".17g")

    monkeypatch.setattr(modelio, "_fmt_float", recording)
    # two ties, three values outside [1e-270, 1e270] and one whose product lies
    # within 64 of 10^17
    fallback = [1e14 + 0.125, -(1e14 + 0.375), 1e-271, -1e271, 5e-324, 9.999999999999999e16]
    exact = [0.0, -0.0, 1.5, -6.0, 2e-270, -3e269, 0.3, 123.456, 1.2345678901234567e-21]
    values = np.array(fallback + exact)
    assert _percent_g(values)[0] == ["%.17g" % x for x in values.tolist()]
    assert slow == fallback


def test_record_lines_cut_records_longer_than_a_chunk(monkeypatch):
    # a 3-level model whose alpha is about 0: trajectories never stop jumping, so
    # a record of d = 3 (18 floats per state) at horizon 100 holds thousands of
    # floats; every chunk stays within the budget wherever its ends fall
    from qsslab.model import ModelSpec
    from qsslab.structure import restrict
    from qsslab.trajectory import build_kernel, sample_trajectories

    h = np.zeros((3, 3), dtype=complex)
    h[1, 2] = h[2, 1] = 0.3
    jump = np.diag([0.0, 1.0, 0.0]).astype(complex)
    spec = ModelSpec(dim=3, hamiltonian=h, jump_ops=(jump,), p0=np.diag([1.0, 0, 0]).astype(complex))
    batch = sample_trajectories(build_kernel(restrict(spec)), np.diag([0.0, 1.0, 0.0]), 100.0, seed=1, n=4)
    want = [_reference_dumps(vars(rec)) + "\n" for rec in records(batch)]
    assert 20 + 19 * batch.counts.min() > 700  # floats per record: longer than a chunk of 700
    sizes = []
    kernel = modelio._format17

    def spying(values, after):
        sizes.append(len(values))
        return kernel(values, after)

    monkeypatch.setattr(modelio, "_format17", spying)
    for budget in (19, 700, modelio.RECORD_CHUNK_ENTRIES):
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(modelio, "RECORD_CHUNK_ENTRIES", budget)
            assert_same_lines("".join(modelio.record_lines(batch)), "".join(want))
        assert max(sizes) <= budget and sum(sizes) == 4 * 20 + 19 * batch.counts.sum()
