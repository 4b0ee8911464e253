"""Tests of the benchmark itself: inputs, oracles, statistics and tracing.

Run from the repository root with ``python -m pytest qssbench/tests``.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _analyze_report(doc, tmp_path):
    from qsslab import cli

    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", str(path)]) == 0
    return out.getvalue()


# -- oracles ---------------------------------------------------------------

def test_analyze_oracle_accepts_real_report(tmp_path):
    doc = inputs.two_qubit_doc("two_qubit_site1", 1.0)
    alpha = oracles.perron_alpha(doc)
    assert alpha == pytest.approx(0.5, abs=1e-12)
    assert oracles.check_analyze(_analyze_report(doc, tmp_path), alpha) == []


def test_analyze_oracle_rejects_perturbed_alpha(tmp_path):
    doc = inputs.two_qubit_doc("two_qubit_both", 1.0)
    report = json.loads(_analyze_report(doc, tmp_path))
    report["qss_families"][0]["alpha"] += 1e-6
    errors = oracles.check_analyze(json.dumps(report), oracles.perron_alpha(doc))
    assert len(errors) == 1 and "Perron alpha" in errors[0]


def test_analyze_oracle_rejects_failed_verification(tmp_path):
    doc = inputs.two_qubit_doc("two_qubit_both", 1.0)
    report = json.loads(_analyze_report(doc, tmp_path))
    report["qss_families"][0]["verification"]["ok"] = False
    errors = oracles.check_analyze(json.dumps(report), oracles.perron_alpha(doc))
    assert len(errors) == 1 and "failed verification" in errors[0]


def test_analyze_oracle_rejects_missing_perron_family():
    report = {"qss_families": [{"alpha": 0.5, "is_perron": False, "verification": {"ok": True}}]}
    assert oracles.check_analyze(json.dumps(report), 0.5)


def test_reference_alpha_averages_the_split_jordan_pair():
    # at the collision the rightmost eigenvalues split by ~4e-6; their mean
    # is the double root 1/2
    doc = inputs.two_qubit_doc("two_qubit_site1", 0.5)
    assert oracles.perron_alpha(doc) == pytest.approx(0.5, abs=1e-9)


def test_sweep_oracle():
    omegas = [0.0, 0.5, 1.0]
    alphas = [oracles.perron_alpha(inputs.two_qubit_doc("two_qubit_site1", w)) for w in omegas]
    good = "omega,alpha_1,alpha_2\n0,0,1\n0.5,0.4999979,\n1,0.5,\n"
    assert oracles.check_sweep(good, omegas, alphas) == []
    bad = good.replace("0.4999979", "0.49997")
    assert len(oracles.check_sweep(bad, omegas, alphas)) == 1


def test_classical_oracle():
    alpha = oracles.subrate_alpha([[-2, 1, 1], [1, -2, 1], [0, 0, 0]], [2])
    assert alpha == pytest.approx(1.0)
    doc = {"embedded_match": {"alpha": 1.0, "ok": True}, "qsd": {"alpha": 1.0}}
    assert oracles.check_classical(json.dumps(doc), alpha) == []
    doc["embedded_match"]["ok"] = False
    assert oracles.check_classical(json.dumps(doc), alpha) == ["embedded_match.ok is false"]


def test_truncated_exponential_moments():
    rate, window = 1.5, 2.0
    x = np.linspace(0.0, window, 200001)
    pdf = rate * np.exp(-rate * x)
    z = np.trapezoid(pdf, x)
    mean = np.trapezoid(x * pdf, x) / z
    sd = math.sqrt(np.trapezoid(x * x * pdf, x) / z - mean**2)
    assert oracles.truncated_exp_moments(rate, window) == pytest.approx((mean, sd), rel=1e-8)


def test_simulate_oracle_flags_wrong_rate_and_deviation():
    mean, sd = oracles.truncated_exp_moments(2.0, 6.0)
    summary = {"n_trajectories": 100, "alpha": 1.0, "post_jump_max_deviation": 1e-15,
               "n_observed_jumps": 10000, "conditional_interjump_mean": mean,
               "ks_statistic": 0.001}
    assert oracles.check_simulate(json.dumps(summary), 1.0, 100, 6.0) == ([], [])
    summary["conditional_interjump_mean"] = mean + 6 * sd / 100
    summary["post_jump_max_deviation"] = 1e-6
    errors, _ = oracles.check_simulate(json.dumps(summary), 1.0, 100, 6.0)
    assert len(errors) == 2


# -- seeded inputs ---------------------------------------------------------

@pytest.mark.parametrize("d,n_jumps", [(8, 1), (10, 2), (12, 3)])
def test_generator_is_deterministic_and_subharmonic(d, n_jumps):
    a = inputs.random_subharmonic_doc(inputs._rng(7, d, 0), d, n_jumps)
    b = inputs.random_subharmonic_doc(inputs._rng(7, d, 0), d, n_jumps)
    c = inputs.random_subharmonic_doc(inputs._rng(8, d, 0), d, n_jumps)
    assert json.dumps(a) == json.dumps(b) != json.dumps(c)
    h, jumps, p0 = oracles.model_matrices(a)
    r = d // 2
    assert len(jumps) == n_jumps and a["p0_basis"] == list(range(r))
    for l in jumps:
        assert not np.any(l[r:, :r])                 # exactly zero block
    perp = np.eye(d) - p0
    g = -1j * h - 0.5 * sum(l.conj().T @ l for l in jumps)
    assert np.linalg.norm(perp @ g @ p0) <= 1e-15    # drift: zero up to rounding


def test_workload_inputs_depend_only_on_seed(tmp_path):
    first = inputs.build("fixtures-d4", 3, tmp_path / "a")
    second = inputs.build("fixtures-d4", 3, tmp_path / "b")
    assert first.generator == second.generator
    assert [Path(f).read_text() for f in first.model_files] == \
        [Path(f).read_text() for f in second.model_files]
    grid = first.generator["omega_grid"]
    assert grid[0] == 0.0 and grid[20] == 0.5 and grid[40] == 1.0
    assert grid == sorted(grid)
    known = [c.label for c in first.passes[0] if c.known_failure]
    assert "analyze two_qubit_site1 omega=0.5" in known
    assert all(label.startswith("analyze two_qubit_site1") for label in known)


# -- statistics ------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 101)) == (90.0, 90.0)
    assert run.tail(range(1, 12)) == (100.0 / 11, 1.0)
    assert run.tail(range(1, 11)) is None
    # ties at the cut move it down until ten samples are strictly beyond
    values = list(range(1, 90)) + [90] * 3 + list(range(91, 99))
    pct, value = run.tail(values)
    assert value == 89 and sum(v > value for v in values) >= 10


# -- tracing ---------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores():
    from qsslab import model, qss, structure, trajectory

    originals = (model.apply_semigroup, structure.check_subharmonic)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qss.apply_semigroup is model.apply_semigroup is not originals[0]
        assert trajectory.check_subharmonic is structure.check_subharmonic is not originals[1]
    finally:
        tracer.uninstall()
    assert qss.apply_semigroup is model.apply_semigroup is originals[0]
    assert trajectory.check_subharmonic is originals[1]


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "trajectory", ("build_kernel", "no_such_function"))
    monkeypatch.setitem(tracing.COUNTS, "qsslab.trajectory._NoSuchClass.method", ())
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "trajectory.no_such_function" in tracer.absent
    assert "qsslab.trajectory._NoSuchClass.method" in tracer.absent


def test_traced_analyze_counts_and_output_match(tmp_path):
    from qsslab import cli

    path = tmp_path / "site1.json"
    path.write_text(json.dumps(inputs.two_qubit_doc("two_qubit_site1", 1.0)))
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        cli.main(["analyze", str(path)])
    tracer = tracing.Tracer()
    traced = io.StringIO()
    tracer.install()
    try:
        with contextlib.redirect_stdout(traced):
            tracer.command(0, cli.main, ["analyze", str(path)])
    finally:
        tracer.uninstall()
    assert traced.getvalue() == plain.getvalue()
    assert tracer.calls("operators.expm") == 52
    assert tracer.count("numpy.linalg.eig") == 54
    assert tracer.calls("operators.eig_general") == 3
    assert tracer.calls("structure.check_subharmonic") == 3
    root = [s for s in tracer.spans if s.name == "cli"]
    assert len(root) == 1 and all(s.run == 0 for s in tracer.spans)
    assert sum(s.self_time for s in tracer.spans) == pytest.approx(
        root[0].end - root[0].start, rel=1e-9)


# -- declared metrics ------------------------------------------------------

def test_benchmark_json_declares_the_metrics_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "pass_s"}
    computed = set(run.layer_metrics(tracing.Tracer(), [])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == computed
