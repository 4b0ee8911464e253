import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import fast_decay_model, model_to_doc
from qsslab import cli
from qsslab import operators as op
from qsslab import qss
from qsslab import structure
from qsslab.classical import ClassicalQsd, CrosscheckReport
from qsslab.model import two_qubit_both, two_qubit_site1


def run(argv):
    return cli.main(argv)


def model_path(models_dir, name):
    return os.path.join(models_dir, name)


def test_analyze_site1_golden(models_dir, tmp_path):
    out = tmp_path / "report.json"
    rc = run(["analyze", model_path(models_dir, "two_qubit_site1.json"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    fams = doc["qss_families"]
    assert len(fams) == 1
    fam = fams[0]
    assert abs(fam["alpha"] - 0.5) < 1e-9
    lo, hi = fam["param_interval"]
    assert lo < 0 < hi
    root = np.sqrt(3.0) / 4.0
    ends = sorted(
        complex(*end[1][2]).real
        for end in fam["endpoints"]
    )
    assert abs(ends[0] + root) < 1e-9 and abs(ends[1] - root) < 1e-9
    assert fam["is_perron"]
    assert fam["verification"]["ok"]
    assert doc["structure"]["subharmonic"]["verdict"]
    assert len(doc["spectrum"]) == 9


def test_analyze_both_sites_golden(models_dir, tmp_path):
    out = tmp_path / "report.json"
    rc = run(["analyze", model_path(models_dir, "two_qubit_both.json"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["structure"]["absorption"]["is_absorbing"] is True
    fams = doc["qss_families"]
    assert len(fams) == 1
    assert abs(fams[0]["alpha"] - 1.0) < 1e-9
    anchor = np.array(
        [[complex(re, im) for re, im in row] for row in fams[0]["anchor"]]
    )
    assert np.max(np.abs(anchor - np.diag([0.0, 0.5, 0.5, 0.0]))) < 1e-9
    rejected = {round(r["alpha"], 6): r["reason"] for r in doc["rejected_candidates"]}
    assert "not PSD" in rejected[2.0]


def test_analyze_reports_face_walk_endpoints(tmp_path):
    # two_qubit_both at omega = 0 has a 4-dimensional family: no segment,
    # but four certified extreme points, which the report must carry
    spec = two_qubit_both(0.0)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_doc(spec)))
    out = tmp_path / "report.json"
    assert run(["analyze", str(model), "--out", str(out)]) == 0
    fams = [f for f in json.loads(out.read_text())["qss_families"] if f["dimension"] >= 3]
    assert len(fams) == 1
    fam = fams[0]
    assert "param_interval" not in fam
    restr = structure.restrict(spec)
    (expected,) = [
        f for f in qss.extract_qss(qss.real_eigen_candidates(restr)).families
        if abs(f.alpha - fam["alpha"]) < 1e-12
    ]
    assert len(fam["endpoints"]) == len(expected.endpoints) == 4
    for got, cert in zip(fam["endpoints"], expected.endpoints):
        nu = np.array([[complex(re, im) for re, im in row] for row in got])
        op.validate_density(nu)
        assert np.max(np.abs(nu - cert.nu)) <= 1e-12


def test_analyze_deterministic_output(models_dir, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["analyze", model_path(models_dir, "two_qubit_site1.json"), "--out", str(out1)])
    run(["analyze", model_path(models_dir, "two_qubit_site1.json"), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "model, stream, digest",
    [
        ("two_qubit_site1.json", "out", "ee623610b138633200466d9725a320d952f361511ad8726e6ec6ccd391e20f7c"),
        ("two_qubit_both.json", "out", "5fbc4cb5828970b78ce9b39ca69a6cd20c47bddad53e6469bed9965268a81979"),
        (two_qubit_both(0.0), "out", "1c8b7966801dfbf968b110b1eb2820af8e6b3deb9e2bae0b48c92047bd647937"),
        (two_qubit_site1(0.5), "err", "12e44de94ebd545c1f8c21b274dd080fb00dfa05fe83685b0b7fb15f4a7785e4"),
    ],
    ids=["site1", "both", "both-omega0-face-walk", "site1-omega-half-failure"],
)
def test_analyze_output_is_pinned(models_dir, tmp_path, capsys, model, stream, digest):
    # the report byte for byte, and at omega = 1/2 the one-line Perron failure
    # with its spectrum: batching the time grids may not move a bit
    if isinstance(model, str):
        path = model_path(models_dir, model)
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_doc(model)))
    assert run(["analyze", str(path)]) == (0 if stream == "out" else 2)
    text = getattr(capsys.readouterr(), stream)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_commands_leave_scipy_unloaded(models_dir):
    # every command on the shipped models stays on the spectral path, so one
    # fresh process running them all imports numpy only: scipy serves just
    # the scaling-and-squaring fallback
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    quantum = [model_path(models_dir, f"two_qubit_{name}.json") for name in ("site1", "both")]
    classical = [model_path(models_dir, f"classical_{name}_state.json") for name in ("two", "three")]
    argvs = [
        argv + ["--out", os.devnull]
        for path in quantum
        for argv in (
            ["analyze", path],
            ["sweep", path, "--range", "0:1:5"],
            ["simulate", path, "--samples", "100", "--records", os.devnull],
        )
    ] + [["classical", path, "--out", os.devnull] for path in classical]
    probe = (
        "import sys\n"
        "from qsslab import cli\n"
        f"print([cli.main(argv) for argv in {argvs!r}])\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [str([0] * len(argvs)), "[]"]


def test_parser_is_reused_across_commands(models_dir, capsys):
    # build_parser is cached: a failed parse in between leaves it as it was
    argv = ["analyze", model_path(models_dir, "two_qubit_site1.json")]
    assert run(argv) == 0
    first = capsys.readouterr()
    assert run(["analyze", "--tol-eig", "x"]) == 1
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr() == first
    assert cli.build_parser() is cli.build_parser()


def test_analyze_input_errors(models_dir, tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().err

    # field-precise rejection: H not Hermitian
    doc = json.loads(
        open(model_path(models_dir, "two_qubit_site1.json"), encoding="utf-8").read()
    )
    doc["hamiltonian"][0][1] = [0.3, 0.0]
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(doc))
    assert run(["analyze", str(malformed)]) == 1
    assert "Hermitian" in capsys.readouterr().err

    # classical-only file has no quantum block
    assert run(["analyze", model_path(models_dir, "classical_two_state.json")]) == 1
    assert "no quantum model" in capsys.readouterr().err


@pytest.mark.parametrize("omega", [0.001, 0.015])
def test_analyze_small_omega_converges(omega, tmp_path):
    # the slowest decay rate is ~omega^2, so T_t(p0) settles only at t ~ 1e7
    spec = two_qubit_site1(omega)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_doc(spec)))
    out = tmp_path / "report.json"
    assert run(["analyze", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # reference: spectral abscissa of the compressed GKLS generator
    # rho -> G rho + rho G^dag + L rho L^dag on range(p0_perp)
    v = np.eye(4)[:, 1:]
    g = v.T @ spec.effective_drift() @ v
    gen = np.kron(np.eye(3), g) + np.kron(g.conj(), np.eye(3))
    for l in spec.jump_ops:
        l_hat = v.T @ l @ v
        gen = gen + np.kron(l_hat.conj(), l_hat)
    alpha_ref = -np.max(np.linalg.eigvals(gen).real)
    perron = [f for f in doc["qss_families"] if f["is_perron"]]
    assert len(perron) == 1
    assert abs(perron[0]["alpha"] - alpha_ref) <= 1e-9 * alpha_ref
    assert all(f["verification"]["ok"] for f in doc["qss_families"])
    assert doc["structure"]["absorption"]["is_absorbing"] is True


def test_numerical_failures_exit_2_without_traceback(models_dir, monkeypatch, capsys):
    def failing_eig_general(a, tol=op.TOL_EIG):
        raise op.EigenSolveError("eigensolver did not converge: injected")

    monkeypatch.setattr(op, "eig_general", failing_eig_general)
    rc = run(["analyze", model_path(models_dir, "two_qubit_site1.json"), "--out", os.devnull])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["numerical failure: eigensolver did not converge: injected"]


def test_non_finite_report_value_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    # an evolution that underflows to 0 makes the definition residual inf
    monkeypatch.setattr(qss, "apply_semigroup", lambda prop, t, x: np.zeros(np.shape(t) + np.shape(x)))
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(model_to_doc(fast_decay_model())))
    rc = run(["analyze", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "theory-consistency failure: residual_defn is inf for the family at alpha 4.000000e+02"
    ]
    assert not out.exists()


@pytest.mark.parametrize("factor", [20, 40])
@pytest.mark.parametrize("family", [two_qubit_site1, two_qubit_both])
def test_fast_decaying_models_verify(tmp_path, family, factor):
    # alpha up to ~1600 is verified on its own time scale: nothing underflows,
    # and roundoff on the slower modes grows by at most e^{2t}
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(model_to_doc(fast_decay_model(family, factor))))
    assert run(["analyze", str(path), "--out", str(out)]) == 0
    families = json.loads(out.read_text())["qss_families"]
    assert max(f["alpha"] for f in families) >= 370
    for fam in families:
        assert fam["verification"]["ok"] and fam["residual_defn"] <= 1e-13, fam["alpha"]


def test_absorbing_p0_with_a_non_decaying_family_exits_2(tmp_path, monkeypatch, capsys):
    # site1 at omega = 0 has a dark state and a family at alpha = 0; an
    # absorption report that calls p0 absorbing contradicts it
    absorption_operator = structure.absorption_operator
    monkeypatch.setattr(
        structure, "absorption_operator",
        lambda model: dataclasses.replace(absorption_operator(model), is_absorbing=True),
    )
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(model_to_doc(two_qubit_site1(0.0))))
    rc = run(["analyze", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line.startswith("theory-consistency failure: p0 is absorbing but a family has alpha ")
    assert not out.exists()


def test_theory_errors_outside_perron_exit_2(models_dir, monkeypatch, capsys):
    def failing_verify(model, cert, tol=1e-8):
        raise qss.QssTheoryError("injected verification failure")

    monkeypatch.setattr(qss, "verify_qss", failing_verify)
    rc = run(["analyze", model_path(models_dir, "two_qubit_site1.json"), "--out", os.devnull])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "injected verification failure" in err


def test_simulate_without_perron_family_exits_2(models_dir, monkeypatch, capsys):
    monkeypatch.setattr(qss, "extract_qss", lambda cands: qss.ExtractionResult((), ()))
    rc = run(["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "Perron existence failed" in err


def test_simulate_small_run(models_dir, tmp_path):
    out = tmp_path / "summary.json"
    records = tmp_path / "records.jsonl"
    rc = run(
        [
            "simulate", model_path(models_dir, "two_qubit_both.json"),
            "--samples", "100", "--horizon", "6", "--seed", "42",
            "--records", str(records), "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n_trajectories"] == 100
    assert doc["post_jump_max_deviation"] <= 1e-7
    assert abs(doc["alpha"] - 1.0) < 1e-9
    lines = records.read_text().strip().split("\n")
    assert len(lines) == 100
    rec = json.loads(lines[0])
    assert rec["seed"] == 42 and rec["horizon"] == 6


def test_simulate_long_horizon_widens_the_grid(models_dir, capsys):
    # a 0.01 grid to 1e6 would tabulate 10^8 exponential rows (14.9 GiB at
    # d = 4); the grid keeps 2^16 steps and Newton still refines each jump
    rc = run(["simulate", model_path(models_dir, "two_qubit_both.json"),
              "--samples", "20", "--horizon", "1e6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["horizon"] == 1e6 and doc["n_trajectories"] == 20
    numbers = [v for v in doc.values() if isinstance(v, (int, float))]
    assert doc["n_observed_jumps"] > 0 and np.isfinite(numbers).all()


def test_simulate_output_is_pinned(models_dir, tmp_path, capsys):
    # the summary and every record byte for byte: the bracket, the draw order
    # and the Newton refinement of each jump time may not move a bit.  At
    # horizon 0.3, 1544 of the site-1 records have no jump.
    records = tmp_path / "records.jsonl"
    cases = [
        ("two_qubit_both.json", "10",
         "0128cda0246fd3d2eaed2da2b8f7854e43fa0034c01329edec01654b0ff5a9c6",
         "4d3f3d055055813e24eda03f99aec852681b4d6b53477747f11fe9cf7d8e0aec"),
        ("two_qubit_site1.json", "6",
         "4f3b597771be3695a67b421164bd1b26413941fe9a717df96d45ee8900bdd3a8",
         "e9a67ac077241c870bbf82e32a68ca462b6216a61f5f4447a51e758c95b2f13b"),
        ("two_qubit_site1.json", "0.3",
         "b43122e9fee18136eb98038ca7b8056e00c3758fff06662f016cfaa1e7b77c79",
         "74483e1ac475f2cb37d8e1677ea7dba03ef5f3cfda483e5e1e0216bbf112ecb3"),
    ]
    for model, horizon, summary, lines in cases:
        rc = run(
            [
                "simulate", model_path(models_dir, model),
                "--samples", "2000", "--horizon", horizon, "--seed", "42", "--records", str(records),
            ]
        )
        assert rc == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == summary
        assert hashlib.sha256(records.read_bytes()).hexdigest() == lines


def test_simulate_start_file(models_dir, tmp_path):
    nu = np.diag([0.0, 0.5, 0.5, 0.0])
    start = tmp_path / "start.json"
    start.write_text(
        json.dumps({"density": [[[float(v), 0.0] for v in row] for row in nu]})
    )
    out = tmp_path / "summary.json"
    rc = run(
        [
            "simulate", model_path(models_dir, "two_qubit_both.json"),
            "--samples", "50", "--horizon", "4", "--seed", "3",
            "--start", "file", "--start-file", str(start), "--out", str(out),
        ]
    )
    assert rc == 0
    assert json.loads(out.read_text())["n_trajectories"] == 50


def test_simulate_input_errors(models_dir, capsys):
    assert run(
        ["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "0"]
    ) == 1
    assert "--samples" in capsys.readouterr().err
    assert run(
        ["simulate", model_path(models_dir, "two_qubit_both.json"), "--horizon", "-1"]
    ) == 1
    assert run(
        ["simulate", model_path(models_dir, "two_qubit_both.json"), "--start", "file"]
    ) == 1


@pytest.mark.parametrize(
    "argv",
    [
        "simulate two_qubit_both.json --horizon nan",
        "simulate two_qubit_both.json --horizon inf",
        "sweep two_qubit_site1.json --range 0:nan:3",
        "sweep two_qubit_site1.json --range 1:inf:3",
        "analyze two_qubit_site1.json --tol-eig nan",
        "analyze two_qubit_site1.json --tol-eig 0",
    ],
)
def test_non_finite_arguments_are_input_errors(models_dir, capsys, argv):
    # exit 1 with one stderr line that names the flag, never a traceback
    command, model, *rest = argv.split()
    assert run([command, model_path(models_dir, model), *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {rest[0].split('=')[0]} ") and "finite" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "analyze two_qubit_site1.json --tol-eig x",
        "analyze two_qubit_site1.json --tol-psd 1e-9",
        "analyze two_qubit_site1.json --seed 1",
        "sweep two_qubit_site1.json --range 0:1:3 --seed 1",
        "classical classical_two_state.json --tol-eig 1e-9",
        "simulate two_qubit_both.json --horizon -inf",
        "simulate two_qubit_both.json --seed -1",
        "simulate two_qubit_both.json --samples 10 --frobnicate",
        "analyze",
        "frobnicate two_qubit_both.json",
        "",
    ],
)
def test_usage_errors_exit_1_with_one_line(models_dir, capsys, argv):
    # argparse's usage errors and a negative seed are input errors: exit 1 with
    # one stderr line, not argparse's exit 2 and usage text or a traceback
    argv = [model_path(models_dir, a) if a.endswith(".json") else a for a in argv.split()]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_exits_0(capsys):
    for argv in (["--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "usage: qsslab" in capsys.readouterr().out


def test_classical_command(models_dir, tmp_path):
    out = tmp_path / "classical.json"
    rc = run(["classical", model_path(models_dir, "classical_three_state.json"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["qsd"]["alpha"] - 1.0) < 1e-9
    assert np.allclose(doc["qsd"]["density"], [0.5, 0.5], atol=1e-9)
    assert doc["embedded_match"]["ok"]


def test_classical_missing_block(models_dir, capsys):
    assert run(["classical", model_path(models_dir, "two_qubit_both.json")]) == 1
    assert "classical" in capsys.readouterr().err


def test_classical_consistency_exit_code(models_dir, monkeypatch):
    # exit code 2 is reserved for theory-consistency failures
    def fake_crosscheck(rm):
        qsd = ClassicalQsd(density=np.array([1.0]), alpha=1.0, unique=True)
        return CrosscheckReport(
            qsd=qsd, matched_alpha=np.nan, match_residual=np.inf,
            alpha_gap=np.inf, extra_families=(), ok=False,
        )

    monkeypatch.setattr(cli.classical_mod, "crosscheck", fake_crosscheck)
    rc = run(
        ["classical", model_path(models_dir, "classical_two_state.json"), "--out", os.devnull]
    )
    assert rc == 2


def test_sweep_branch_structure(models_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run(
        [
            "sweep", model_path(models_dir, "two_qubit_site1.json"),
            "--range", "0.1:1.0:10", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("omega,alpha_1")
    for line in lines[1:]:
        cells = line.split(",")
        omega = float(cells[0])
        alphas = [float(c) for c in cells[1:] if c]
        if omega < 0.5:
            disc = np.sqrt(1.0 - 4.0 * omega**2)
            assert len(alphas) == 2
            assert abs(alphas[0] - (1.0 - disc) / 2.0) < 1e-9
            assert abs(alphas[1] - (1.0 + disc) / 2.0) < 1e-9
        elif omega == 0.5:
            assert len(alphas) == 1  # merged double root
            assert abs(alphas[0] - 0.5) < 1e-4
        else:
            assert len(alphas) == 1
            assert abs(alphas[0] - 0.5) < 1e-9


def test_sweep_input_errors(models_dir, capsys):
    assert run(
        ["sweep", model_path(models_dir, "two_qubit_site1.json"), "--range", "bad"]
    ) == 1
    assert run(
        ["sweep", model_path(models_dir, "two_qubit_site1.json"), "--range", "0:1:0"]
    ) == 1
    assert run(
        [
            "sweep", model_path(models_dir, "two_qubit_site1.json"),
            "--param", "gamma", "--range", "0.1:1:3",
        ]
    ) == 1
    # classical files carry no parametrized family
    assert run(
        ["sweep", model_path(models_dir, "classical_two_state.json"), "--range", "0.1:1:3"]
    ) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
