import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import fast_decay_model, model_to_doc
from qsslab import cli
from qsslab import operators as op
from qsslab import qss
from qsslab import structure
from qsslab.classical import ClassicalQsd, CrosscheckReport, EmbeddedMatch
from qsslab.model import FIXTURE_FAMILIES, two_qubit_both, two_qubit_site1
from test_structure import raising_model


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
    (expected,) = [
        f for f in qss.extract_qss(structure.restrict(spec)).families
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
        ("two_qubit_site1.json", "out", "7ffd8fe74f31c2b52b5a20d01107de8d960e55fcf9ae204e2d4b39a8f3cf4a88"),
        ("two_qubit_both.json", "out", "166f520c6c1d0c9f48275c910effd41e63d739ca7c79eb9a3e5eb993da6cd712"),
        (two_qubit_both(0.0), "out", "9b5f5908eefda5836fa8667bf1500ce32daadcb9c58026d93ab3ceba3ee9e9d9"),
        (two_qubit_site1(0.5), "out", "052ebbeb98e40004c1eca13e586cc6156d121ea94fd5673671cfdecba060abae"),
    ],
    ids=["site1", "both", "both-omega0-face-walk", "site1-omega-half"],
)
def test_analyze_output_is_pinned(models_dir, tmp_path, capsys, model, stream, digest):
    # the report byte for byte, also at the defective omega = 1/2
    if isinstance(model, str):
        path = model_path(models_dir, model)
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_doc(model)))
    assert run(["analyze", str(path)]) == (0 if stream == "out" else 2)
    text = getattr(capsys.readouterr(), stream)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "model, grid, digest",
    [
        ("two_qubit_site1.json", "0:1:41", "11b5e581b572372011b383eb62b37cdbcd0dabd7e33d64ab37f87e3203804e98"),
        ("two_qubit_both.json", "0:1:41", "21719c305aa96aedc8653f1f337fe15d8afd2959fcb6d823016822f44749b74e"),
        ("two_qubit_site1.json", "0.49:0.51:21", "56b45c915946d1a30b05121dea4239b756a78a895df0540e2992a90c82d716cd"),
    ],
    ids=["site1", "both", "site1-collision"],
)
def test_sweep_output_is_pinned(models_dir, capsys, model, grid, digest):
    # the CSV byte for byte, also through the branch collision at omega = 1/2
    assert run(["sweep", model_path(models_dir, model), "--range", grid]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family", ["two_qubit_site1", "two_qubit_both"])
def test_sweep_rows_are_the_rates_analyze_reports(models_dir, tmp_path, capsys, family):
    # sweep solves the 41 points as one stack, analyze each model file as a
    # stack of one: every row is, bit for bit, the sorted rates of the report
    assert run(["sweep", model_path(models_dir, f"{family}.json"), "--range", "0:1:41"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 41
    for row in rows:
        omega, *cells = row.split(",")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_doc(FIXTURE_FAMILIES[family](float(omega)))))
        assert run(["analyze", str(path)]) == 0
        alphas = sorted(fam["alpha"] for fam in json.loads(capsys.readouterr().out)["qss_families"])
        assert [float(c) for c in cells if c] == alphas, omega


def test_sweep_rows_do_not_depend_on_the_chunks(models_dir, monkeypatch, capsys):
    # at most 2 restrictions of 81 entries per chunk: 21 points in 11 stacks
    argv = ["sweep", model_path(models_dir, "two_qubit_site1.json"), "--range", "0.4:0.6:21"]
    assert run(argv) == 0
    whole = capsys.readouterr().out
    shapes, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(np.shape(a)) or eig(a))
    monkeypatch.setattr(cli, "SWEEP_CHUNK_ENTRIES", 2 * 81)
    assert run(argv) == 0
    assert shapes == [(2, 9, 9)] * 10 + [(1, 9, 9)]
    assert capsys.readouterr().out == whole


SEGMENT_MODELS = [f(w) for f in (two_qubit_site1, two_qubit_both) for w in (0.55, 0.7, 0.85, 1.0)]


def _reports(tmp_path, capsys):
    texts = []
    for k, spec in enumerate(SEGMENT_MODELS):
        path = tmp_path / f"model{k}.json"
        path.write_text(json.dumps(model_to_doc(spec)))
        assert run(["analyze", str(path)]) == 0
        texts.append(capsys.readouterr().out)
    return texts


def test_segment_order_is_a_property_of_the_family(tmp_path, monkeypatch, capsys):
    # the ends of a one-parameter family and its param_interval run along the
    # direction whose leading component is positive, whatever sign the
    # eigenbasis gave it.  LAPACK returning the eigenpairs in reverse order (tied
    # ones included) or with every other eigenvector negated leaves each report
    # byte for byte.  A negated real null vector negates the direction the
    # interval is solved on: the order stays, the values move by rounding only.
    base = _reports(tmp_path, capsys)
    segments = [f for text in base for f in json.loads(text)["qss_families"] if "param_interval" in f]
    assert len(segments) == len(SEGMENT_MODELS)
    lapack, solve = np.linalg.eig, op.eig_general

    def perturbed(a):
        def eig(m):  # of the stack of restrictions eig_general solves
            w, v = lapack(m)
            v = v.copy()
            v[..., ::2] *= -1.0
            return w[..., ::-1], v[..., ::-1]

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eig", eig)
            return solve(a)

    with monkeypatch.context() as m:
        m.setattr(op, "eig_general", perturbed)
        assert _reports(tmp_path, capsys) == base
    clusters = structure._real_clusters
    with monkeypatch.context() as m:
        m.setattr(structure, "_real_clusters", lambda *args: [tuple(
            c._replace(coords=np.hstack([-c.coords[:, :1], c.coords[:, 1:]])) for c in found)
            for found in clusters(*args)])
        flipped = _reports(tmp_path, capsys)
    for got, want in zip(flipped, base):
        for fam, ref in zip(json.loads(got)["qss_families"], json.loads(want)["qss_families"]):
            if "param_interval" in ref:
                assert np.allclose(fam["param_interval"], ref["param_interval"], rtol=0, atol=1e-12)
                assert np.allclose(fam["endpoints"], ref["endpoints"], rtol=0, atol=1e-12)


def test_commands_leave_scipy_unloaded(models_dir, tmp_path):
    # one fresh process running every command imports numpy only, on the
    # spectral path of the shipped models and on the expm fallback alike: at
    # omega = 0.49999 both of simulate's propagators fail the condition gate and
    # evolve by operators.expm, and analyze at omega = 1/2 evolves nothing.
    # Importing the CLI loads no numpy.random that numpy itself does not (numpy
    # 2 loads it lazily): only the sampler's draws reach it
    defective = tmp_path / "site1_half.json"
    defective.write_text(json.dumps(model_to_doc(two_qubit_site1(0.5))))
    near = tmp_path / "site1_near_half.json"
    near.write_text(json.dumps(model_to_doc(two_qubit_site1(0.49999))))
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
    argvs.append(["simulate", str(near), "--samples", "50", "--records", os.devnull, "--out", os.devnull])
    argvs.append(["analyze", str(defective), "--out", os.devnull])
    probe = (
        "import sys\n"
        "import numpy\n"
        "lazy = 'numpy.random' not in sys.modules\n"
        "from qsslab import cli\n"
        "print(lazy and 'numpy.random' in sys.modules)\n"
        f"print([cli.main(argv) for argv in {argvs!r}])\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", str([0] * len(argvs)), "[]"]


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


@pytest.mark.parametrize(
    "argv",
    [
        "analyze MODELS",
        "analyze LATIN1",
        "classical MODELS",
        "simulate two_qubit_both.json --start file --start-file MODELS",
        "simulate two_qubit_both.json --start file --start-file LATIN1",
        "analyze two_qubit_both.json --out MISSING/r.json",
        "sweep two_qubit_site1.json --range 0:1:3 --out MISSING/s.csv",
        "simulate two_qubit_both.json --samples 5 --records MISSING/r.jsonl",
        "simulate two_qubit_both.json --samples 5 --out MODELS",
    ],
)
def test_unreadable_inputs_and_unwritable_outputs_exit_1_with_one_line(models_dir, tmp_path, capsys, argv):
    # a directory for a file, a file that is not UTF-8, or an output in a missing
    # directory: an input error with one stderr line, never a traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"label": "caf\u00e9"}'.encode("latin-1"))
    paths = {"MODELS": models_dir, "LATIN1": str(latin1), "MISSING": str(tmp_path / "missing")}
    argv = [model_path(models_dir, a) if a.endswith(".json") and "/" not in a else a for a in argv.split()]
    for key, path in paths.items():
        argv = [a.replace(key, path) for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("outputs", [("MISSING/r.jsonl", None), (None, "MISSING/out.json"), ("NEW", "MISSING/out.json"),
                                     ("MODELS", None), (None, "MODELS")])
def test_unwritable_simulate_outputs_fail_before_sampling(models_dir, tmp_path, capsys, monkeypatch, outputs):
    # both paths are opened before any work: the sampler is never reached, and a
    # writable path checked on the way to an unwritable one is not left behind
    def sampler(*args, **kwargs):
        raise AssertionError("sampled before checking the outputs")

    monkeypatch.setattr(cli.traj_mod, "sample_trajectories", sampler)
    paths = {"MISSING": str(tmp_path / "missing"), "MODELS": models_dir, "NEW": str(tmp_path / "new.jsonl")}
    argv = ["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "5"]
    for flag, path in zip(("--records", "--out"), outputs):
        if path is not None:
            for key, value in paths.items():
                path = path.replace(key, value)
            argv += [flag, path]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_simulate_keeps_an_existing_output_until_it_is_written(models_dir, tmp_path):
    # the early check opens no existing path: an existing --records file stays as
    # it was when the run fails later, and is overwritten when it succeeds
    records, out = tmp_path / "r.jsonl", tmp_path / "out.json"
    records.write_text("old\n")
    argv = ["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "5", "--records", str(records)]
    assert run(argv + ["--out", str(tmp_path / "missing" / "out.json")]) == 1
    assert records.read_text() == "old\n"
    assert run(argv + ["--out", str(out)]) == 0
    assert len(records.read_text().splitlines()) == 5 and json.loads(out.read_text())["n_trajectories"] == 5


def test_the_early_check_removes_the_file_it_made_behind_a_dangling_link(models_dir, tmp_path, monkeypatch):
    # the check makes the link's target; removing it leaves the link as it was
    def sampler(*args, **kwargs):
        raise AssertionError("sampled before checking the outputs")

    monkeypatch.setattr(cli.traj_mod, "sample_trajectories", sampler)
    link = tmp_path / "r.jsonl"
    link.symlink_to(tmp_path / "target.jsonl")
    argv = ["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "5", "--records", str(link)]
    assert run(argv + ["--out", str(tmp_path / "missing" / "out.json")]) == 1
    assert os.listdir(tmp_path) == ["r.jsonl"] and link.is_symlink() and not link.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_simulate_writes_its_records_into_a_fifo(models_dir, tmp_path):
    # an early open and close of an existing --records path would end a FIFO
    # reader's input, and the records' writer would then wait for a reader forever
    fifo = tmp_path / "records"
    os.mkfifo(fifo)
    text = []
    reader = threading.Thread(target=lambda: text.append(fifo.read_text()), daemon=True)
    reader.start()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys; from qsslab import cli; sys.exit(cli.main(sys.argv[1:]))"
    argv = ["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "5", "--records", str(fifo)]
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env, stdout=subprocess.DEVNULL)
    try:
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        try:  # a reader still waiting for a writer: let it go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join()
    assert len(text[0].splitlines()) == 5


@pytest.mark.parametrize("omega", [0.001, 0.015])
def test_analyze_small_omega_converges(omega, tmp_path):
    # the slowest decay rate is ~omega^2, far above the kernel cut: p0 is
    # absorbing, and the slow Perron family is certified like any other
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


def _shift_residual(monkeypatch, shift):
    residual = qss._residual
    monkeypatch.setattr(qss, "_residual", lambda *args: (residual(*args)[0] + shift, residual(*args)[1]))


def test_non_finite_report_value_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    # a residual that is not finite makes the eigen residual and every bound inf
    _shift_residual(monkeypatch, np.inf)
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(model_to_doc(fast_decay_model())))
    rc = run(["analyze", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "theory-consistency failure: residual_eigen is inf for the family at alpha 4.000000e+02"
    ]
    assert not out.exists()


def test_residual_over_the_gate_fails_verification(tmp_path, monkeypatch):
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(model_to_doc(fast_decay_model())))
    _shift_residual(monkeypatch, 1e-7)
    assert run(["analyze", str(path), "--out", str(out)]) == 0
    (fam,) = json.loads(out.read_text())["qss_families"]
    assert fam["verification"]["ok"] is False
    assert 1e-8 < fam["residual_defn"] == fam["verification"]["residual_defn"] < 1e-5


@pytest.mark.parametrize("factor", [20, 40])
@pytest.mark.parametrize("family", [two_qubit_site1, two_qubit_both])
def test_fast_decaying_models_verify(tmp_path, family, factor):
    # alpha up to ~1600 is certified on its own time scale, t <= 2.2 / k with
    # alpha / k < 2: the Duhamel factor e^{alpha t} stays below e^{4.4}
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(model_to_doc(fast_decay_model(family, factor))))
    assert run(["analyze", str(path), "--out", str(out)]) == 0
    families = json.loads(out.read_text())["qss_families"]
    assert max(f["alpha"] for f in families) >= 370
    for fam in families:
        assert fam["verification"]["ok"] and fam["residual_defn"] <= 1e-12, fam["alpha"]


def test_absorbing_p0_with_a_non_decaying_family_exits_2(tmp_path, monkeypatch, capsys):
    # site1 at omega = 0 has a dark state and a family at alpha = 0; an
    # absorption report that calls p0 absorbing contradicts it
    absorption_operator = structure.absorption_operator
    monkeypatch.setattr(
        structure, "absorption_operator",
        lambda restr: dataclasses.replace(absorption_operator(restr), is_absorbing=True),
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
    def failing_verify(cert):
        raise qss.QssTheoryError("injected verification failure")

    monkeypatch.setattr(qss, "verify_qss", failing_verify)
    rc = run(["analyze", model_path(models_dir, "two_qubit_site1.json"), "--out", os.devnull])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "injected verification failure" in err


def test_simulate_without_perron_family_exits_2(models_dir, monkeypatch, capsys):
    monkeypatch.setattr(qss, "extract_qss", lambda restr: qss.ExtractionResult((), ()))
    rc = run(["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "Perron existence failed" in err


def test_sweep_without_perron_family_exits_2(models_dir, monkeypatch, capsys, tmp_path):
    # the decision stage rejects the top real cluster: sweep exits 2 with the
    # message analyze gives for that model, not a row without its Perron rate
    decide = qss._decide_stack
    monkeypatch.setattr(qss, "_decide_stack", lambda restrs: [["rejected"] + s[1:] for s in decide(restrs)])
    assert run(["sweep", model_path(models_dir, "two_qubit_site1.json"), "--range", "0.3:1:3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("theory-consistency failure: Perron existence failed: no family at spectral abscissa")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_doc(two_qubit_site1(0.3))))
    assert run(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == err


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
    # horizon 0.3, 1528 of the site-1 records have no jump.
    records = tmp_path / "records.jsonl"
    cases = [
        ("two_qubit_both.json", "10",
         "76a2076a769a97cd839d0a44d04ba548e0ff24e6f8b5bae20f51c7982cbc5b0a",
         "ceb77d3709985d45d810ad3136b97c171f26f7082b57da460742d169948bb8a4"),
        ("two_qubit_site1.json", "6",
         "0d7621a86128aa0d38ed7fd5637a0a137e1f706ecf49afe0b00e22bbb4770f32",
         "3e6bca345972bcd2851d3ca90e9efc6b5c2b3d31361486af2353a6eb8d793917"),
        ("two_qubit_site1.json", "0.3",
         "02f792700af8d68d973cf44853512954cbc55d8ba7a51a4e6499825354708525",
         "0e873e7f94ed9e67cbe219b2b8e587e5b861ed6c70026fd0a90754a18fbcd8aa"),
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


@pytest.mark.parametrize("start", [[], ["--start", "qss"]])
def test_simulate_start_file_needs_start_file(models_dir, tmp_path, capsys, start):
    # a start file is read only with --start file: given without it, even a
    # missing path is an input error, not a run from the Perron QSS
    argv = ["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", "5",
            "--start-file", str(tmp_path / "missing.json"), *start]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --start-file requires --start file\n"


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
    capsys.readouterr()
    # each trajectory samples its own stream, and there are 2**32 of them; the
    # check comes before anything is allocated
    assert run(
        ["simulate", model_path(models_dir, "two_qubit_both.json"), "--samples", str(2**32 + 1)]
    ) == 1
    assert capsys.readouterr() == ("", "error: --samples must be at most 2**32\n")


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_a_model_that_is_not_subharmonic_exits_1_with_one_line(tmp_path, capsys, command):
    # the raising jump leaves range(p0): restrict refuses the model, which has no
    # restriction, QSS or unraveling kernel
    path = tmp_path / "raising.json"
    path.write_text(json.dumps(model_to_doc(raising_model())))
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p0 is not subharmonic for this model (algebraic residual 1.000e+00)\n"


@pytest.mark.parametrize(
    "argv",
    [
        "simulate two_qubit_both.json --horizon nan",
        "simulate two_qubit_both.json --horizon inf",
        "sweep two_qubit_site1.json --range 0:nan:3",
        "sweep two_qubit_site1.json --range 1:inf:3",
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


def test_a_zero_rate_is_written_0(models_dir, tmp_path, capsys):
    # each rate is 0.0 - mean, so the sign of a computed zero mean never reaches
    # a report: analyze and sweep of two_qubit_site1(0), and a chain whose
    # transient states form a closed class
    site1 = tmp_path / "site1.json"
    site1.write_text(json.dumps(model_to_doc(two_qubit_site1(0.0))))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"schema_version": "1", "classical": {
        "rate_matrix": [[-1, 1, 0], [1, -1, 0], [0, 0, 0]], "absorbing_set": [2]}}))
    for argv in (["analyze", str(site1)], ["classical", str(chain)]):
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert '"alpha": 0,' in text and '"alpha": -0' not in text, argv
    assert run(["sweep", model_path(models_dir, "two_qubit_site1.json"), "--range", "0:0:1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,1"


def test_classical_missing_block(models_dir, capsys):
    assert run(["classical", model_path(models_dir, "two_qubit_both.json")]) == 1
    assert "classical" in capsys.readouterr().err


def test_classical_consistency_exit_code(models_dir, monkeypatch):
    # exit code 2 is reserved for theory-consistency failures
    def fake_crosscheck(rm):
        qsd = ClassicalQsd(density=np.array([1.0]), alpha=1.0, unique=True)
        return CrosscheckReport(qsd, EmbeddedMatch(alpha=None, alpha_gap=None, residual=None, ok=False), 0)

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
            assert abs(alphas[0] - 0.5) < 1e-7
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
