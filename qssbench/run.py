"""Benchmark of the qsslab command line, end to end and layer by layer.

    python3 qssbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  The workload's model files are written from ``--seed`` under
``.qssbench/``, and the commands of the workload are issued back to back,
in this process, through ``qsslab.cli.main`` (a closed loop with one
client) in whole passes, as many as fit in ``--seconds`` at the mean pass
time so far.  Every output is checked by the oracles in ``oracles.py``.
Times are normalized to a reference machine speed (``clock.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and then traced, again and again for ``--seconds``, checks that
both give byte-identical outputs, and prints the per-layer metrics of the
traced passes.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with provenance, is also written to
``.qssbench/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".qssbench"
# one BLAS thread (at most nproc): the matrices are small, and a second
# thread only adds run-to-run noise
BLAS_THREADS = "1"
SETUP_REPEATS = 3

# prints the set-up time, then the reference kernel's times in the same
# process (the first kernel call pays one-off costs and is dropped)
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import qsslab.cli
from qsslab import modelio
for path in sys.argv[1:]:
    modelio.load_model(path)
print(time.perf_counter() - t0)
import clock
print(*[clock.kernel() for _ in range(4)][1:])
"""


@dataclass
class Outcome:
    cmd: object
    rc: object
    seconds: float                # normalized wall time (see clock.py)
    raw_seconds: float
    scale: float                  # normalized / raw
    stdout: str
    stderr: str
    records_sha: str = ""
    status: str = "ok"            # ok | known_failure | failed
    reasons: list = field(default_factory=list)

    def signature(self):
        return (self.rc, self.stdout, self.stderr, self.records_sha)


class Runner:
    """Issues commands through ``qsslab.cli.main`` and judges each output."""

    def __init__(self, cli, oracles, clock):
        self.cli = cli
        self.oracles = oracles
        self.clock = clock
        self.verified = {}            # (argv, output digest) -> (errors, warnings)
        self.attempted = 0
        # each is a list of {"command", "exit", "reasons", "times"}
        self.failures = []            # unexpected exits and oracle mismatches
        self.known = []               # documented failures that still occur
        self.warnings = []            # statistical checks outside the warning bound

    def run(self, cmd, run_id=0, tracer=None) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        argv = list(cmd.argv)

        def call():
            try:
                if tracer is None:
                    return self.cli.main(argv)
                return tracer.command(run_id, self.cli.main, argv)
            except SystemExit as exc:
                return exc.code
            except Exception:  # a traceback is a failed command, not a crash
                traceback.print_exc()
                return "exception"

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, raw, seconds, scale = self.clock.time(call)
        outcome = Outcome(cmd, rc, seconds, raw, scale, out.getvalue(), err.getvalue())
        self.attempted += 1
        self._judge(outcome)
        return outcome

    def _judge(self, o: Outcome):
        cmd = o.cmd
        records = None
        if cmd.records and o.rc == 0:
            records = Path(cmd.records).read_text(encoding="utf-8")
            o.records_sha = hashlib.sha256(records.encode()).hexdigest()
        if o.rc != 0:
            first = (o.stderr.strip().splitlines() or [""])[0]
            code, text = cmd.known_failure or (None, None)
            if o.rc == code and text in o.stderr:
                o.status = "known_failure"
                _tally(self.known, cmd.label, o.rc, [first])
                return
            o.status, o.reasons = "failed", [first]
        else:
            digest = hashlib.sha256(o.stdout.encode()).hexdigest() + o.records_sha
            key = (cmd.argv, digest)
            if key not in self.verified:
                self.verified[key] = self._check(cmd, o.stdout, records)
                for warning in self.verified[key][1]:
                    _tally(self.warnings, cmd.label, o.rc, [warning])
            errors = self.verified[key][0]
            if errors:
                o.status, o.reasons = "failed", errors
        if o.status == "failed":
            _tally(self.failures, cmd.label, o.rc, o.reasons)

    def _check(self, cmd, stdout, records):
        ref, check = cmd.ref, self.oracles
        if cmd.kind == "analyze":
            return check.check_analyze(stdout, ref["alpha"]), []
        if cmd.kind == "sweep":
            return check.check_sweep(stdout, ref["omegas"], ref["alphas"]), []
        if cmd.kind == "classical":
            return check.check_classical(stdout, ref["alpha"]), []
        return check.check_simulate(stdout, ref["alpha"], ref["samples"], ref["horizon"], records)

    def run_pass(self, cmds, tracer=None):
        outcomes = [self.run(cmd, i, tracer) for i, cmd in enumerate(cmds)]
        return outcomes, sum(o.seconds for o in outcomes), sum(o.raw_seconds for o in outcomes)


def _tally(items, label, rc, reasons):
    for item in items:
        if item["command"] == label and item["reasons"] == reasons:
            item["times"] += 1
            return
    items.append({"command": label, "exit": rc, "reasons": reasons, "times": 1})


# -- provenance ------------------------------------------------------------

def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qsslab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    """BLAS of numpy and scipy, with the thread count each library reports."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads[lib.name] = fn()
                    break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads": threads}


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator": workload.generator,
    }


# -- measurements ----------------------------------------------------------

def measure_setup(model_files, clock):
    """Fresh-process ``import qsslab.cli`` plus loading the model files.

    Returns normalized and raw times in s; each start is normalized by the
    reference kernel timed in the same process right after it.  One
    unmeasured start first writes the bytecode caches.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    argv = [sys.executable, "-c", SETUP_SNIPPET, *model_files]
    times, raw_times = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-400:]}")
        if i:
            setup, kernels = proc.stdout.strip().splitlines()[-2:]
            raw_times.append(float(setup))
            times.append(raw_times[-1] * clock.REFERENCE_S
                         / statistics.median(map(float, kernels.split())))
    return times, raw_times


def tail(values, beyond: int = 10):
    """Highest percentile that has at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: ``value`` is the largest sample with at
    least ``beyond`` samples strictly greater than it, and ``percentile`` is
    the share of samples at or below it, in percent.  ``None`` when there
    are too few samples.
    """
    xs = sorted(values)
    k = len(xs) - beyond - 1
    while k >= 0 and xs[k] == xs[k + 1]:
        k -= 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), float(xs[k])


def _another(start, done, seconds) -> bool:
    """Start another pass if, at the mean pass time so far, it ends in time."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= seconds


def run_untraced(runner, workload, seconds):
    """Whole passes for ``seconds``.  ``pass_s`` sums, over the positions of
    a pass, the median time of the command at that position: the passes
    hold the same kinds of command in the same order, and one slow command
    moves the median of its position, not the whole pass."""
    runner.run(workload.passes[0][0])          # first-call costs stay out of the samples
    pass_times, raw_pass_times, cmd_times, groups = [], [], [], {}
    by_position, raw_by_position = {}, {}
    start = time.perf_counter()
    k = 0
    while _another(start, k, seconds):
        gc.collect()
        outcomes, total, raw_total = runner.run_pass(workload.passes[k % len(workload.passes)])
        pass_times.append(total)
        raw_pass_times.append(raw_total)
        for j, o in enumerate(outcomes):
            cmd_times.append(o.seconds)
            by_position.setdefault(j, []).append(o.seconds)
            raw_by_position.setdefault(j, []).append(o.raw_seconds)
            if o.status == "ok":
                groups.setdefault(o.cmd.group, []).append((o.seconds, o.cmd.units))
        k += 1
    named = {}
    for group, samples in sorted(groups.items()):
        secs = [s for s, _ in samples]
        if group.startswith("analyze_"):
            named[f"{group}_s"] = (statistics.median(secs), "s", len(secs))
            if group == "analyze_d4":
                t = tail(secs)
                if t is not None:
                    named["analyze_d4_tail_s"] = (t[1], "s", len(secs), f"p{t[0]:.1f}")
        elif group == "classical":
            named["classical_s"] = (statistics.median(secs), "s", len(secs))
        else:
            # points or trajectories over the commands' whole wall time
            rate = sum(u for _, u in samples) / sum(secs)
            name = "sweep_points_per_s" if group == "sweep" else f"{group}_traj_per_s"
            named[name] = (rate, "1/s", len(secs))
    metrics = {"pass_s": sum(statistics.median(v) for v in by_position.values())}
    named["cmd_median_s"] = (statistics.median(cmd_times), "s", len(cmd_times))
    named["raw_pass_s"] = (sum(statistics.median(v) for v in raw_by_position.values()), "s", k)
    return metrics, named, {"passes": k, "commands": len(cmd_times),
                            "pass_s_samples": pass_times, "raw_pass_s_samples": raw_pass_times}


def layer_metrics(tracer, outcomes) -> dict:
    """Per-layer totals of one traced pass; ``ref.*`` are commands 0 and 1,
    the probe's analyze and simulate.  Self times are normalized with the
    scale of the command they ran in."""
    t = tracer
    scales = {i: o.scale for i, o in enumerate(outcomes)}

    def self_s(*names):
        return t.self_s(*names, scales=scales)

    sims = [json.loads(o.stdout) for o in outcomes if o.cmd.kind == "simulate" and o.rc == 0]
    jumps = sum(s["n_observed_jumps"] for s in sims)
    trajs = sum(s["n_trajectories"] for s in sims)
    return {
        "operators.expm.calls": t.calls("operators.expm"),
        "operators.expm.self_s": self_s("operators.expm"),
        "operators.expm.fallback_calls": t.count("scipy.linalg.expm@operators.expm"),
        "operators.eig_general.calls": t.calls("operators.eig_general"),
        "operators.dense_eig.calls": t.count("numpy.linalg.eig"),
        "operators.dense_eigvalsh.calls": t.count("numpy.linalg.eigvalsh"),
        "model.build_generator.calls": t.calls("model.build_generator"),
        "model.build_generator.self_s": self_s("model.build_generator"),
        "model.apply_semigroup.calls": t.calls("model.apply_semigroup"),
        "model.apply_semigroup.self_s": self_s("model.apply_semigroup"),
        "structure.check_subharmonic.calls": t.calls("structure.check_subharmonic"),
        "structure.check_subharmonic.self_s": self_s("structure.check_subharmonic"),
        "structure.restrict.self_s": self_s("structure.restrict"),
        "structure.absorption_operator.self_s": self_s("structure.absorption_operator"),
        "structure.check_irreducible.self_s": self_s("structure.check_irreducible"),
        "qss.real_eigen_candidates.self_s": self_s("qss.real_eigen_candidates"),
        "qss.extract_qss.self_s": self_s("qss.extract_qss"),
        "qss.extract_qss.eigvalsh_calls": t.count("numpy.linalg.eigvalsh@qss.extract_qss"),
        "qss.perron_structure.self_s": self_s("qss.perron_structure"),
        "qss.verify_qss.calls": t.calls("qss.verify_qss"),
        "qss.verify_qss.self_s": self_s("qss.verify_qss"),
        "trajectory.build_kernel.self_s": self_s("trajectory.build_kernel"),
        "trajectory.sample.self_s": self_s("trajectory.sample_trajectories",
                                             "trajectory.sample_trajectory"),
        "trajectory.trace_curve_calls_per_jump":
            t.count("qsslab.trajectory._Propagator.trace_curve") / jumps if jumps else 0.0,
        "trajectory.jumps_per_traj": jumps / trajs if trajs else 0.0,
        "trajectory.jump_statistics.self_s": self_s("trajectory.jump_statistics"),
        "classical.crosscheck.self_s": self_s("classical.crosscheck"),
        "classical.classical_qsd.self_s": self_s("classical.classical_qsd"),
        "modelio.load_model.self_s": self_s("modelio.load_model"),
        "modelio.dumps.calls": t.calls("modelio.dumps"),
        "modelio.dumps.self_s": self_s("modelio.dumps"),
        "modelio.bytes_out": t.bytes_out,
        "cli.self_s": self_s("cli"),
        # the probe's first two commands: analyze and simulate on the fixtures
        "ref.analyze.expm_calls": t.calls("operators.expm", run=0),
        "ref.analyze.dense_eig_calls": t.count("numpy.linalg.eig", run=0),
        "ref.analyze.eig_general_calls": t.calls("operators.eig_general", run=0),
        "ref.analyze.check_subharmonic_calls": t.calls("structure.check_subharmonic", run=0),
        "ref.simulate.check_subharmonic_calls": t.calls("structure.check_subharmonic", run=1),
    }


def run_traced(runner, workload, seconds, inputs, tracing):
    cmds = inputs.probe(WORKDIR) + workload.passes[0]
    tracer = tracing.Tracer()
    untraced_times, traced_times, reps = [], [], []
    runner.run(cmds[0])                         # first-call costs stay out of the overhead
    start = time.perf_counter()
    while _another(start, len(reps), seconds):
        gc.collect()
        plain, plain_total, _ = runner.run_pass(cmds)
        tracer.reset()
        tracer.install()
        try:
            traced, traced_total, _ = runner.run_pass(cmds, tracer)
        finally:
            tracer.uninstall()
        for a, b in zip(plain, traced):
            if a.signature() != b.signature():
                _tally(runner.failures, b.cmd.label, b.rc,
                       ["traced output differs from the untraced output"])
        untraced_times.append(plain_total)
        traced_times.append(traced_total)
        reps.append(layer_metrics(tracer, traced))
    metrics = {name: statistics.median([r[name] for r in reps]) for name in reps[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced_times)
    spans_path = WORKDIR / f"spans-{workload.name}-{workload.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    info = {"repetitions": len(reps), "absent": tracer.absent,
            "untraced_pass_s": untraced_times, "traced_pass_s": traced_times,
            "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


# -- entry point -----------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsslab" / "cli.py").is_file():
        print(f"error: no qsslab sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("QSSLAB_THREADS", None)
    sys.path.insert(0, str(SRC))

    import clock
    import inputs
    import oracles
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {inputs.WORKLOADS}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workload = inputs.build(args.workload, args.seed, WORKDIR)
    result = {"provenance": provenance(args, workload)}

    timer = clock.Clock()
    if args.trace == 0:
        setup, raw_setup = measure_setup(workload.model_files, clock)
    import qsslab.cli

    runner = Runner(qsslab.cli, oracles, timer)
    if args.trace == 0:
        metrics, named, info = run_untraced(runner, workload, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]
        named["setup_s"] = (metrics["setup_s"], "s", len(setup))
        named["raw_setup_s"] = (statistics.median(raw_setup), "s", len(setup))
        named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB", 1)
        result.update(info, setup_s_samples=setup, raw_setup_s_samples=raw_setup)
    else:
        metrics, info = run_traced(runner, workload, args.seconds, inputs, tracing)
        declared = spec["per_layer"]
        named = {}
        result.update(info)
    failed = sum(item["times"] for item in runner.failures)
    known = sum(item["times"] for item in runner.known)
    named["op_fail_frac"] = ((failed + known) / runner.attempted, "1", runner.attempted)

    prov = result["provenance"]
    print(f"# qssbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# commit {prov['git_commit']} src {prov['src_sha256'][:12]} python {prov['python']} "
          f"numpy {prov['numpy']} scipy {prov['scipy']} nproc {prov['nproc']} "
          f"blas {prov['blas']['name']} {prov['blas']['version']} threads {prov['blas']['threads']}")
    for name, (value, unit, n, *extra) in sorted(named.items()):
        print(f"{name} = {value:.6g} {unit} (n={n}{', ' + extra[0] if extra else ''})")
    for tag, items in (("known failure", runner.known), ("FAILED", runner.failures),
                       ("warning", runner.warnings)):
        for item in items:
            print(f"{tag}: {item['command']}: exit {item['exit']} x{item['times']}: "
                  + "; ".join(item["reasons"]))
    for name in result.get("absent", []):
        print(f"absent: {name}")

    line = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    result.update(line, named={k: v[0] for k, v in named.items()},
                  known_failures=runner.known, failures=runner.failures,
                  warnings=runner.warnings)
    out = WORKDIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
