"""Batch front door: analyze / simulate / classical / sweep.

Exit codes: 0 success, 1 input error, 2 theory-consistency or numerical
failure (an eigensolve that does not converge or check out, or a chain
with no nonnegative QSD).
Reports are emitted as deterministic JSON (sorted keys, fixed float
formatting); sweeps are locale-independent CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from . import classical as classical_mod
from . import modelio
from . import operators as op
from . import qss as qss_mod
from . import structure as structure_mod
from . import trajectory as traj_mod
from .model import FIXTURE_FAMILIES
from .modelio import ModelFileError


# most restriction entries (points x m^4) per chunk of a sweep's grid, solved as one stack
SWEEP_CHUNK_ENTRIES = 2**15


class InputError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 with one line, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


def _load(path) -> modelio.ModelFile:
    try:
        return modelio.load_model(path)
    except OSError as exc:  # missing, a directory, unreadable
        raise InputError(f"cannot read model file: {exc}") from exc
    except ModelFileError as exc:
        raise InputError(f"invalid model file: {exc}") from exc


def _analysis_bundle(restr):
    """Run the full structural + spectral pipeline on one model's restriction."""
    absorption = structure_mod.absorption_operator(restr)
    irred = structure_mod.check_irreducible(restr)
    result = qss_mod.perron_structure(restr, qss_mod.extract_qss(restr), irreducible=irred.verdict)
    for fam in result.families:
        if absorption.is_absorbing and fam.alpha <= 1e-9:  # an absorbing p0 forces alpha > 0
            raise qss_mod.QssTheoryError(f"p0 is absorbing but a family has alpha {fam.alpha:.6e}")

    spectrum, _ = restr.eig
    families_json = []
    for fam in result.families:
        report = qss_mod.verify_qss(fam.anchor)
        fam_json = {
            "alpha": fam.alpha,
            "is_perron": fam.is_perron,
            "dimension": len(fam.herm_basis),
            "anchor": fam.anchor.nu,
            "residual_eigen": fam.anchor.residual_eigen,
            "residual_defn": report.residual_defn,
            "verification": dataclasses.asdict(report),
            "notes": list(fam.notes),
        }
        if fam.param_interval is not None:
            fam_json["param_interval"] = list(fam.param_interval)
        if fam.endpoints:
            fam_json["endpoints"] = [c.nu for c in fam.endpoints]
        families_json.append(fam_json)
    bundle = {
        "label": restr.spec.label,
        "structure": {  # the report types' fields are the report keys
            "subharmonic": dataclasses.asdict(restr.subharmonic),
            "absorption": dataclasses.asdict(absorption),
            "irreducible": {"verdict": irred.verdict, "note": irred.note},
        },
        "spectrum": spectrum,
        "qss_families": families_json,
        "rejected_candidates": [
            {"alpha": r.alpha, "reason": r.reason} for r in result.rejected
        ],
        "provenance": {"artifact_version": __version__},
    }
    return bundle


def _write(path, lines, what: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:  # e.g. a missing directory
        raise InputError(f"cannot write {what}: {exc}") from exc


def _write_out(text: str, out_path):
    if out_path:
        _write(out_path, [text], "output file")
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    mf = _load(args.model)
    if mf.spec is None:
        raise InputError("model file has no quantum model block")
    bundle = _analysis_bundle(structure_mod.restrict(mf.spec))
    for fam in bundle["qss_families"]:  # e.g. a residual that is not finite
        verification = {f"verification.{k}": v for k, v in fam["verification"].items()}
        for name, value in {**fam, **verification}.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise qss_mod.QssTheoryError(f"{name} is {value} for the family at alpha {fam['alpha']:.6e}")
    _write_out(modelio.dumps(bundle) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.samples <= 0:
        raise InputError("--samples must be positive")
    if args.samples > 2**32:  # one sampler stream per trajectory, and there are 2**32
        raise InputError("--samples must be at most 2**32")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    if not 0 < args.horizon < np.inf:  # also rejects nan
        raise InputError("--horizon must be positive and finite")
    if args.start_file is not None and args.start != "file":
        raise InputError("--start-file requires --start file")
    mf = _load(args.model)
    if mf.spec is None:
        raise InputError("model file has no quantum model block")
    spec = mf.spec
    if args.start == "file":
        if not args.start_file:
            raise InputError("--start file requires --start-file PATH")
        try:
            with open(args.start_file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read start file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"invalid start file JSON: {exc}") from exc
        if not isinstance(doc, dict) or "density" not in doc:
            raise InputError("start file must be a JSON object with a 'density' matrix")
        try:
            rho0 = modelio._matrix(doc["density"], spec.dim, "density")
            op.validate_density(rho0)
        except (ModelFileError, ValueError) as exc:
            raise InputError(f"invalid start density: {exc}") from exc
    for path, what in ((args.records, "records file"), (args.out, "output file")):
        if path and (os.path.isdir(path) or not os.path.exists(path)):  # fail first; open no existing path
            _write(path, [], what)
            os.remove(os.path.realpath(path))  # the file made, also behind a dangling link
    restr = structure_mod.restrict(spec)
    result = qss_mod.perron_structure(restr, qss_mod.extract_qss(restr))
    perron = next(f for f in result.families if f.is_perron)  # perron_structure checked it exists
    alpha = perron.alpha
    if args.start == "qss":
        rho0 = perron.anchor.nu
    kernel = traj_mod.build_kernel(restr)

    batch = traj_mod.sample_trajectories(kernel, rho0, args.horizon, args.seed, args.samples)
    stats = traj_mod.jump_statistics(batch, alpha, nu=rho0)
    if args.records:
        # one JSON line per trajectory; its keys are listed at modelio.record_lines
        _write(args.records, modelio.record_lines(batch), "records file")
    provenance = {"artifact_version": __version__, "seed": args.seed, "samples": args.samples, "horizon": args.horizon}
    summary = {**dataclasses.asdict(stats), "alpha": alpha, "provenance": provenance}
    _write_out(modelio.dumps(summary) + "\n", args.out)
    return 0


def cmd_classical(args) -> int:
    mf = _load(args.model)
    if mf.classical is None:
        raise InputError("model file has no classical block")
    report = classical_mod.crosscheck(mf.classical)
    _write_out(modelio.dumps(dataclasses.asdict(report)) + "\n", args.out)
    return 0 if report.embedded_match.ok else 2


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--range must be a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"--range must be a:b:n with numeric parts: {exc}") from exc
    if n <= 0:
        raise InputError("--range needs at least one point")
    if not np.isfinite([a, b]).all():
        raise InputError(f"--range endpoints must be finite, got {text!r}")
    return np.linspace(a, b, n)


def cmd_sweep(args) -> int:
    mf = _load(args.model)
    if mf.family is None:
        raise InputError("sweep requires a model file with a 'family' entry")
    factory = FIXTURE_FAMILIES[mf.family]
    values = _parse_range(args.range).tolist()
    spec = factory(values[0])
    step = max(1, SWEEP_CHUNK_ENTRIES // (spec.dim - spec.p0_rank) ** 4)
    rows = []
    for lo in range(0, len(values), step):
        chunk = values[lo:lo + step]
        restrs = structure_mod.restrict_stack([factory(value) for value in chunk])
        rows += zip(chunk, qss_mod.rates_stack(restrs))
    width = max(len(alphas) for _, alphas in rows)
    header = ["omega"] + [f"alpha_{k + 1}" for k in range(width)]
    lines = [",".join(header)]
    for value, alphas in rows:
        cells = [format(value, ".17g")]
        cells += [format(a, ".17g") for a in alphas]
        cells += [""] * (width - len(alphas))
        lines.append(",".join(cells))
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache  # parse_args leaves the parser as it is
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsslab",
        description="Quasi-stationary states of finite-dimensional quantum Markov semigroups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model", help="path to a model JSON file")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", parents=[common], help="structure + QSS report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", parents=[common], help="trajectory suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--horizon", type=float, default=6.0)
    p.add_argument("--start", choices=["qss", "file"], default="qss")
    p.add_argument("--start-file", default=None)
    p.add_argument("--records", default=None, help="JSON-lines dump of every record")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classical", parents=[common], help="classical crosscheck")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("sweep", parents=[common], help="parameter sweep to CSV")
    p.add_argument("--range", required=True, help="a:b:n inclusive linspace")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except qss_mod.QssTheoryError as exc:
        print(f"theory-consistency failure: {exc}", file=sys.stderr)
        return 2
    except (op.EigenSolveError, classical_mod.ClassicalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (structure_mod.StructureError, traj_mod.TrajectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
