"""Batch front door: analyze / simulate / classical / sweep.

Exit codes: 0 success, 1 input error, 2 theory-consistency or numerical
failure (an eigensolve that does not converge or check out).
Reports are emitted as deterministic JSON (sorted keys, fixed float
formatting); sweeps are locale-independent CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
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


class InputError(RuntimeError):
    pass


class ConsistencyError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 with one line, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


def _load(path) -> modelio.ModelFile:
    try:
        return modelio.load_model(path)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read model file: {exc}") from exc
    except ModelFileError as exc:
        raise InputError(f"invalid model file: {exc}") from exc


def _restriction(ctx):
    """The restricted generator; p0 must be subharmonic."""
    sub = ctx.subharmonic
    if not sub.verdict:
        raise InputError(
            "p0 is not subharmonic for this model "
            f"(algebraic residual {sub.algebraic_residual:.3e})"
        )
    return ctx.restriction


def _qss_families(ctx, tol_eig, irreducible=None):
    """Candidates, extraction and Perron marking: all that ``simulate`` needs."""
    restr = _restriction(ctx)
    cands = qss_mod.real_eigen_candidates(restr, real_tol=tol_eig)
    return qss_mod.perron_structure(restr, qss_mod.extract_qss(cands), irreducible=irreducible)


def _analysis_bundle(ctx, tol_eig):
    """Run the full structural + spectral pipeline on one model context."""
    restr = _restriction(ctx)
    sub = ctx.subharmonic
    absorption = ctx.absorption
    irred = structure_mod.check_irreducible(restr)
    result = _qss_families(ctx, tol_eig, irreducible=irred.verdict or None)
    for fam in result.families:
        if not qss_mod.absorbing_implies_positive_rate(absorption, fam.anchor):
            raise ConsistencyError(f"p0 is absorbing but a family has alpha {fam.alpha:.6e}")

    spectrum, _ = restr.eig
    families_json = []
    for fam in result.families:
        report = qss_mod.verify_qss(ctx, fam.anchor)
        fam_json = {
            "alpha": fam.alpha,
            "is_perron": fam.anchor.is_perron,
            "dimension": len(fam.herm_basis),
            "anchor": fam.anchor.nu,
            "residual_eigen": fam.anchor.residual_eigen,
            "residual_defn": report.residual_defn,
            "verification": {
                "residual_defn": report.residual_defn,
                "residual_exp_survival": report.residual_exp_survival,
                "residual_mult": report.residual_mult,
                "residual_repeated": report.residual_repeated,
                "alpha_log_crosscheck": report.alpha_log_crosscheck,
                "ok": report.ok,
            },
            "notes": list(fam.notes),
        }
        if fam.param_interval is not None:
            fam_json["param_interval"] = list(fam.param_interval)
        if fam.endpoints:
            fam_json["endpoints"] = [c.nu for c in fam.endpoints]
        families_json.append(fam_json)
    bundle = {
        "label": ctx.spec.label,
        "structure": {
            "subharmonic": {
                "algebraic_residual": sub.algebraic_residual,
                "verdict": sub.verdict,
            },
            "absorption": {
                "is_absorbing": absorption.is_absorbing,
                "residual_harmonic": absorption.residual_harmonic,
                "convergence_gap": absorption.convergence_gap,
                "a_op": absorption.a_op,
            },
            "irreducible": {"verdict": irred.verdict, "note": irred.note},
        },
        "spectrum": spectrum,
        "qss_families": families_json,
        "rejected_candidates": [
            {"alpha": r.alpha, "reason": r.reason} for r in result.rejected
        ],
        "provenance": {
            "artifact_version": __version__,
            "tol_eig": tol_eig,
        },
    }
    return bundle


def _write_out(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    mf = _load(args.model)
    if mf.spec is None:
        raise InputError("model file has no quantum model block")
    ctx = structure_mod.Analysis(mf.spec)
    bundle = _analysis_bundle(ctx, args.tol_eig)
    for fam in bundle["qss_families"]:  # e.g. T_t(nu) underflowing to 0 on the verify grid
        verification = {f"verification.{k}": v for k, v in fam["verification"].items()}
        for name, value in {**fam, **verification}.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConsistencyError(f"{name} is {value} for the family at alpha {fam['alpha']:.6e}")
    _write_out(modelio.dumps(bundle) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.samples <= 0:
        raise InputError("--samples must be positive")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    if not 0 < args.horizon < np.inf:  # also rejects nan
        raise InputError("--horizon must be positive and finite")
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
        except FileNotFoundError as exc:
            raise InputError(f"cannot read start file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid start file JSON: {exc}") from exc
        if not isinstance(doc, dict) or "density" not in doc:
            raise InputError("start file must be a JSON object with a 'density' matrix")
        try:
            rho0 = modelio._matrix(doc["density"], spec.dim, "density")
            op.validate_density(rho0)
        except (ModelFileError, ValueError) as exc:
            raise InputError(f"invalid start density: {exc}") from exc
    ctx = structure_mod.Analysis(spec)
    result = _qss_families(ctx, args.tol_eig)
    perron = [f for f in result.families if f.anchor.is_perron]
    if not perron:
        raise ConsistencyError("no Perron QSS available")
    alpha = perron[0].alpha
    if args.start == "qss":
        rho0 = perron[0].anchor.nu
    kernel = traj_mod.build_kernel(ctx)

    batch = traj_mod.sample_trajectories(kernel, rho0, args.horizon, args.seed, args.samples)
    stats = traj_mod.jump_statistics(batch, alpha, nu=rho0)
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            # a record's JSON keys are the TrajectoryRecord fields
            fh.writelines(modelio.record_lines(batch))
    summary = {
        "n_trajectories": stats.n_trajectories,
        "n_observed_jumps": stats.n_observed_jumps,
        "conditional_interjump_mean": stats.empirical_mean,
        "ks_statistic": stats.ks_statistic,
        "post_jump_max_deviation": stats.post_jump_max_deviation,
        "censoring_fraction": stats.censoring_fraction,
        "rate": stats.rate,
        "alpha": alpha,
        "provenance": {
            "artifact_version": __version__,
            "seed": args.seed,
            "samples": args.samples,
            "horizon": args.horizon,
        },
    }
    _write_out(modelio.dumps(summary) + "\n", args.out)
    return 0


def cmd_classical(args) -> int:
    mf = _load(args.model)
    if mf.classical is None:
        raise InputError("model file has no classical block")
    report = classical_mod.crosscheck(mf.classical)
    doc = {
        "qsd": {
            "density": list(map(float, report.qsd.density)),
            "alpha": report.qsd.alpha,
            "unique": report.qsd.unique,
        },
        "embedded_match": {
            "alpha": None if np.isnan(report.matched_alpha) else report.matched_alpha,
            "alpha_gap": None if np.isinf(report.alpha_gap) else report.alpha_gap,
            "residual": None if np.isinf(report.match_residual) else report.match_residual,
            "ok": report.ok,
        },
        "n_extra_families": len(report.extra_families),
    }
    _write_out(modelio.dumps(doc) + "\n", args.out)
    return 0 if report.ok else 2


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
    if args.param != "omega":
        raise InputError(f"unknown parameter {args.param!r}; this family exposes 'omega'")
    factory = FIXTURE_FAMILIES[mf.family]
    values = _parse_range(args.range)
    rows = []
    for value in values:
        restr = structure_mod.restrict(factory(float(value)))
        # loose realness tolerance: branches collide at the bifurcation and
        # a defective pair splits at the sqrt(eps) level
        cands = qss_mod.real_eigen_candidates(restr, real_tol=1e-6)
        result = qss_mod.extract_qss(cands)
        alphas = sorted(f.alpha for f in result.families)
        # merge branches closer than the defective-splitting resolution, so
        # the collision point reports a single (double-root) branch
        merged = []
        for a in alphas:
            if merged and a - merged[-1][-1] <= 1e-5:
                merged[-1].append(a)
            else:
                merged.append([a])
        alphas = [float(np.mean(group)) for group in merged]
        rows.append((float(value), alphas))
    width = max(len(alphas) for _, alphas in rows)
    header = [args.param] + [f"alpha_{k + 1}" for k in range(width)]
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
    spectral = argparse.ArgumentParser(add_help=False, parents=[common])
    spectral.add_argument("--tol-eig", type=float, default=op.TOL_EIG)

    p = sub.add_parser("analyze", parents=[spectral], help="structure + QSS report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", parents=[spectral], help="trajectory suite")
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
    p.add_argument("--param", default="omega")
    p.add_argument("--range", required=True, help="a:b:n inclusive linspace")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not 0 < getattr(args, "tol_eig", 1.0) < np.inf:  # analyze and simulate only
            raise InputError("--tol-eig must be positive and finite")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, qss_mod.QssTheoryError) as exc:
        print(f"theory-consistency failure: {exc}", file=sys.stderr)
        return 2
    except op.EigenSolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (structure_mod.StructureError, traj_mod.TrajectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
