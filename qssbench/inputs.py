"""Seeded inputs of the benchmark workloads.

Each workload is a list of passes; a pass is a fixed list of ``qsslab``
command lines over model files that this module writes from the workload
seed.  The same seed gives the same files and commands.  Every command
carries the reference values its output is checked against (see
``oracles``), computed here with plain numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import oracles

DENSE_SIZES = (8, 10, 12)
DENSE_JUMPS = (1, 2, 3)
# passes with distinct inputs; a run cycles through them
DENSE_PASSES = 4
SIM_PASSES = 12
# the fixture grid is omega = k / 40; k = 0, 20 and 40 stay exact and the
# other points move by up to 0.4 of a grid step
FIXTURE_STEPS = 40
FIXTURE_JITTER = 0.4
FIXTURE_FAMILIES = ("two_qubit_site1", "two_qubit_both")
SWEEP_RANGE = (0.0, 1.0, 41)
SIM_SAMPLES = 500
SIM_HORIZON = 6.0


def known_failure(family: str, omega: float):
    """(exit code, stderr text) of a documented ``analyze`` failure, or None.

    Such a failure counts in the failure share but does not fail the run;
    the command's output is checked as usual once it succeeds.
    """
    if family != "two_qubit_site1":
        return None
    if omega == 0.5:
        # the Jordan pair at the branch collision splits beyond the
        # realness tolerance
        return 2, "Perron existence failed"
    if 0.0 < omega < 0.02:
        # the slowest decay rate is ~omega^2, so T_t(p0) settles only after
        # t ~ 18 / omega^2, beyond the 2^16 doubling cap of the absorption
        return 1, "did not converge"
    return None


@dataclass(frozen=True)
class Command:
    kind: str                 # analyze | sweep | classical | simulate
    group: str                # which per-workload metric its time feeds
    label: str
    argv: tuple
    ref: dict                 # reference values for the oracle
    units: int = 1            # sweep points or trajectories done
    records: Optional[str] = None
    known_failure: Optional[tuple] = None   # (exit code, stderr text)


@dataclass
class Workload:
    name: str
    seed: int
    passes: list              # list of lists of Command, used in turn
    model_files: list
    generator: dict = field(default_factory=dict)  # input parameters, for provenance


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *tags])


def _pairs(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def random_subharmonic_doc(rng: np.random.Generator, d: int, n_jumps: int) -> dict:
    """Random model with rank-d/2 p0 = span(e_0..e_{r-1}), subharmonic by construction.

    Jump operators vanish on the block range(p0) -> range(p0_perp); the
    Hamiltonian's off-diagonal block cancels the drift leakage
    G[perp, p0] = -i H[perp, p0] - 1/2 K[perp, p0] with K = sum L^dag L.
    """
    r = d // 2
    jumps = []
    for _ in range(n_jumps):
        l = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        l[r:, :r] = 0.0
        jumps.append(l / np.linalg.norm(l))
    k = sum(l.conj().T @ l for l in jumps)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (h + h.conj().T)
    h = h / np.linalg.norm(h)
    h[r:, :r] = 0.5j * k[r:, :r]
    h[:r, r:] = h[r:, :r].conj().T
    return {
        "schema_version": "1",
        "label": f"random d={d} rank={r} jumps={n_jumps}",
        "dim": d,
        "hamiltonian": _pairs(h),
        "jump_ops": [_pairs(l) for l in jumps],
        "p0_basis": list(range(r)),
    }


def two_qubit_doc(family: str, omega: float) -> dict:
    """Exchange coupling omega/2 (s1+ s2- + h.c.); decay on site 1 or both."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    s1m, s2m = np.kron(lower, np.eye(2)), np.kron(np.eye(2), lower)
    h = 0.5 * omega * (s1m.T @ s2m + s1m @ s2m.T)
    jumps = [s1m] if family == "two_qubit_site1" else [s1m, s2m]
    return {
        "schema_version": "1",
        "label": f"{family} omega={omega!r}",
        "dim": 4,
        "family": family,
        "params": {"omega": omega},
        "hamiltonian": _pairs(h),
        "jump_ops": [_pairs(l) for l in jumps],
        "p0_basis": [0],
    }


def chain_docs(rng: np.random.Generator) -> list:
    """The two shipped absorbing chains, rates scaled by a seeded factor."""
    chains = [
        ("two-state chain", [[-1, 1], [0, 0]], [1]),
        ("three-state chain", [[-2, 1, 1], [1, -2, 1], [0, 0, 0]], [2]),
    ]
    docs = []
    for label, q, absorbing in chains:
        scale = float(rng.uniform(0.5, 2.0))
        docs.append({
            "schema_version": "1",
            "label": f"{label}, rates x{scale!r}",
            "classical": {
                "rate_matrix": [[scale * x for x in row] for row in q],
                "absorbing_set": absorbing,
            },
        })
    return docs


class _Writer:
    def __init__(self, workdir: Path):
        self.dir = workdir / "models"
        self.dir.mkdir(parents=True, exist_ok=True)
        for old in self.dir.glob("*.json"):
            old.unlink()
        self.files = []

    def write(self, name: str, doc: dict) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.files.append(str(path))
        return str(path)


def _analyze(path: str, doc: dict, group: str, label: str, known=None) -> Command:
    return Command("analyze", group, label, ("analyze", path),
                   {"alpha": oracles.perron_alpha(doc)}, known_failure=known)


def _sweep(path: str, family: str) -> Command:
    a, b, n = SWEEP_RANGE
    omegas = [float(x) for x in np.linspace(a, b, n)]
    alphas = [oracles.perron_alpha(two_qubit_doc(family, w)) for w in omegas]
    return Command("sweep", "sweep", f"sweep {family}",
                   ("sweep", path, "--range", f"{a:g}:{b:g}:{n}"),
                   {"omegas": omegas, "alphas": alphas}, units=n)


def _classical(path: str, doc: dict) -> Command:
    block = doc["classical"]
    alpha = oracles.subrate_alpha(block["rate_matrix"], block["absorbing_set"])
    return Command("classical", "classical", f"classical {doc['label']}",
                   ("classical", path), {"alpha": alpha})


def _simulate(path: str, doc: dict, seed: int, samples: int, records=None) -> Command:
    argv = ("simulate", path, "--start", "qss", "--samples", str(samples),
            "--horizon", repr(SIM_HORIZON), "--seed", str(seed))
    group = "simulate"
    if records:
        argv += ("--records", records)
        group = "simulate_records"
    return Command("simulate", group,
                   f"simulate {doc['label']} --seed {seed}" + (" --records" if records else ""),
                   argv, {"alpha": oracles.perron_alpha(doc), "samples": samples,
                          "horizon": SIM_HORIZON},
                   units=samples, records=records)


def _analyze_dense(seed: int, w: _Writer) -> Workload:
    """Each pass analyzes nine fresh models: every size with 1, 2 and 3 jumps."""
    passes, params = [], []
    for k in range(DENSE_PASSES):
        cmds = []
        for n_jumps in DENSE_JUMPS:
            for d in DENSE_SIZES:
                doc = random_subharmonic_doc(_rng(seed, d, n_jumps, k), d, n_jumps)
                path = w.write(f"dense_{k}_d{d}_j{n_jumps}", doc)
                cmds.append(_analyze(path, doc, f"analyze_d{d}", f"analyze {doc['label']} #{k}"))
                params.append({"file": Path(path).name, "d": d, "rank": d // 2,
                               "jumps": n_jumps})
        passes.append(cmds)
    return Workload("analyze-dense", seed, passes, w.files, {"models": params})


def fixture_grid(seed: int) -> list:
    rng = _rng(seed, 4)
    grid = []
    for k in range(FIXTURE_STEPS + 1):
        shift = rng.uniform(-FIXTURE_JITTER, FIXTURE_JITTER)
        exact = k in (0, FIXTURE_STEPS // 2, FIXTURE_STEPS)
        grid.append(k / FIXTURE_STEPS if exact else (k + shift) / FIXTURE_STEPS)
    return grid


def _fixtures_d4(seed: int, w: _Writer) -> Workload:
    cmds = []
    grid = fixture_grid(seed)
    for family in FIXTURE_FAMILIES:
        for k, omega in enumerate(grid):
            doc = two_qubit_doc(family, omega)
            path = w.write(f"{family}_{k:02d}", doc)
            cmds.append(_analyze(path, doc, "analyze_d4", f"analyze {doc['label']}",
                                 known_failure(family, omega)))
        cmds.append(_sweep(path, family))
    chains = chain_docs(_rng(seed, 5))
    for i, doc in enumerate(chains):
        cmds.append(_classical(w.write(f"chain_{i}", doc), doc))
    return Workload("fixtures-d4", seed, [cmds], w.files, {
        "families": list(FIXTURE_FAMILIES), "omega_grid": grid,
        "sweep_range": list(SWEEP_RANGE), "chains": [doc["label"] for doc in chains]})


def _simulate_qss(seed: int, w: _Writer, workdir: Path) -> Workload:
    """Pass k runs both models with and without --records at sampler seed
    ``base + k``, so that the passes of a run average over trajectories."""
    base = int(_rng(seed, 6).integers(0, 2**31))
    records = str(workdir / "records.jsonl")
    models = []
    for family in ("two_qubit_both", "two_qubit_site1"):
        doc = two_qubit_doc(family, 1.0)
        models.append((w.write(f"sim_{family}", doc), doc))
    passes = []
    for k in range(SIM_PASSES):
        cmds = []
        for path, doc in models:
            cmds.append(_simulate(path, doc, base + k, SIM_SAMPLES))
            cmds.append(_simulate(path, doc, base + k, SIM_SAMPLES, records))
        passes.append(cmds)
    return Workload("simulate-qss", seed, passes, w.files, {
        "models": ["two_qubit_both omega=1", "two_qubit_site1 omega=1"],
        "samples": SIM_SAMPLES, "horizon": SIM_HORIZON, "simulate_seeds": [base, base + SIM_PASSES - 1]})


WORKLOADS = ("analyze-dense", "fixtures-d4", "simulate-qss")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's model files under ``workdir`` and return its passes."""
    w = _Writer(workdir)
    if name == "analyze-dense":
        return _analyze_dense(seed, w)
    if name == "fixtures-d4":
        return _fixtures_d4(seed, w)
    if name == "simulate-qss":
        return _simulate_qss(seed, w, workdir)
    raise ValueError(f"unknown workload {name!r}")


def probe(workdir: Path) -> list:
    """Fixed reference commands prepended to every traced pass.

    They touch every layer, and the first two give the per-command reference
    counts (``ref.*``) of ``analyze`` and ``simulate`` on the shipped
    fixtures at omega = 1.
    """
    w = _Writer(workdir / "probe")
    site1 = two_qubit_doc("two_qubit_site1", 1.0)
    both = two_qubit_doc("two_qubit_both", 1.0)
    site1_path = w.write("probe_site1", site1)
    chain = chain_docs(_rng(0, 7))[1]
    return [
        _analyze(site1_path, site1, "probe", "probe analyze two_qubit_site1 omega=1.0"),
        _simulate(w.write("probe_both", both), both, 42, 50),
        _classical(w.write("probe_chain", chain), chain),
        Command("sweep", "probe", "probe sweep two_qubit_site1", ("sweep", site1_path, "--range", "0.25:1:4"),
                {"omegas": [0.25, 0.5, 0.75, 1.0],
                 "alphas": [oracles.perron_alpha(two_qubit_doc("two_qubit_site1", x))
                            for x in (0.25, 0.5, 0.75, 1.0)]}, units=4),
    ]
