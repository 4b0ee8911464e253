"""End-to-end acceptance checks with one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line
even when all criteria pass.
"""

import json
import os

import numpy as np

import propcheck
from oracles import interjump_gaps, nojump_survival, sector_sum, truncated_exp_mean
from qsslab import cli
from qsslab.classical import RateMatrix, crosscheck
from qsslab.model import two_qubit_both, two_qubit_site1
from qsslab.qss import extract_qss, perron_structure, verify_qss
from qsslab.structure import absorption_operator, check_irreducible, restrict
from qsslab.trajectory import build_kernel, jump_statistics, sample_trajectories

SQRT3_4 = np.sqrt(3.0) / 4.0


def _verdict(number, description, checks):
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[criterion {number}] {status} - {description}")
    assert not failed, f"criterion {number} failed: {failed}"


def _pipeline(spec):
    restr = restrict(spec)
    return restr, perron_structure(restr, extract_qss(restr))


def test_criterion_1_site1_omega1_family():
    _, result = _pipeline(two_qubit_site1(1.0))
    checks = []
    checks.append(("single family", len(result.families) == 1))
    fam = result.families[0]
    checks.append(("alpha = 1/2", abs(fam.alpha - 0.5) < 1e-9))
    checks.append(("eigenspace dimension 2", len(fam.herm_basis) == 2))
    anchor = fam.anchor.nu
    checks.append(("nu11 = 1/2", abs(anchor[1, 1] - 0.5) < 1e-9))
    checks.append(("nu22 = 1/2", abs(anchor[2, 2] - 0.5) < 1e-9))
    checks.append(("Im nu12 = 1/4", abs(anchor[1, 2].imag - 0.25) < 1e-9))
    ends = sorted(c.nu[1, 2].real for c in fam.endpoints)
    checks.append(("left endpoint -sqrt(3)/4", abs(ends[0] + SQRT3_4) < 1e-9))
    checks.append(("right endpoint +sqrt(3)/4", abs(ends[1] - SQRT3_4) < 1e-9))
    for c in fam.endpoints:
        checks.append(
            ("endpoint entries", abs(c.nu[1, 1] - 0.5) < 1e-9
             and abs(c.nu[2, 2] - 0.5) < 1e-9
             and abs(c.nu[1, 2].imag - 0.25) < 1e-9)
        )
    _verdict(1, "one-site decay, omega=1: alpha=1/2 segment with endpoints +-sqrt(3)/4", checks)


def test_criterion_2_site1_omega03_two_states():
    _, result = _pipeline(two_qubit_site1(0.3))
    checks = []
    checks.append(("exactly two families", len(result.families) == 2))
    disc = np.sqrt(1.0 - 4.0 * 0.09)
    expected_alphas = sorted(((1.0 - disc) / 2.0, (1.0 + disc) / 2.0))
    got_alphas = sorted(f.alpha for f in result.families)
    for got, exp in zip(got_alphas, expected_alphas):
        checks.append((f"alpha {exp:g}", abs(got - exp) < 1e-9))
    by_alpha = {round(f.alpha, 6): f for f in result.families}
    for alpha, major in ((0.1, 0.9), (0.9, 0.1)):
        nu = by_alpha[alpha].anchor.nu
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1], expected[2, 2] = major, 1.0 - major
        expected[1, 2], expected[2, 1] = 0.3j, -0.3j
        checks.append(
            (f"nu matrix at alpha={alpha}", float(np.max(np.abs(nu - expected))) < 1e-9)
        )
        checks.append(
            (f"purity at alpha={alpha}", abs(np.trace(nu @ nu).real - 1.0) < 1e-9)
        )
    _verdict(2, "one-site decay, omega=0.3: two pure states at alpha=0.1 and 0.9", checks)


def test_criterion_3_both_sites_unique_rate():
    _, result = _pipeline(two_qubit_both(1.0))
    checks = []
    checks.append(("single family", len(result.families) == 1))
    fam = result.families[0]
    checks.append(("alpha = 1", abs(fam.alpha - 1.0) < 1e-9))
    expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    checks.append(
        ("canonical state diag(0,1/2,1/2,0)",
         float(np.max(np.abs(fam.anchor.nu - expected))) < 1e-9)
    )
    reasons = {round(r.alpha, 6): r.reason for r in result.rejected}
    checks.append(("alpha=2 rejected by positivity", "not PSD" in reasons.get(2.0, "")))
    if fam.param_interval is not None:
        # the alpha=1 eigenspace additionally admits exchange-symmetric
        # coherent mixtures; the canonical state above is its minimal-norm
        # trace-one representative
        lo, hi = sorted(c.nu[1, 2].real for c in fam.endpoints)
        print(
            "[criterion 3] note - admissible set at alpha=1 is a segment "
            f"(Re nu12 in [{lo:+.3f}, {hi:+.3f}])"
        )
    _verdict(3, "two-site decay: alpha=1 with canonical state diag(0,1/2,1/2,0); alpha=2 not PSD", checks)


def test_criterion_4_equivalent_characterizations():
    checks = []
    for spec in (two_qubit_site1(1.0), two_qubit_site1(0.3), two_qubit_both(1.0)):
        _, result = _pipeline(spec)
        for fam in result.families:
            for cert in (fam.anchor,) + fam.endpoints:
                report = verify_qss(cert)
                residual = max(report.residual_defn, report.residual_exp_survival, report.residual_mult,
                               report.residual_repeated)
                checks.append((f"{spec.label} alpha={fam.alpha:g} residuals", report.ok and residual <= 1e-8))
    _verdict(4, "definition, exponential law, multiplicativity, repeated conditioning <= 1e-8", checks)


def test_criterion_5_absorbing_iff_positive_rate():
    checks = []
    absorption = absorption_operator(restrict(two_qubit_both(1.0)))
    checks.append(("both-site model absorbing", absorption.is_absorbing))
    _, result = _pipeline(two_qubit_both(1.0))
    perron = [f for f in result.families if f.is_perron]
    checks.append(("Perron alpha = 1 > 0", len(perron) == 1 and abs(perron[0].alpha - 1.0) < 1e-9))

    dark = absorption_operator(restrict(two_qubit_site1(0.0)))
    checks.append(("uncoupled one-site model not absorbing", not dark.is_absorbing))
    restr = restrict(two_qubit_site1(0.0))
    w = np.linalg.eigvals(restr.gen)
    checks.append(("alpha = 0 eigenvalue present", float(np.min(np.abs(w))) < 1e-9))
    _verdict(5, "absorbing complement forces a positive decay rate", checks)


def test_criterion_6_trajectory_suite():
    spec = two_qubit_both(1.0)
    _, result = _pipeline(spec)
    nu = result.families[0].anchor.nu
    alpha = result.families[0].alpha
    kernel = build_kernel(restrict(spec))
    checks = []

    worst = 0.0
    for t in np.linspace(0.0, 6.0, 61):
        _, perp = nojump_survival(spec, nu, t)
        worst = max(worst, abs(perp - np.exp(-2.0 * t)))
    checks.append(("survival identity exp(-2t) within 1e-8", worst < 1e-8))

    n = 10_000
    horizon = 6.0
    records = sample_trajectories(kernel, nu, horizon, seed=42, n=n)
    stats = jump_statistics(records, alpha, nu=nu)

    checks.append(("post-jump states equal nu within 1e-7",
                   stats.post_jump_max_deviation <= 1e-7))

    gaps = interjump_gaps(records)
    target_mean = truncated_exp_mean(2.0, horizon)
    stderr = float(np.std(gaps, ddof=1) / np.sqrt(len(gaps)))
    checks.append(
        ("conditional inter-jump mean within 3 SE of truncated-Exp(2)",
         abs(stats.conditional_interjump_mean - target_mean) <= 3.0 * stderr)
    )

    p_jump = 0.5 * (1.0 - np.exp(-2.0 * horizon))
    sigma = np.sqrt(p_jump * (1.0 - p_jump) / n)
    observed = 1.0 - stats.censoring_fraction
    checks.append(
        ("jump-occurrence fraction within 3 sigma of (1-exp(-12))/2",
         abs(observed - p_jump) <= 3.0 * sigma)
    )

    checks.append(("sector-sum normalization within 1e-6",
                   abs(sector_sum(spec, nu, horizon) - 1.0) <= 1e-6))
    _verdict(6, "trajectory suite, N=10^4, seed 42, horizon 6", checks)


def test_criterion_7_classical_bridge():
    checks = []
    two_state = RateMatrix(
        n=2, q=np.array([[-1.0, 1.0], [0.0, 0.0]]), absorbing_set=(1,)
    )
    three_state = RateMatrix(
        n=3,
        q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]),
        absorbing_set=(2,),
    )
    for label, rm in (("2-state", two_state), ("3-state", three_state)):
        # independent oracle: dense left-eigensolve of the survivor block
        sub = rm.sub_rate_matrix()
        w, vl = np.linalg.eig(sub.T)
        top = int(np.argmax(w.real))
        density = np.abs(vl[:, top].real)
        density /= density.sum()
        alpha_oracle = float(-w[top].real)
        report = crosscheck(rm)
        match = report.embedded_match
        checks.append((f"{label} alpha", abs(report.qsd.alpha - alpha_oracle) < 1e-9))
        checks.append(
            (f"{label} density", float(np.max(np.abs(report.qsd.density - density))) < 1e-9)
        )
        checks.append((f"{label} embedded match", match.ok and match.residual <= 1e-9))
    _verdict(7, "classical chains: embedded QSS matches the QSD and decay rate", checks)


def test_criterion_8_property_suite():
    checks = []
    rng = np.random.default_rng(555001)
    worst = {"duality": 0.0, "tilde_trace": 0.0, "restrict_embed": 0.0}
    for _ in range(200):
        _, results = propcheck.run_property_case(rng)
        for key in worst:
            worst[key] = max(worst[key], results[key])
    checks.append(("duality residual <= 1e-10", worst["duality"] <= 1e-10))
    checks.append(("companion-semigroup trace preservation <= 1e-10",
                   worst["tilde_trace"] <= 1e-10))
    checks.append(("restrict/embed consistency <= 1e-10",
                   worst["restrict_embed"] <= 1e-10))

    rng = np.random.default_rng(555002)
    scaling_worst = 0.0
    for _ in range(50):
        spec = propcheck.random_subharmonic_model(rng)
        scaling_worst = max(scaling_worst, propcheck.check_rate_scaling(spec))
    checks.append(("rate-scaling covariance of (alpha, nu)", scaling_worst <= 1e-6))

    for seed in (911, 912, 913, 914, 915):
        worst_pipeline, worst_distance, step = propcheck.grid_oracle_case(seed)
        checks.append((f"grid oracle seed {seed} pipeline residual",
                       worst_pipeline <= 1e-6))
        checks.append((f"grid oracle seed {seed} converse distance",
                       worst_distance <= 3.0 * step))
    _verdict(8, "random-model property suite (200 cases) and d=3 grid oracles", checks)


def test_criterion_9_bifurcation_sweep(tmp_path, models_dir):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "sweep", os.path.join(models_dir, "two_qubit_site1.json"),
            "--range", "0.1:1.0:10", "--out", str(out),
        ]
    )
    checks = [("exit code 0", rc == 0)]
    rows = []
    for line in out.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        rows.append((float(cells[0]), [float(c) for c in cells[1:] if c]))
    for omega, alphas in rows:
        disc = 1.0 - 4.0 * omega**2
        if omega < 0.5:
            ok = (
                len(alphas) == 2
                and abs(alphas[0] - (1.0 - np.sqrt(disc)) / 2.0) < 1e-9
                and abs(alphas[1] - (1.0 + np.sqrt(disc)) / 2.0) < 1e-9
            )
            checks.append((f"two branches at omega={omega:g}", ok))
        elif abs(omega - 0.5) < 1e-12:
            checks.append(("discriminant zero at collision", abs(disc) <= 1e-9))
            checks.append(
                ("merged double root at omega=1/2",
                 len(alphas) == 1 and abs(alphas[0] - 0.5) < 1e-7)
            )
        else:
            checks.append(
                (f"single branch at omega={omega:g}",
                 len(alphas) == 1 and abs(alphas[0] - 0.5) < 1e-9)
            )
    _verdict(9, "omega sweep: branch pair merges at omega = 1/2", checks)
