"""Output oracles that do not use the code under test.

Every reference value here is recomputed from the model file with plain
numpy; nothing is imported from ``qsslab``.  A check returns a list of
mismatch reasons (empty means the output passed) and, for the statistical
checks of ``simulate``, a list of warnings that do not fail the command.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Perron rate of ``analyze`` against the reference
ANALYZE_ALPHA_TOL = 1e-7
# ``sweep`` merges branches closer than 1e-5, so that is its resolution
SWEEP_ALPHA_TOL = 1e-5
CLASSICAL_ALPHA_TOL = 1e-9
# eigenvalues this close to the rightmost one belong to its cluster: a
# Jordan pair at the two-qubit collision omega = 1/2 splits by ~4e-6
CLUSTER_RADIUS = 1e-4
POST_JUMP_TOL = 1e-8
# the statistical checks run a few hundred times over a set of runs, so
# they fail only far out in the tail; the 3-SE / 1%-KS bounds of the
# acceptance criterion are reported as warnings
MEAN_FAIL_SE, MEAN_WARN_SE = 5.0, 3.0
KS_FAIL_LEVEL, KS_WARN_LEVEL = 1e-6, 1e-2


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def model_matrices(doc: dict):
    """(H, jump operators, p0) of a quantum model file."""
    d = doc["dim"]
    h = _matrix(doc["hamiltonian"])
    jumps = [_matrix(l) for l in doc.get("jump_ops", [])]
    if "p0_basis" in doc:
        p0 = np.zeros((d, d), dtype=complex)
        for i in doc["p0_basis"]:
            p0[i, i] = 1.0
    else:
        p0 = _matrix(doc["p0_matrix"])
    return h, jumps, p0


def restricted_predual_generator(doc: dict) -> np.ndarray:
    """Matrix of rho -> G rho + rho G^dag + sum L rho L^dag on range(p0_perp).

    Operators are compressed with an orthonormal basis V of range(p0_perp):
    G^ = V^dag G V and L^ = V^dag L V, with G = -iH - 1/2 sum L^dag L.
    Column stacking: vec(A X B) = kron(B^T, A) vec(X).
    """
    h, jumps, p0 = model_matrices(doc)
    d = h.shape[0]
    perp = np.eye(d) - p0
    w, vecs = np.linalg.eigh(0.5 * (perp + perp.conj().T))
    v = vecs[:, w > 0.5]
    m = v.shape[1]
    g = -1j * h - 0.5 * sum((l.conj().T @ l for l in jumps), np.zeros((d, d)))
    g_hat = v.conj().T @ g @ v
    eye = np.eye(m)
    gen = np.kron(eye, g_hat) + np.kron(g_hat.conj(), eye)
    for l in jumps:
        l_hat = v.conj().T @ l @ v
        gen = gen + np.kron(l_hat.conj(), l_hat)
    return gen


def perron_alpha(doc: dict) -> float:
    """Minus the real part of the mean of the rightmost eigenvalue cluster."""
    w = np.linalg.eigvals(restricted_predual_generator(doc))
    top = w[np.argmax(w.real)]
    cluster = w[np.abs(w - top) <= CLUSTER_RADIUS]
    return float(-np.mean(cluster).real)


def subrate_alpha(rate_matrix, absorbing_set) -> float:
    """Decay rate of a classical chain: minus the top eigenvalue of Q_sub."""
    q = np.asarray(rate_matrix, dtype=float)
    keep = [i for i in range(q.shape[0]) if i not in set(absorbing_set)]
    w = np.linalg.eigvals(q[np.ix_(keep, keep)])
    return float(-np.max(w.real))


def truncated_exp_moments(rate: float, window: float):
    """Mean and standard deviation of Exp(rate) conditioned on <= window."""
    e = math.exp(-rate * window)
    z = 1.0 - e
    mean = 1.0 / rate - window * e / z
    second = (2.0 / rate**2 - e * (window**2 + 2.0 * window / rate + 2.0 / rate**2)) / z
    return mean, math.sqrt(max(second - mean**2, 0.0))


def ks_critical(n: int, level: float) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov critical value."""
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


def _parse(text: str, errors: list):
    try:
        return json.loads(text)
    except ValueError as exc:
        errors.append(f"output is not JSON: {exc}")
        return None


def check_analyze(text: str, alpha_ref: float) -> list:
    errors = []
    report = _parse(text, errors)
    if report is None:
        return errors
    families = report.get("qss_families", [])
    perron = [f for f in families if f.get("is_perron")]
    if len(perron) != 1:
        errors.append(f"expected one Perron family, found {len(perron)}")
    for fam in perron:
        gap = abs(fam["alpha"] - alpha_ref)
        if not gap <= ANALYZE_ALPHA_TOL:
            errors.append(
                f"Perron alpha {fam['alpha']!r} differs from reference {alpha_ref!r} by {gap:.3e}"
            )
    for k, fam in enumerate(families):
        if not fam.get("verification", {}).get("ok"):
            errors.append(f"family {k} (alpha {fam.get('alpha')!r}) failed verification")
    return errors


def check_sweep(text: str, omegas, alphas) -> list:
    """Each row's alpha_1 against the reference Perron rate at its omega."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("omega,alpha_1"):
        return [f"unexpected sweep header {lines[:1]!r}"]
    rows = lines[1:]
    if len(rows) != len(omegas):
        return [f"expected {len(omegas)} sweep rows, got {len(rows)}"]
    errors = []
    for row, omega, alpha in zip(rows, omegas, alphas):
        cells = row.split(",")
        if abs(float(cells[0]) - omega) > 1e-12:
            errors.append(f"row omega {cells[0]} != {omega!r}")
        elif not abs(float(cells[1]) - alpha) <= SWEEP_ALPHA_TOL:
            errors.append(f"omega {omega!r}: alpha_1 {cells[1]} vs reference {alpha!r}")
    return errors


def check_classical(text: str, alpha_ref: float) -> list:
    errors = []
    doc = _parse(text, errors)
    if doc is None:
        return errors
    tol = CLASSICAL_ALPHA_TOL * max(1.0, abs(alpha_ref))
    if not doc["embedded_match"]["ok"]:
        errors.append("embedded_match.ok is false")
    for key, value in (("qsd.alpha", doc["qsd"]["alpha"]),
                       ("embedded_match.alpha", doc["embedded_match"]["alpha"])):
        if value is None or not abs(value - alpha_ref) <= tol:
            errors.append(f"{key} {value!r} vs sub-rate eigenvalue {alpha_ref!r}")
    return errors


def check_simulate(text: str, alpha_ref: float, samples: int, horizon: float, records=None):
    """Criterion-6 checks on a ``simulate --start qss`` summary.

    ``records`` is the text of the ``--records`` file when one was written.
    Returns ``(errors, warnings)``.
    """
    errors, warnings = [], []
    doc = _parse(text, errors)
    if doc is None:
        return errors, warnings
    if doc["n_trajectories"] != samples:
        errors.append(f"n_trajectories {doc['n_trajectories']} != {samples}")
    if not abs(doc["alpha"] - alpha_ref) <= ANALYZE_ALPHA_TOL:
        errors.append(f"alpha {doc['alpha']!r} vs reference {alpha_ref!r}")
    if not doc["post_jump_max_deviation"] <= POST_JUMP_TOL:
        errors.append(f"post-jump deviation {doc['post_jump_max_deviation']!r} > {POST_JUMP_TOL}")
    n = doc["n_observed_jumps"]
    if n < 1:
        return errors + ["no jumps observed"], warnings
    mean, sd = truncated_exp_moments(1.0 + alpha_ref, horizon)
    z = abs(doc["conditional_interjump_mean"] - mean) / (sd / math.sqrt(n))
    if z > MEAN_FAIL_SE:
        errors.append(f"inter-jump mean is {z:.2f} SE from {mean!r}")
    elif z > MEAN_WARN_SE:
        warnings.append(f"inter-jump mean is {z:.2f} SE from {mean!r}")
    ks = doc["ks_statistic"]
    if ks > ks_critical(n, KS_FAIL_LEVEL):
        errors.append(f"KS statistic {ks!r} above the {KS_FAIL_LEVEL:g}-level critical value")
    elif ks > ks_critical(n, KS_WARN_LEVEL):
        warnings.append(f"KS statistic {ks!r} above the {KS_WARN_LEVEL:g}-level critical value")
    if records is not None:
        lines = records.splitlines()
        if len(lines) != samples:
            errors.append(f"records file has {len(lines)} lines, expected {samples}")
        else:
            jumps = sum(len(json.loads(line)["jump_times"]) for line in lines)
            if jumps != n:
                errors.append(f"records hold {jumps} jumps, summary says {n}")
    return errors, warnings
