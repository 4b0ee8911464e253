"""Metamorphic acceptance through ``cli.main``: what ``analyze`` reports is a property
of the model, not of the basis it is written in, an idle spectator changes only
the multiplicities, scaling every rate by c scales the decay rate by c, and an
energy offset changes nothing."""

import dataclasses
import json

import numpy as np
import pytest

from helpers import model_to_doc, rotated, with_spectator
from propcheck import scaled_model
from qsslab import cli
from qsslab.classical import RateMatrix, embed
from qsslab.model import two_qubit_both, two_qubit_site1
from qsslab.structure import restrict


def _report(spec, tmp_path, capsys):
    """Exit code and parsed report of ``analyze`` on ``spec``."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_doc(spec)))
    code = cli.main(["analyze", str(path)])
    return code, json.loads(capsys.readouterr().out)


def _summary(code, report):
    """Exit code, absorbing verdict, (is_perron, dimension) per family and the Perron rate."""
    families = report["qss_families"]
    [alpha] = [fam["alpha"] for fam in families if fam["is_perron"]]
    shape = [(fam["is_perron"], fam["dimension"]) for fam in families]
    return code, report["structure"]["absorption"]["is_absorbing"], shape, alpha


def _analyze(spec, tmp_path, capsys):
    return _summary(*_report(spec, tmp_path, capsys))


@pytest.mark.parametrize("omega", [0.5, 0.5 + 1e-10, 0.5 - 1e-6, 0.3, 1.0, 0.5 + 1e-3, 0.5 + 1e-5])
@pytest.mark.parametrize("factory", [two_qubit_site1, two_qubit_both])
def test_frames_and_spectators_change_nothing_but_multiplicities(factory, omega, tmp_path, capsys):
    # six random unitary frames leave the exit code, the absorbing verdict and
    # each family's Perron mark and dimension as they are and move alpha by
    # rounding only; an idle spectator X (x) 1_2 keeps alpha and multiplies the
    # dimension of every family by 4.  omega = 1/2 is the branch collision;
    # just above it the double eigenvalue -1/2 (-1 for two_qubit_both) has an
    # ill-conditioned eigenvector
    spec = factory(omega)
    code, absorbing, shape, alpha = _analyze(spec, tmp_path, capsys)
    assert code == 0
    for seed in range(6):
        got = _analyze(rotated(spec, seed), tmp_path, capsys)
        assert got[:3] == (code, absorbing, shape)
        assert abs(got[3] - alpha) <= 1e-6
    got = _analyze(with_spectator(spec), tmp_path, capsys)
    assert got[:3] == (code, absorbing, [(perron, 4 * dim) for perron, dim in shape])
    assert abs(got[3] - alpha) <= 1e-6


@pytest.mark.parametrize("omega", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("factory", [two_qubit_site1, two_qubit_both])
def test_rate_scaling_scales_only_the_rate(factory, omega, tmp_path, capsys):
    # H -> c H and L_k -> sqrt(c) L_k is time scaled by c: the exit code, the
    # absorbing verdict and each family's Perron mark and dimension stay, and
    # the Perron rate scales by c, within the frame test's tolerance scaled by c
    spec = factory(omega)
    code, absorbing, shape, alpha = _analyze(spec, tmp_path, capsys)
    assert code == 0
    for c in (10.0, 100.0, 1000.0):
        got = _analyze(scaled_model(spec, c), tmp_path, capsys)
        assert got[:3] == (code, absorbing, shape), c
        assert abs(got[3] - c * alpha) <= c * 1e-6, c


def _slow_chain(q10):
    """The 3-state chain with rate 1e-6 from state 0 to 1 and ``q10`` back, both
    states leaking to the absorbing state 2 at total rate 2."""
    q = np.array([[-2.0, 1e-6, 2.0 - 1e-6], [q10, -2.0, 2.0 - q10], [0.0, 0.0, 0.0]])
    return embed(RateMatrix(n=3, q=q, absorbing_set=(2,)))


@pytest.mark.parametrize("spec", [_slow_chain(2.0), _slow_chain(1e-6), two_qubit_site1(1.0), two_qubit_both(0.3)],
                         ids=["chain-q10-2", "chain-q10-1e-6", "site1", "both"])
def test_an_energy_offset_changes_nothing(spec, tmp_path, capsys):
    # H -> H + c 1 adds only a phase: the exit code, the absorbing verdict, each
    # family's Perron mark and dimension and Burnside's verdict and note stay, and
    # the Perron rate moves by rounding only.  The chains' 1e-6 rates are far
    # below c * CLOSURE_TOL for the larger offsets
    code, report = _report(spec, tmp_path, capsys)
    want = _summary(code, report)
    assert code == 0
    for c in (1e4, 1e6, 1e7, 1e8):
        shifted = _report(dataclasses.replace(spec, hamiltonian=spec.hamiltonian + c * np.eye(spec.dim)),
                          tmp_path, capsys)
        assert shifted[1]["structure"]["irreducible"] == report["structure"]["irreducible"], c
        got = _summary(*shifted)
        assert got[:3] == want[:3], c
        assert abs(got[3] - want[3]) <= 1e-6, c


def test_an_ill_conditioned_double_eigenvalue_keeps_its_eigenspace():
    # in this frame both computed eigenvalues are exactly -1/2, yet the second
    # singular value of R + 1/2 is 5.7e-15, three times the clustering level:
    # rounding lifted by the ill-conditioned eigenvector, which the null-space
    # cut must take in
    [top, *_] = restrict(rotated(two_qubit_site1(0.501), 117)).real_clusters
    assert len(top.members) == top.coords.shape[1] == 2
