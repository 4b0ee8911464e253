import numpy as np
import pytest
import scipy.linalg as sla

from oracles import apply_semigroup, full_generator
from qsslab.classical import (
    ClassicalError,
    RateMatrix,
    _distance_to_family,
    classical_qsd,
    crosscheck,
    embed,
)
from qsslab import operators as op
from qsslab.qss import QssCertificate, QssFamily


def chain_two_state(rate=1.0):
    return RateMatrix(
        n=2, q=np.array([[-rate, rate], [0.0, 0.0]]), absorbing_set=(1,)
    )


def chain_three_state():
    return RateMatrix(
        n=3,
        q=np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]),
        absorbing_set=(2,),
    )


def random_absorbing_chain(rng, n):
    """Connected survivors, one absorbing state, all survivor rates positive."""
    q = np.zeros((n, n))
    for x in range(n - 1):
        for y in range(n):
            if x != y:
                q[x, y] = rng.uniform(0.2, 1.5)
        q[x, x] = -np.sum(q[x])
    return RateMatrix(n=n, q=q, absorbing_set=(n - 1,))


def test_rate_matrix_validation():
    with pytest.raises(ClassicalError, match="nonnegative"):
        RateMatrix(n=2, q=np.array([[1.0, -1.0], [0.0, 0.0]]), absorbing_set=(1,))
    with pytest.raises(ClassicalError, match="sum to zero"):
        RateMatrix(n=2, q=np.array([[-1.0, 2.0], [0.0, 0.0]]), absorbing_set=(1,))
    with pytest.raises(ClassicalError, match="not closed"):
        RateMatrix(
            n=2, q=np.array([[-1.0, 1.0], [1.0, -1.0]]), absorbing_set=(1,)
        )
    with pytest.raises(ClassicalError, match="strict subset"):
        RateMatrix(n=2, q=np.zeros((2, 2)), absorbing_set=(0, 1))
    with pytest.raises(ClassicalError, match="out of range"):
        RateMatrix(n=2, q=np.array([[-1.0, 1.0], [0.0, 0.0]]), absorbing_set=(5,))


@pytest.mark.parametrize("state", ["1", 1.5, True, np.float64(1.0), np.bool_(True)],
                         ids=["string", "float", "bool", "numpy-float", "numpy-bool"])
def test_absorbing_states_are_integers(state):
    # a state is not coerced by int(): each of these once ran as state 1
    with pytest.raises(ClassicalError, match="integers"):
        RateMatrix(2, [[-1, 1], [0, 0]], (state,))
    # numpy integers are integers
    assert RateMatrix(2, [[-1, 1], [0, 0]], (np.int64(1),)).absorbing_set == (1,)


def test_two_state_qsd():
    qsd = classical_qsd(chain_two_state(0.7))
    assert qsd.unique
    assert np.allclose(qsd.density, [1.0])
    assert abs(qsd.alpha - 0.7) < 1e-12


def test_three_state_qsd():
    # symmetric survivor block [[-2,1],[1,-2]]: Perron pair (1,1)/2 at rate 1
    qsd = classical_qsd(chain_three_state())
    assert qsd.unique
    assert np.allclose(qsd.density, [0.5, 0.5], atol=1e-12)
    assert abs(qsd.alpha - 1.0) < 1e-12


def test_embed_matches_classical_dynamics():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        rm = random_absorbing_chain(rng, n)
        spec = embed(rm)
        prop = op.Propagator(full_generator(spec))
        p = rng.uniform(0.1, 1.0, size=n)
        p /= p.sum()
        rho = np.diag(p).astype(complex)
        t = float(rng.uniform(0.2, 2.0))
        evolved = apply_semigroup(prop, t, rho)
        classical = p @ sla.expm(t * rm.q)
        assert np.linalg.norm(np.diag(evolved).real - classical) < 1e-10
        # diagonal densities stay diagonal under the embedding
        assert np.linalg.norm(evolved - np.diag(np.diag(evolved))) < 1e-10


def test_embed_p0_is_absorbing_set_projector():
    spec = embed(chain_three_state())
    assert np.allclose(spec.p0, np.diag([0.0, 0.0, 1.0]))
    assert len(spec.jump_ops) == 4  # one per positive off-diagonal rate


def test_unique_is_whether_the_densities_agree():
    # a defective top rate: LAPACK returns two parallel eigenvectors of the
    # Jordan pair, both of the one QSD; two closed classes at one rate give two
    defective = classical_qsd(RateMatrix(3, [[-1, 1, 0], [0, -1, 1], [0, 0, 0]], (2,)))
    assert defective.unique and np.allclose(defective.density, [0.0, 1.0], atol=1e-12)
    assert not classical_qsd(RateMatrix(3, [[-1, 0, 1], [0, -1, 1], [0, 0, 0]], (2,))).unique


TWIN_BLOCKS = RateMatrix(7, [
    [-4, 0, 2, 0, 1, 0, 1], [0, -5, 0, 2, 0, 2, 1], [2, 0, -5, 0, 2, 0, 1], [0, 2, 0, -4, 0, 1, 1],
    [2, 0, 2, 0, -6, 0, 2], [0, 2, 0, 2, 0, -6, 2], [0, 0, 0, 0, 0, 0, 0],
], (6,))


def test_a_double_top_rate_from_a_conjugate_pair():
    # two copies of one transient block ({0, 2, 4} and {1, 3, 5}) share the top
    # rate; LAPACK may return it as a conjugate pair with roundoff imaginary
    # parts, whose vectors' real and imaginary parts still give the densities
    qsd = classical_qsd(TWIN_BLOCKS)
    w = np.linalg.eigvals(TWIN_BLOCKS.sub_rate_matrix())
    assert not qsd.unique and qsd.alpha == pytest.approx(-w.real.max(), abs=1e-12)
    assert qsd.density.sum() == pytest.approx(1.0) and np.all(qsd.density >= -1e-9)
    assert np.allclose(qsd.density @ TWIN_BLOCKS.sub_rate_matrix(), -qsd.alpha * qsd.density, atol=1e-9)
    support = np.flatnonzero(qsd.density > 1e-9)
    assert support.tolist() in ([0, 2, 4], [1, 3, 5])
    assert crosscheck(TWIN_BLOCKS).embedded_match.ok


def test_crosscheck_fixture_chains():
    for rm in (chain_two_state(), chain_two_state(0.7), chain_three_state()):
        match = crosscheck(rm).embedded_match
        assert match.ok
        assert match.alpha_gap <= 1e-9
        assert match.residual <= 1e-9


def test_crosscheck_random_chains():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        rm = random_absorbing_chain(rng, n)
        report = crosscheck(rm)
        assert report.embedded_match.ok, f"crosscheck failed for chain\n{rm.q}"


def test_distance_to_family_is_exact_membership():
    # a 3-dimensional family: all states diagonal in a rotated basis; the
    # anchor is the maximally mixed state and the endpoints are the pure ones
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))

    def rotated(diag):
        return u @ np.diag(diag).astype(complex) @ u.conj().T

    def cert(nu):
        return QssCertificate(alpha=1.0, nu=nu)

    basis = tuple(rotated(e) for e in np.eye(3))
    fam = QssFamily(alpha=1.0, herm_basis=basis, anchor=cert(rotated([1 / 3] * 3)), is_perron=True,
                    endpoints=tuple(cert(b) for b in basis))
    member = rotated([0.6, 0.3, 0.1])
    assert min(np.linalg.norm(member - c.nu) for c in (fam.anchor,) + fam.endpoints) > 0.3
    assert _distance_to_family(fam, member) <= 1e-12
    off = np.full((3, 3), 1 / 3, dtype=complex)  # |+><+| in the standard basis
    non_member = 0.5 * member + 0.5 * u @ off @ u.conj().T
    assert _distance_to_family(fam, non_member) > 0.1


def test_crosscheck_alpha_against_direct_eigensolve():
    rm = chain_three_state()
    sub = rm.sub_rate_matrix()
    w = np.linalg.eigvals(sub)
    alpha_direct = float(-np.max(w.real))
    report = crosscheck(rm)
    assert abs(report.qsd.alpha - alpha_direct) < 1e-12
