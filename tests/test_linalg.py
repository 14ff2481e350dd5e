import numpy as np
import pytest

from cohkit import linalg
from cohkit.measures import l1_coherence
from cohkit.states import DensityMatrix, projector, random_density


def rand_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_kron_preserves_l1_against_diagonal_factor():
    rho_a = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    prod = np.kron(rho_a, np.diag([0.5, 0.5]).astype(complex))
    assert abs(l1_coherence(DensityMatrix(prod)).value - 0.6) < 1e-12


def test_partial_trace_factors_product_states():
    rng = np.random.default_rng(1)
    rho = random_density(2, 2, rng).mat
    sig = random_density(3, 3, rng).mat
    prod = np.kron(rho, sig)
    assert np.max(np.abs(linalg.partial_trace(prod, [2, 3], 0) - rho)) < 1e-12
    assert np.max(np.abs(linalg.partial_trace(prod, [2, 3], 1) - sig)) < 1e-12
    factors = [rho, sig, random_density(2, 1, rng).mat]
    triple = np.kron(np.kron(*factors[:2]), factors[2])
    for keep, factor in enumerate(factors):
        assert np.max(np.abs(linalg.partial_trace(triple, [2, 3, 2], keep) - factor)) < 1e-12


def test_partial_trace_sigma_family_reduction():
    from cohkit.states import sigma_family

    red = linalg.partial_trace(sigma_family(2, 1 / 3).mat, [2, 2], 0)
    expected = np.array([[0.5, -1 / 6], [-1 / 6, 0.5]])
    assert np.max(np.abs(red - expected)) < 1e-14


def test_partial_trace_maximally_entangled_marginals():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = projector(psi)
    for keep in (0, 1):
        red = linalg.partial_trace(rho, [2, 2], keep)
        assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-14


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    m = rand_complex(rng, 12)
    for keep in range(3):
        red = linalg.partial_trace(m, [2, 3, 2], keep)
        assert abs(np.trace(red) - np.trace(m)) < 1e-12


def test_partial_trace_reduces_each_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    stack = np.stack([rand_complex(rng, 12) for _ in range(5)]).reshape(5, 1, 12, 12)
    for keep in range(3):
        red = linalg.partial_trace(stack, [2, 3, 2], keep)
        assert red.shape == (5, 1) + (red.shape[-1],) * 2
        for i in range(5):
            alone = linalg.partial_trace(stack[i, 0], [2, 3, 2], keep)
            assert np.max(np.abs(red[i, 0] - alone)) < 1e-13
    with pytest.raises(ValueError, match="square"):
        linalg.partial_trace(stack[..., :6], [2, 3, 2], 0)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="do not factor"):
        linalg.partial_trace(np.eye(6), [2, 2], 0)
    with pytest.raises(ValueError, match="out of range"):
        linalg.partial_trace(np.eye(4), [2, 2], 2)
    for dims in ([], [4, 0], [-2, -2]):
        with pytest.raises(ValueError, match="invalid subsystem dimensions"):
            linalg.partial_trace(np.eye(4), dims, 0)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_diagonal_minus_is_each_matrix_slack_bit_for_bit(kind):
    # the solver's, the stacked rungs' and the audit's one slack builder:
    # each row of a stack has the bits of its matrix alone, of np.diag(d) - m
    # and of the solver's former -m + eye * d, signed zeros included
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 6, 6))
    if kind == "complex":
        m = m + 1j * rng.standard_normal((4, 6, 6))
    m[:, 0, 1:] = 0.0  # zero entries, whose sign 0.0 - m keeps positive
    m[:, 1:, 0] = -0.0
    d = rng.uniform(0.5, 2.0, (4, 6))
    stack = linalg.diagonal_minus(d, m)
    assert stack.shape == m.shape and stack.dtype == m.dtype
    for i in range(4):
        alone = linalg.diagonal_minus(d[i], m[i])
        for other in (alone, np.diag(d[i]) - m[i], -m[i] + np.eye(6) * d[i]):
            assert other.dtype == stack.dtype and other.tobytes() == stack[i].tobytes()


def test_hermitian_eig_sorted_diagonal():
    eig = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)


def test_hermitian_eig_pauli_x():
    eig = linalg.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(3)
    for d in (2, 5, 8):
        h = rand_complex(rng, d)
        h = (h + h.conj().T) / 2
        eig = linalg.hermitian_eig(h)
        v = eig.eigenvectors
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm((v * eig.eigenvalues) @ v.conj().T - h) < 1e-10 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for h in (np.eye(3)[:2], np.eye(2)[None]):
        with pytest.raises(ValueError, match="square"):
            linalg.hermitian_eig(h)


def test_density_eigenvalues_in_unit_range():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        w = linalg.hermitian_eig(rho.mat).eigenvalues
        assert w[0] >= -1e-10
        assert w[-1] <= 1 + 1e-10
