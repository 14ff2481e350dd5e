import json

import numpy as np
import pytest

import cohkit.states
from cohkit import linalg
from cohkit.measures import compute_measure, l1_coherence, MeasureKind
from cohkit.states import (
    DensityMatrix,
    dephase,
    haar_random_pure,
    load_density,
    maximally_coherent,
    maximally_entangled_two_qubit,
    mix_with_pure,
    projector,
    pure_density,
    random_densities,
    random_density,
    sigma_family,
    sigma_kmax,
)


def test_maximally_coherent_amplitudes():
    assert np.allclose(maximally_coherent(2), np.full(2, 1 / np.sqrt(2)))
    assert np.allclose(maximally_coherent(4), np.full(4, 0.5))
    with pytest.raises(ValueError):
        maximally_coherent(0)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_maximally_coherent_l1(d):
    rho = pure_density(maximally_coherent(d))
    assert abs(l1_coherence(rho).value - (d - 1)) < 1e-12


def test_maximally_entangled_two_qubit():
    psi = maximally_entangled_two_qubit()
    assert np.allclose(psi, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    rho = pure_density(psi, (2, 2))
    for keep in (0, 1):
        assert np.max(np.abs(rho.marginal(keep).mat - np.eye(2) / 2)) < 1e-14
    assert abs(l1_coherence(rho).value - 1.0) < 1e-14


def test_sigma_family_k_zero_is_maximally_mixed():
    assert np.max(np.abs(sigma_family(1, 0.0).mat - np.eye(2) / 2)) < 1e-15


def test_sigma_family_entries():
    rho = sigma_family(2, 1 / 3)
    assert rho.dims == (2, 2)
    assert np.max(np.abs(np.diag(rho.mat) - 0.25)) < 1e-14
    off = rho.mat[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off - (-1 / 12))) < 1e-14


def test_sigma_family_matches_its_definition():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = rng.uniform(0, 1 / (2**n - 1))
        d = 2**n
        expected = (1 + k) / d * np.eye(d) - k * projector(maximally_coherent(d))
        assert np.max(np.abs(sigma_family(n, k).mat - expected)) < 1e-14


def test_sigma_family_boundary_eigenvalue():
    w = linalg.hermitian_eig(sigma_family(2, 1 / 3).mat).eigenvalues
    assert abs(w[0]) < 1e-12


def test_sigma_kmax_is_the_psd_boundary():
    for n in (1, 2, 3, 5):
        assert sigma_kmax(n) == 1.0 / (2**n - 1)
        assert sigma_family(n, sigma_kmax(n)).eigenvalues[0] > -1e-12
    for n in (0, 1.5):
        with pytest.raises(ValueError, match="positive integer"):
            sigma_kmax(n)


def test_sigma_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        sigma_family(2, 1 / 3 + 1e-6)
    with pytest.raises(ValueError):
        sigma_family(2, -0.01)
    with pytest.raises(ValueError):
        sigma_family(0, 0.1)


def test_reduced_qubit_closed_form():
    assert np.max(np.abs(sigma_family(3, 0.0).marginal(0).mat - np.eye(2) / 2)) < 1e-15
    red = sigma_family(2, 1 / 3).marginal(1)
    assert red.dims == (2,)
    assert np.max(np.abs(red.mat - np.array([[0.5, -1 / 6], [-1 / 6, 0.5]]))) < 1e-14


def test_reduced_qubit_equals_every_marginal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        k = rng.uniform(0, 1 / (2**n - 1))
        rho = sigma_family(n, k)
        red = np.array([[0.5, -k / 2], [-k / 2, 0.5]])
        for i in range(n):
            assert np.max(np.abs(rho.marginal(i).mat - red)) < 1e-12


def test_mix_with_pure_limits():
    sigma = sigma_family(2, 0.2)
    phi = maximally_coherent(4)
    assert np.max(np.abs(mix_with_pure([sigma], phi, 0.0)[0].mat - sigma.mat)) < 1e-15
    assert np.max(np.abs(mix_with_pure([sigma], phi, 1.0)[0].mat - projector(phi))) < 1e-15


def test_mix_with_pure_halfway_entries():
    sigma = DensityMatrix(np.eye(4) / 4, (2, 2))
    mixed = mix_with_pure([sigma], maximally_coherent(4), 0.5)[0]
    assert np.max(np.abs(np.diag(mixed.mat) - 0.25)) < 1e-15
    off = mixed.mat[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off - 0.125)) < 1e-15


def test_mix_with_pure_validates():
    sigma = sigma_family(2, 0.2)
    with pytest.raises(ValueError, match="does not match"):
        mix_with_pure([sigma], maximally_coherent(2), 0.5)
    with pytest.raises(ValueError, match="outside"):
        mix_with_pure([sigma], maximally_coherent(4), 1.5)


def test_sigma_family_and_mix_with_pure_take_a_block():
    ks = [0.0, 0.1, 1 / 3]
    block = sigma_family(2, ks)
    assert isinstance(sigma_family(2, 0.1), DensityMatrix)
    assert [rho.dims for rho in block] == [(2, 2)] * 3
    for rho, k in zip(block, ks):
        assert np.array_equal(rho.mat, sigma_family(2, k).mat)
    phi = maximally_coherent(4)
    for mixed, sigma in zip(mix_with_pure(block, phi, 0.3), block):
        assert np.array_equal(mixed.mat, mix_with_pure([sigma], phi, 0.3)[0].mat)
    with pytest.raises(ValueError, match="outside"):
        sigma_family(2, [0.1, 0.5])
    with pytest.raises(ValueError, match="subsystem dimensions"):
        mix_with_pure([block[0], DensityMatrix(block[1].mat, (4,))], phi, 0.3)


def test_haar_random_pure_norm_and_determinism():
    rng = np.random.default_rng(123)
    for d in (1, 2, 7):
        assert abs(np.linalg.norm(haar_random_pure(d, rng)) - 1.0) < 1e-12
    a = haar_random_pure(5, np.random.default_rng(42))
    b = haar_random_pure(5, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_haar_random_pure_uniform_marginals():
    d, n = 4, 10000
    rng = np.random.default_rng(7)
    acc = np.zeros(d)
    for _ in range(n):
        acc += np.abs(haar_random_pure(d, rng)) ** 2
    mean = acc / n
    # per-component variance of |amp|^2 under Haar is (d-1)/(d^2 (d+1))
    sigma = np.sqrt((d - 1) / (d**2 * (d + 1)) / n)
    assert np.max(np.abs(mean - 1 / d)) < 3 * sigma


def test_haar_random_pure_unitary_invariance():
    d, n = 4, 10000
    rng = np.random.default_rng(11)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (a + a.conj().T) / 2
    vals = np.empty(n)
    for i in range(n):
        psi = haar_random_pure(d, rng)
        vals[i] = np.real(psi.conj() @ a @ psi)
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - np.trace(a).real / d) < 5 * se


def test_random_density_rank_one_is_projector():
    rng = np.random.default_rng(2)
    rho = random_density(6, 1, rng).mat
    assert np.max(np.abs(rho @ rho - rho)) < 1e-10


def test_random_density_trace_and_rank():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        rho = random_density(d, r, rng)
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-14
        w = np.linalg.eigvalsh(rho.mat)
        assert int(np.sum(w > 1e-9)) == r


def test_random_density_full_rank_positive_spectrum():
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = np.linalg.eigvalsh(random_density(5, 5, rng).mat)
        assert w[0] > 0


def test_random_density_rejects_bad_rank():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_density(3, 0, rng)
    with pytest.raises(ValueError):
        random_density(3, 4, rng)


def test_dephase():
    diag = DensityMatrix(np.diag([0.4, 0.6]))
    assert np.array_equal(dephase(diag).mat, diag.mat)
    plus = pure_density(maximally_coherent(2))
    assert np.max(np.abs(dephase(plus).mat - np.eye(2) / 2)) < 1e-15


def test_all_measures_vanish_after_dephasing():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        rho = dephase(random_density(d, d, rng))
        for kind in MeasureKind:
            assert compute_measure(kind, rho).value <= 1e-9


# (matrix, dims, message) of inputs that validation rejects
INVALID_INPUTS = [
    (np.array([[0.5, 0.4], [0.1, 0.5]]), (), "not Hermitian"),
    (np.eye(2), (), "trace"),
    (np.diag([1.5, -0.5]), (), "negative eigenvalue"),
    (np.eye(4) / 4, (2, 3), "do not factor"),
    (np.eye(4) / 4, (-2, -2), "at least 1"),
    (np.eye(4) / 4, (4, 1, 0), "at least 1"),
    (np.array([[np.nan, 0], [0, 1.0]]), (), "non-finite"),
    (np.ones((2, 3)) / 6, (), "square"),
    # non-finite in the imaginary part only
    *[(np.array([[0.5, complex(0.0, bad)], [0.0, 0.5]]), (), "non-finite")
      for bad in (np.nan, np.inf, -np.inf)],
    # 1-D and 0-D
    *[(mat, (), "square") for mat in (np.ones(4) / 4, np.array([1.0]), np.array(1.0), 1.0)],
    # a stack of one valid state is not one state
    (np.eye(2)[None] / 2, (), "square"),
]


def test_density_matrix_validation():
    for mat, dims, message in INVALID_INPUTS:
        with pytest.raises(ValueError, match=message):
            DensityMatrix(mat, dims)


def _third_of_five(mat) -> np.ndarray:
    """A stack of five with ``mat`` third, between valid states of its shape
    when there are any, else between copies of itself."""
    mat = np.asarray(mat)
    if mat.ndim == 2 and mat.shape[0] == mat.shape[1]:
        rng = np.random.default_rng(1)
        others = [random_density(len(mat), len(mat), rng).mat for _ in range(4)]
    else:
        others = [mat] * 4
    return np.stack(others[:2] + [mat] + others[2:])


@pytest.mark.parametrize("where", ["alone", "third of five"])
@pytest.mark.parametrize("case", range(len(INVALID_INPUTS)))
def test_a_stack_is_rejected_with_the_message_of_its_bad_state(case, where):
    mat, dims, message = INVALID_INPUTS[case]
    with pytest.raises(ValueError, match=message) as single:
        DensityMatrix(mat, dims)
    stack = np.asarray([mat]) if where == "alone" else _third_of_five(mat)
    with pytest.raises(ValueError) as stacked:
        DensityMatrix.stack(stack, dims)
    assert str(stacked.value) == str(single.value)


def test_a_stack_of_valid_states_keeps_each_single_construction():
    rng = np.random.default_rng(9)
    mats = np.stack([random_density(4, r, rng).mat for r in (1, 2, 4)])
    states = DensityMatrix.stack(mats, (2, 2))
    for mat, rho in zip(mats, states):
        single = DensityMatrix(mat, (2, 2))
        assert rho.dims == single.dims == (2, 2)
        assert np.array_equal(rho.mat, single.mat)
        assert np.array_equal(rho.eigenvalues, single.eigenvalues)
        for name in ("offdiagonal_abs_sum", "entropy_bits", "dephased_entropy_bits"):
            assert getattr(rho, name) == getattr(single, name)
        assert type(rho.offdiagonal_abs_sum) is float
    # dim is set once per stack, whichever way the state was built
    drawn = random_densities(5, 2, [rng])[0]
    loaded = DensityMatrix.from_json_dict(drawn.to_json_dict())
    for rho in (*states, single, drawn, loaded):
        assert type(rho.dim) is int and rho.dim == rho.mat.shape[0]
        with pytest.raises(AttributeError):
            rho.dim = 3
    assert (drawn.dim, loaded.dim) == (5, 5)
    with pytest.raises(ValueError, match="square"):
        DensityMatrix.stack(mats[0])  # one matrix is not a stack
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(mats)  # nor is a stack one matrix


def test_random_densities_draw_what_random_density_would():
    # two states per generator, drawn with one call each, are the states two
    # random_density calls on that generator give, spectra from the Gram
    # (rank < d) included: the redraw path draws alone a state its block drew
    for d, rank in ((2, 1), (5, 3), (10, 1), (10, 3), (10, 10)):
        rngs = [np.random.default_rng([d, rank, i]) for i in range(4)]
        block = random_densities(d, rank, rngs, count=2)
        one_by_one = []
        for i in range(4):
            rng = np.random.default_rng([d, rank, i])
            one_by_one += [random_density(d, rank, rng), random_density(d, rank, rng)]
        assert len(block) == 8
        for rho, single in zip(block, one_by_one):
            assert np.array_equal(rho.mat, single.mat)
            assert np.array_equal(rho.eigenvalues, single.eigenvalues)
        # the block built in place is hermitize(G G^dag / tr), built out of
        # place from fresh generators' draws, bit for bit
        g = np.concatenate([np.random.default_rng([d, rank, i]).standard_normal((2, 2, d, rank))
                            for i in range(4)])
        g = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2)
        m = g @ g.conj().swapaxes(-1, -2)
        tr = np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        assert np.array_equal(np.array([rho.mat for rho in block]), linalg.hermitize(m / tr))
    with pytest.raises(ValueError, match="rank"):
        random_densities(3, 4, [np.random.default_rng(0)])


@pytest.mark.parametrize("dims", [(2.9, 2.2), (2.0, 2.0), (True, 4), (4, False), ("2", "2")])
def test_density_rejects_non_integer_dims(dims):
    with pytest.raises(ValueError, match="must be integers"):
        DensityMatrix(np.eye(4) / 4, dims)
    with pytest.raises(ValueError, match="must be integers"):
        DensityMatrix.from_json_dict({**DensityMatrix(np.eye(4) / 4).to_json_dict(), "dims": dims})


def test_density_accepts_numpy_integer_dims():
    rho = DensityMatrix(np.eye(4) / 4, (np.int64(2), np.uint8(2)))
    assert rho.dims == (2, 2)
    assert all(type(d) is int for d in rho.dims)
    assert json.loads(json.dumps(rho.to_json_dict()))["dims"] == [2, 2]


def _hermiticity_defect_matrix(defect: float) -> np.ndarray:
    """I/2 plus an anti-Hermitian part whose relative defect is ``defect``:
    ||m - m^dag||_F = 2 sqrt(2) c, with ||m||_F < 1."""
    c = defect / (2 * np.sqrt(2))
    return np.eye(2) / 2 + 1j * c * np.array([[0.0, 1.0], [1.0, 0.0]])


def test_hermiticity_defect_threshold():
    below = _hermiticity_defect_matrix(0.9 * linalg.HERMITIAN_RTOL)
    above = _hermiticity_defect_matrix(1.1 * linalg.HERMITIAN_RTOL)
    assert np.array_equal(DensityMatrix(below).eigenvalues, [0.5, 0.5])
    assert np.array_equal(linalg.hermitian_eig(below).eigenvalues, [0.5, 0.5])
    with pytest.raises(ValueError, match="density matrix is not Hermitian"):
        DensityMatrix(above)
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        linalg.hermitian_eig(above)


def test_hermitian_part_is_hermitize_and_the_frobenius_defect():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 10):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h, defect = linalg.hermitian_part(m)
        assert np.array_equal(h, linalg.hermitize(m))
        expected = np.linalg.norm(m - m.conj().T) / max(1.0, np.linalg.norm(m))
        assert defect == pytest.approx(expected, rel=1e-12)


def test_hermitian_part_of_a_stack_is_that_of_each_matrix():
    rng = np.random.default_rng(4)
    for d in (1, 3, 10):
        m = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        m[1] = linalg.hermitize(m[1])  # one exactly Hermitian matrix among them
        h, defect = linalg.hermitian_part(m)
        assert np.array_equal(h, linalg.hermitize(m))
        assert defect.shape == (5,) and defect[1] == 0.0
        for i in range(5):
            h_i, defect_i = linalg.hermitian_part(m[i])
            assert np.array_equal(h[i], h_i)
            assert defect[i] == defect_i


def test_trace_check_reads_the_imaginary_part():
    # a large norm keeps the Hermiticity defect of the imaginary diagonal
    # entry far below HERMITIAN_RTOL, so the trace check is what decides
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([1000.0 + 1e-9j, -999.0]))
    # within TRACE_ATOL the trace passes, and the spectrum check rejects it
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1000.0 + 5e-11j, -999.0]))


def test_density_eigenvalues_are_the_validated_spectrum(monkeypatch):
    rng = np.random.default_rng(12)
    shapes = ((2, 2), (5, 1), (7, 3), (9, 9), (10, 1), (10, 3))
    drawn = [random_density(d, r, rng) for d, r in shapes]
    low_rank = [(rho, d, r) for rho, (d, r) in zip(drawn, shapes) if r < d]
    x = rng.standard_normal((4, 4))
    # full rank, the sigma family and direct input: the d x d eigvalsh, bit for bit
    exact = [drawn[0], drawn[3], sigma_family(3, 1 / 7),
             DensityMatrix(np.eye(4) / 4 + 1e-13 * (x - x.T))]  # not exactly Hermitian
    exact += [DensityMatrix(rho.mat) for rho, _, _ in low_rank]
    for rho in exact:
        w = rho.eigenvalues
        assert np.all(np.diff(w) >= 0)
        assert np.array_equal(w, np.linalg.eigvalsh(linalg.hermitize(rho.mat)))
    # drawn at rank r < d: d - r exact zeros, then the r x r Gram's spectrum,
    # whose entropy is that of the whole spectrum, bit for bit
    for rho, d, r in low_rank:
        w = rho.eigenvalues
        assert np.array_equal(w[:d - r], np.zeros(d - r)) and np.all(w[d - r:] != 0)
        assert np.all(np.diff(w) >= 0)
        top = np.linalg.eigvalsh(linalg.hermitize(rho.mat))[d - r:]
        assert np.abs(w[d - r:] - top).max() <= 1e-14
        assert rho.entropy_bits == cohkit.states._entropy_bits(w[None])[0]
    # an exactly Hermitian stack is its own Hermitian part, so no hermitize
    # call forms one; a stack with one matrix inside HERMITIAN_RTOL among
    # exact ones makes one call, on the whole stack
    hermitize, calls = linalg.hermitize, []
    monkeypatch.setattr(linalg, "hermitize", lambda m: calls.append(len(m)) or hermitize(m))
    full = random_densities(6, 6, [rng], count=3)
    sigmas = sigma_family(2, [0.0, 0.1, 1 / 3])
    mixed = mix_with_pure(sigmas, maximally_coherent(4), 0.3)
    assert calls == []
    near = np.eye(4) / 4 + 1e-13 * (x - x.T)
    for block, expected_calls in ((full, []), (sigmas, []), (mixed, []),
                                  ([*sigmas, DensityMatrix(near)], [4])):
        calls.clear()
        m = np.array([rho.mat for rho in block])
        states = DensityMatrix.stack(m, block[0].dims)
        assert calls == expected_calls
        assert np.array_equal(np.array([rho.eigenvalues for rho in states]),
                              np.linalg.eigvalsh(hermitize(m)))
    assert "eigenvalues" not in repr(drawn[0])
    with pytest.raises(TypeError):
        DensityMatrix(np.eye(2) / 2, eigenvalues=np.ones(2))


@pytest.mark.parametrize("at", [0, 4, 6])  # a padded zero, the Gram's least value, its largest
def test_a_given_spectrum_is_checked_for_negative_eigenvalues(at):
    # the spectrum random_densities hands over still passes the PSD check
    rho = random_density(7, 3, np.random.default_rng(13))
    m, eigs = rho.mat[None], rho.eigenvalues.copy()[None]
    assert np.array_equal(cohkit.states._validated(m, (), eigs)[2], eigs)
    eigs[0, at] = 2 * cohkit.states.EIG_FLOOR
    with pytest.raises(ValueError, match="negative eigenvalue -2.000e-09"):
        cohkit.states._validated(m, (), eigs)


def test_a_given_spectrum_leaves_the_hermiticity_check_on_the_matrix():
    # given the spectrum, validation forms no Hermitian part, yet it still
    # checks the matrices it is given, naming the first failing one's defect
    block = random_densities(7, 3, [np.random.default_rng(14)], count=3)
    m = np.array([rho.mat for rho in block])
    eigs = np.array([rho.eigenvalues for rho in block])
    m[1, 0, 2] += 1e-6  # the transposed entry is left alone
    defect = linalg.hermitian_part(m)[1][1]
    assert defect > linalg.HERMITIAN_RTOL
    with pytest.raises(ValueError, match=f"not Hermitian \\(relative defect {defect:.3e}\\)"):
        cohkit.states._validated(m, (), eigs)


def test_states_compare_and_hash_by_identity():
    rho = DensityMatrix(np.eye(2) / 2)
    copy = DensityMatrix(rho.mat.copy())
    assert rho == rho
    assert rho != copy and not rho == copy
    assert {rho: 1}[rho] == 1 and copy not in {rho: 1}


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    rho = DensityMatrix(
        np.kron(random_density(2, 2, rng).mat, random_density(3, 3, rng).mat), (2, 3)
    )
    again = DensityMatrix.from_json_dict(rho.to_json_dict())
    assert np.array_equal(again.mat, rho.mat)
    assert again.dims == rho.dims

    path = tmp_path / "state.json"
    path.write_text(json.dumps(rho.to_json_dict()))
    loaded = load_density(path)
    assert np.array_equal(loaded.mat, rho.mat)
    assert loaded.dims == rho.dims
    # serialized form is plain JSON with the documented keys
    raw = json.loads(path.read_text())
    assert set(raw) == {"dims", "re", "im"}
    assert len(raw["re"]) == 36


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        DensityMatrix.from_json_dict({"re": [1.0], "im": [0.0]})
    with pytest.raises(ValueError):
        DensityMatrix.from_json_dict({"dims": [], "re": [1.0, 0.0], "im": [0.0, 0.0]})
