import inspect

import numpy as np
import pytest

import cohkit.sdp
from cohkit.measures import DEFAULT_ROC_TOL, _Ladder, l1_coherence, roc
from cohkit.sdp import (
    RocSolution,
    SolveStatus,
    build,
    solve,
    verify_certificates,
)
from cohkit.states import (
    DensityMatrix,
    dephase,
    haar_random_pure,
    pure_density,
    random_density,
    sigma_family,
)


def qubit_with_offdiag(c):
    return DensityMatrix(np.array([[0.5, c], [np.conj(c), 0.5]]))


def test_build_carries_dimension():
    rho = sigma_family(2, 0.1)
    problem = build(rho)
    assert problem.rho is rho
    assert problem.rho.dim == 4


def test_qubit_standard_example():
    sol = solve(build(qubit_with_offdiag(0.3)))
    assert sol.status is SolveStatus.OPTIMAL
    assert np.max(np.abs(sol.primal_diag - 0.8)) < 1e-6
    assert abs(sol.primal_value - 1.6) < 1e-6
    assert abs((sol.dual_value - 1.0) - 0.6) < 1e-7


def test_diagonal_state_is_free():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    sol = solve(build(rho))
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.dual_value - 1.0) < 1e-8
    assert np.max(np.abs(sol.primal_diag - np.array([0.5, 0.3, 0.2]))) < 1e-6


def test_maximally_coherent_qubit_witness():
    sol = solve(build(pure_density(np.full(2, 1 / np.sqrt(2)))))
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.dual_value - 2.0) < 1e-7
    assert np.max(np.abs(np.real(np.diag(sol.dual_witness)) - 1.0)) < 1e-12
    assert sol.dual_witness[0, 1].real > 0.999


def test_maximally_mixed_witness_is_identity():
    for d in (3, 6):
        sol = solve(build(DensityMatrix(np.eye(d) / d)))
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.dual_value - 1.0) < 1e-8
        assert np.max(np.abs(sol.dual_witness - np.eye(d))) < 1e-8


def test_random_state_self_certification():
    rng = np.random.default_rng(0)
    for _ in range(25):
        rho = random_density(4, 4, rng)
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL
        assert -1e-9 <= sol.gap <= 1e-7 * max(1.0, sol.primal_value)
        report = verify_certificates(sol, rho)
        assert report.primal_feasibility_violation <= 1e-8
        assert report.dual_feasibility_violation <= 1e-8
        assert abs(report.gap - sol.gap) < 1e-10


def _near_diagonal(d, weight, seed):
    rho = random_density(d, d, np.random.default_rng(seed))
    return DensityMatrix((1 - weight) * dephase(rho).mat + weight * rho.mat)


# Hard inputs, each with its robustness where it is known in closed form:
# a qubit block padded with a zero row and column keeps the qubit's 2|c|,
# the sigma family at k = 1/(2^n - 1) sits on the PSD boundary with value k,
# and the maximally mixed state is incoherent.
EDGE_STATES = {
    "zero-diagonal-row": (
        lambda: DensityMatrix(np.array([[0.5, 0.3, 0], [0.3, 0.5, 0], [0, 0, 0]])),
        0.6,
    ),
    "rank2-d16": (lambda: random_density(16, 2, np.random.default_rng(21)), None),
    "sigma-n3-kmax": (lambda: sigma_family(3, 1 / 7), 1 / 7),
    "sigma-n5-kmax": (lambda: sigma_family(5, 1 / 31), 1 / 31),
    "complex-d64": (lambda: random_density(64, 64, np.random.default_rng(22)), None),
    "near-diagonal": (lambda: _near_diagonal(6, 1e-6, 23), None),
    "maximally-mixed": (lambda: DensityMatrix(np.eye(8) / 8), 0.0),
}


@pytest.mark.parametrize("name", sorted(EDGE_STATES))
def test_edge_state_certifies(name):
    make, expected = EDGE_STATES[name]
    rho = make()
    sol = solve(build(rho))
    assert sol.status is SolveStatus.OPTIMAL
    assert -1e-9 <= sol.gap <= 1e-8 * max(1.0, sol.primal_value)
    report = verify_certificates(sol, rho)
    assert report.primal_feasibility_violation <= 1e-8
    assert report.dual_feasibility_violation <= 1e-8
    assert abs(report.gap - sol.gap) < 1e-10
    value = sol.dual_value - 1.0
    if expected is not None:
        assert abs(value - expected) < 1e-7
    assert -1e-9 <= value <= l1_coherence(rho).value + 1e-9


def test_matches_qubit_closed_form():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        rho = random_density(2, 2, rng)
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL
        worst = max(worst, abs((sol.dual_value - 1.0) - 2 * abs(rho.mat[0, 1])))
    assert worst < 1e-7


@pytest.mark.parametrize("d", range(2, 9))
def test_matches_l1_on_pure_states(d):
    rng = np.random.default_rng(100 + d)
    worst = 0.0
    for _ in range(200):
        rho = pure_density(haar_random_pure(d, rng))
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL
        worst = max(worst, abs((sol.dual_value - 1.0) - l1_coherence(rho).value))
    assert worst < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sigma_family_value_is_k(n):
    # see docs/roc-sdp.md: the optimum is exactly k for every n
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        k = rng.uniform(0, 1 / (2**n - 1))
        sol = solve(build(sigma_family(n, k)))
        assert sol.status is SolveStatus.OPTIMAL
        assert abs((sol.dual_value - 1.0) - k) < 1e-6


def test_value_invariant_under_permutation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_density(5, 5, rng)
        perm = np.eye(5)[rng.permutation(5)]
        permuted = DensityMatrix(perm @ rho.mat @ perm.T)
        a = solve(build(rho))
        b = solve(build(permuted))
        assert abs(a.dual_value - b.dual_value) < 1e-8


def test_trace_rows_respect_weak_duality():
    rng = np.random.default_rng(3)
    rho = random_density(5, 5, rng)
    seen = []

    def accept(mu, primal, dual):
        seen.append((mu, primal, dual))
        return False

    sol = solve(build(rho), accept=accept)
    assert sol.status is SolveStatus.OPTIMAL
    assert len(seen) > 3
    for mu, primal, dual in seen:
        assert dual <= primal + 1e-9
    mus = [mu for mu, _, _ in seen]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    # the last iterate passed to the hook is the one returned
    assert seen[-1][1:] == (sol.primal_value, sol.dual_value)
    # one Schur factorization between consecutive certified iterates
    assert len(seen) == sol.iterations + 1


def test_accept_ends_the_solve_at_the_iterate_it_takes():
    rho = random_density(5, 5, np.random.default_rng(3))
    full = solve(build(rho))
    seen = []

    def accept(mu, primal, dual):
        seen.append((primal, dual))
        return len(seen) == 3

    sol = solve(build(rho), accept=accept)
    assert sol.status is SolveStatus.ACCEPTED
    assert len(seen) == 3 and sol.iterations == 2
    assert (sol.primal_value, sol.dual_value) == seen[-1]
    assert sol.gap == sol.primal_value - sol.dual_value > full.gap
    # the iterate is certified like any other
    report = verify_certificates(sol, rho)
    assert max(report.primal_feasibility_violation, report.dual_feasibility_violation) < 1e-9
    assert sol.dual_value - 1 <= full.primal_value - 1 and full.dual_value <= sol.primal_value
    # the hook decides before the gap rule does, which at tol 0.99 holds at the start
    assert solve(build(rho), tol=0.99).iterations == 0
    first = solve(build(rho), tol=0.99, accept=lambda mu, primal, dual: True)
    assert first.status is SolveStatus.ACCEPTED and first.iterations == 0


def test_tolerance_must_be_positive():
    # and below 1, where the gap rule would hold at once: tol 1000 certified a
    # gap of 3.38 after no iteration, and roc a phase-witness value of a state
    # whose phases do not factor; nan ran to a numerical failure
    rho = random_density(4, 4, np.random.default_rng(0))
    for tol in (0.0, 1.0, 1000.0, float("nan")):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            solve(build(rho), tol=tol)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            roc(rho, tol=tol)
    # sdp cannot import measures, so its default is tied to roc's here
    assert inspect.signature(solve).parameters["tol"].default == DEFAULT_ROC_TOL


def test_max_iter_returns_best_iterate(monkeypatch):
    monkeypatch.setattr(cohkit.sdp, "MAX_ITER", 3)
    sol = solve(build(sigma_family(2, 0.25)))
    assert sol.status is SolveStatus.MAX_ITER
    assert sol.iterations <= 3
    assert sol.dual_witness is not None
    assert np.isfinite(sol.gap)
    # best iterate is still primal feasible
    report = verify_certificates(sol, sigma_family(2, 0.25))
    assert report.primal_feasibility_violation <= 1e-8
    assert report.dual_feasibility_violation <= 1e-8


def test_verify_certificates_flags_corrupted_witness():
    rho = sigma_family(2, 0.2)
    sol = solve(build(rho))
    bad = np.array(sol.dual_witness, copy=True)
    bad[0, 0] = 1.1
    corrupted = RocSolution(
        primal_diag=sol.primal_diag,
        dual_witness=bad,
        primal_value=sol.primal_value,
        dual_value=sol.dual_value,
        gap=sol.gap,
        iterations=sol.iterations,
        status=sol.status,
    )
    report = verify_certificates(corrupted, rho)
    assert report.dual_feasibility_violation > 0.09


def test_verify_certificates_on_exact_qubit_optimum():
    rho = qubit_with_offdiag(0.3)
    exact = RocSolution(
        primal_diag=np.array([0.8, 0.8]),
        dual_witness=np.ones((2, 2), dtype=complex),
        primal_value=1.6,
        dual_value=1.6,
        gap=0.0,
        iterations=0,
        status=SolveStatus.OPTIMAL,
    )
    report = verify_certificates(exact, rho)
    assert report.primal_feasibility_violation <= 1e-12
    assert report.dual_feasibility_violation <= 1e-12
    assert abs(report.gap) <= 1e-12


def test_verify_certificates_requires_witness():
    sol = RocSolution(
        primal_diag=np.array([1.0, 1.0]),
        dual_witness=None,
        primal_value=2.0,
        dual_value=-np.inf,
        gap=np.inf,
        iterations=0,
        status=SolveStatus.NUMERICAL_FAILURE,
    )
    with pytest.raises(ValueError):
        verify_certificates(sol, qubit_with_offdiag(0.1))


def test_complex_states_supported():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_density(4, 4, rng)
        assert np.max(np.abs(rho.mat.imag)) > 0
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.gap <= 1e-7 * max(1.0, sol.primal_value)


def test_cross_check_against_independent_solver():
    cp = pytest.importorskip("cvxpy")

    def reference(mat):
        d = mat.shape[0]
        t = cp.Variable(d, nonneg=True)
        prob = cp.Problem(cp.Minimize(cp.sum(t)), [cp.diag(t) - cp.Constant(mat) >> 0])
        prob.solve(solver=cp.SCS, eps=1e-9, max_iters=200000)
        return prob.value - 1.0

    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        for _ in range(3):
            rho = random_density(d, d, rng)
            ours = solve(build(rho)).dual_value - 1.0
            assert abs(ours - reference(rho.mat)) < 5e-6
    for k in (0.1, 0.25, 1 / 3):
        rho = sigma_family(2, k)
        ours = solve(build(rho)).dual_value - 1.0
        assert abs(ours - reference(rho.mat)) < 5e-6
        assert abs(ours - k) < 5e-6


# The primal-dual method certifies these in 7-13 Schur factorizations.
ITERATION_BUDGET = 15


def _budget_states():
    for name, (make, _) in sorted(EDGE_STATES.items()):
        yield name, make()
    rng = np.random.default_rng(31)
    for i in range(40):
        d = 3 + i % 8
        yield f"complex-d{d}-{i}", random_density(d, d, rng)


def test_iteration_budget():
    for name, rho in _budget_states():
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL, name
        assert sol.iterations <= ITERATION_BUDGET, (name, sol.iterations)
        assert solve(build(rho)).iterations == sol.iterations, name


def _mixing_method_value(mat, seed):
    """Lower bound on max tr(rho Y) over unit-diagonal PSD Y, by the mixing method.

    Coordinate ascent on unit vectors v_i with Y_ij = <v_i, v_j> (Wang, Chang and
    Kolter, arXiv:1706.00476): each v_i moves to the unit vector along
    g_i = sum_{j != i} rho_ji v_j, which maximizes tr(rho Y) with the other
    vectors fixed. Every iterate is a feasible Y, so the value is a lower bound.
    """
    d = mat.shape[0]
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    vecs /= np.linalg.norm(vecs, axis=0)

    def value():
        gram = vecs.conj().T @ vecs
        return float(np.real(np.sum(mat * gram.T)))

    last = value()
    for _ in range(20000):
        for i in range(d):
            g = vecs @ mat[:, i] - mat[i, i] * vecs[:, i]
            norm = np.linalg.norm(g)
            if norm > 0:
                vecs[:, i] = g / norm
        current = value()
        if current - last <= 1e-15:
            break
        last = current
    vecs /= np.linalg.norm(vecs, axis=0)
    return value()


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_mixing_method_oracle_brackets_the_solution(kind):
    rng = np.random.default_rng(41 if kind == "real" else 42)
    for i in range(10):
        d = 3 + i % 6
        rank = int(rng.integers(2, d + 1))
        if kind == "real":
            g = rng.standard_normal((d, rank))
            rho = DensityMatrix(g @ g.T / np.trace(g @ g.T))
        else:
            rho = random_density(d, rank, rng)
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL
        oracle = _mixing_method_value(rho.mat, seed=i)
        assert oracle <= sol.primal_value + 1e-12
        assert oracle >= sol.dual_value - 1e-6


def _known_roc_states():
    rng = np.random.default_rng(51)
    for _ in range(20):
        rho = random_density(2, 2, rng)
        yield rho, 2 * abs(rho.mat[0, 1])
    for d in range(3, 9):
        for _ in range(5):
            rho = pure_density(haar_random_pure(d, rng))
            yield rho, l1_coherence(rho).value
    for n in (2, 3, 4):
        for k in np.linspace(0, 1 / (2**n - 1), 5):
            yield sigma_family(n, k), k


def test_certified_bounds_contain_known_values():
    # the reported value dual - 1 is a lower bound and primal - 1 an upper bound
    # on the robustness, so the known value lies between them
    for rho, truth in _known_roc_states():
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.dual_value - 1.0 - 1e-12 <= truth <= sol.primal_value - 1.0 + 1e-12


def _bracket_states():
    for name, (make, expected) in sorted(EDGE_STATES.items()):
        yield name, make(), expected
    rng = np.random.default_rng(61)
    for d in range(3, 17):
        for rank in range(1, d + 1):
            yield f"d{d}-rank{rank}", random_density(d, rank, rng), None


def _decision_first_bracket(rho):
    """The first bracket ``(lo, hi)`` the ordering decisions give ``rho``,
    as a block of one, and its value, None for the eigen bracket: rung 0's
    closed form, else the witness's value, each with its own bracket, else
    the eigen bracket the ladder holds."""

    ladder = _Ladder([rho], DEFAULT_ROC_TOL)
    ladder.bracket()
    return ladder.values[0], ladder.lo[0].item(), ladder.hi[0].item()


def test_solve_free_bracket_is_certified():
    # the solve-free bracket [value, upper] holds the robustness without a solve.
    # The SDP's certified bracket [dual - 1, primal - 1] holds the robustness
    # too, so the two brackets overlap. Neither need contain the other: an end
    # of the solve-free bracket can be tighter than the SDP's (the eigenvalue
    # bound is exact for the sigma family)
    brackets = 0
    for name, rho, expected in _bracket_states():
        mv, lo, hi = _decision_first_bracket(rho)
        sol = solve(build(rho))
        assert sol.status is SolveStatus.OPTIMAL, name
        brackets += mv is None
        assert 0.0 <= lo <= hi, name
        assert lo <= sol.primal_value - 1.0 + 1e-12, name
        assert hi >= sol.dual_value - 1.0 - 1e-12, name
        if expected is not None:
            assert lo - 1e-12 <= expected <= hi + 1e-12, name
    assert brackets > 100
