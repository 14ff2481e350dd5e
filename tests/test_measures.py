import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

import cohkit.measures
import cohkit.states
from cohkit import linalg, sdp
from cohkit.measures import (
    DEFAULT_ROC_TOL,
    MEASURE_PAIRS,
    ORDERING_TIE_TOL,
    DecisionStage,
    MeasureKind,
    MeasureValue,
    Method,
    _ascent,
    _eigen_bracket,
    _Ladder,
    _pair_value,
    _witness,
    compute_measure,
    l1_coherence,
    ordering_decisions,
    rel_entropy_coherence,
    roc,
    subadditivity_gap,
    theorem1_closed_form,
    values_ordering_violated,
)
from cohkit.states import (
    DensityMatrix,
    dephase,
    haar_random_pure,
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


def ordering_decision(a, b):
    """The decision of one pair, decided as a block of one."""
    return ordering_decisions([(a, b)])[0]()


def _solve_free_values(states, decision):
    """Each state's first value in a block of one dimension: rung 0's closed
    form, else the witness's, else, in ``decision`` mode, the eigen
    bracket the ladder holds, as the tuple ``(lo, hi)``; None there in value
    mode, which leaves the state to the SDP."""

    ladder = _Ladder(states, DEFAULT_ROC_TOL)
    if not decision:
        return ladder.values
    ladder.bracket()
    return [mv or (lo, hi)
            for mv, lo, hi in zip(ladder.values, ladder.lo.tolist(), ladder.hi.tolist())]


def _solve_free_roc(rho, decision):
    """The first value of one state, as a block of one."""
    return _solve_free_values([rho], decision)[0]


def _ends(first):
    """The bracket ``(lo, hi)`` of a first value: ``(value, upper)`` of a
    value, or the eigen bracket itself."""
    return (first.value, first.upper) if isinstance(first, MeasureValue) else first


def _ascent_start(rho):
    """The unit-row V the ascent of ``rho`` starts from, as a stack of one:
    the top r eigenvectors of rho - Diag(rho), largest first, with the
    phases of the top one (candidate 3) in column 0 and each row
    normalized."""
    off = rho.mat - np.diag(rho.mat.diagonal())
    vecs = np.linalg.eigh(off)[1][:, ::-1][:, :cohkit.measures._ascent_plan(rho.dim)[0]]
    vecs[:, :1] = _scalar_unit_rows(vecs[:, [0]])
    return (vecs / np.linalg.norm(vecs, axis=1, keepdims=True))[None]


def _ascent_brackets(m, u):
    """The ascent rung's certified brackets ``[lo, hi]`` on the robustness of
    each matrix of a stack, from the phases ``u``, as two arrays."""
    dual, primal, _ = _ascent(m, u)
    return np.maximum(0.0, dual - 1.0), primal - 1.0


def _ascent_bracket(rho):
    """The phase-ascent bracket ``(lo, hi)`` of one state, as a block of one."""
    lo, hi = _ascent_brackets(rho.mat[None], _ascent_start(rho))
    return float(lo[0]), float(hi[0])


def test_l1_on_diagonal():
    assert l1_coherence(DensityMatrix(np.diag([0.2, 0.3, 0.5]))).value == 0.0


@pytest.mark.parametrize("d", [2, 4, 8])
def test_l1_maximally_coherent(d):
    assert abs(l1_coherence(pure_density(maximally_coherent(d))).value - (d - 1)) < 1e-12


def test_l1_reduced_sigma_qubit():
    for k in (0.0, 0.2, 1 / 3):
        assert abs(l1_coherence(sigma_family(2, k).marginal(0)).value - k) < 1e-14


def test_rel_entropy_values():
    assert rel_entropy_coherence(DensityMatrix(np.diag([0.2, 0.8]))).value == 0.0
    for d in (2, 4, 8):
        got = rel_entropy_coherence(pure_density(maximally_coherent(d))).value
        assert abs(got - np.log2(d)) < 1e-10
        assert rel_entropy_coherence(DensityMatrix(np.eye(d) / d)).value <= 1e-12


def _kernel_states() -> list[DensityMatrix]:
    """Random states for d = 2..10 at every rank, and one state that is not
    exactly Hermitian."""
    rng = np.random.default_rng(21)
    states = [random_density(d, r, rng) for d in range(2, 11) for r in range(1, d + 1)]
    noise = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    states.append(DensityMatrix(random_density(5, 5, rng).mat + 1e-13 * noise))
    assert not np.array_equal(states[-1].mat, states[-1].mat.conj().T)
    return states


def test_measure_kernels_are_bit_identical_to_their_reference_formulas():
    # the formulas as first written; CSV bytes depend on the values agreeing exactly
    def entropy_bits(eigs):
        w = eigs[eigs > cohkit.states.ENTROPY_EIG_FLOOR]
        return float(-np.sum(w * np.log2(w)))

    for rho in _kernel_states():
        m = rho.mat
        l1 = float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))
        rel = entropy_bits(np.real(np.diag(m)).copy()) - entropy_bits(rho.eigenvalues)
        assert l1_coherence(rho).value == max(l1, 0.0)
        assert rel_entropy_coherence(rho).value == max(rel, 0.0)


def test_ordering_decision_reads_each_pure_state_l1_once(monkeypatch):
    # the l1 difference and the pure-state robustness share one sum per
    # state, wherever it is taken: building the states or deciding the pair
    rng = np.random.default_rng(3)
    real_abs = np.abs
    full_matrix_abs = []

    def counting_abs(x, *args, **kwargs):
        if np.shape(x)[-2:] == (10, 10):
            full_matrix_abs.append(x)
        return real_abs(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counting_abs)
    a, b = (pure_density(haar_random_pure(10, rng)) for _ in range(2))
    decision = ordering_decision(a, b)
    monkeypatch.undo()
    assert decision.stage is DecisionStage.SOLVE_FREE
    assert len(full_matrix_abs) == 2
    assert roc(a).method is Method.PURE_STATE_L1
    assert decision.roc_difference == (roc(a).value - roc(b).value,) * 2
    assert roc(a).value - roc(b).value == l1_coherence(a).value - l1_coherence(b).value


def test_pure_state_roc_is_exactly_l1():
    pure = [rho for rho in _kernel_states() if rho.dim > 2 and rho.eigenvalues[-2] < 1e-9]
    assert len(pure) == 8
    for rho in pure:
        mv = roc(rho)
        assert mv.method is Method.PURE_STATE_L1
        assert mv.value == l1_coherence(rho).value


def test_roc_qubit_closed_form_dispatch():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rho = random_density(2, 2, rng)
        mv = roc(rho)
        assert mv.method is Method.CLOSED_FORM_QUBIT
        assert mv.certificate_gap is None
        assert abs(mv.value - 2 * abs(rho.mat[0, 1])) < 1e-15


def test_roc_pure_state_dispatch():
    rng = np.random.default_rng(1)
    for d in (3, 5, 8):
        rho = pure_density(haar_random_pure(d, rng))
        mv = roc(rho)
        assert mv.method is Method.PURE_STATE_L1
        assert abs(mv.value - l1_coherence(rho).value) < 1e-12
    # a 1 x 1 state, whose spectrum has no second entry, takes the closed form
    # too, and a block of such pairs is settled without its robustness
    one = DensityMatrix(np.eye(1))
    assert roc(one) == MeasureValue(0.0, Method.PURE_STATE_L1)
    pairs = [(one, DensityMatrix(np.eye(1))) for _ in range(3)]
    assert {decide().stage for decide in ordering_decisions(pairs)} == {DecisionStage.SOLVE_FREE}


def test_roc_sdp_dispatch_and_certificate():
    rng = np.random.default_rng(2)
    rho = random_density(4, 4, rng)
    mv = roc(rho)
    assert mv.method is Method.SDP
    assert mv.certificate_gap is not None
    assert 0 <= mv.certificate_gap <= 1e-7 * max(1.0, mv.value + 1.0)


def _nonnegative_state(d, rng):
    g = np.abs(rng.standard_normal((d, d)))
    m = g @ g.T
    return DensityMatrix(m / np.trace(m))


def _phase_rotated(rho, rng):
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, rho.dim))
    return DensityMatrix(phases[:, None] * rho.mat * phases.conj()[None, :])


def _witness_states():
    rng = np.random.default_rng(15)
    states = {}
    for d in (3, 5, 8):
        states[f"nonnegative-d{d}"] = _nonnegative_state(d, rng)
        states[f"rotated-d{d}"] = _phase_rotated(_nonnegative_state(d, rng), rng)
        states[f"dephased-d{d}"] = dephase(random_density(d, d, rng))
    for n in (2, 3):
        kmax = 1 / (2**n - 1)
        for p in (0.26, 0.5, 0.9):
            for k in (kmax, rng.uniform(0, kmax)):
                phi = maximally_coherent(2**n)
                (states[f"fig1-n{n}-p{p}-k{k:.3f}"],) = mix_with_pure([sigma_family(n, k)], phi, p)
    return states


WITNESS_STATES = _witness_states()


def _column_phases(m: np.ndarray) -> np.ndarray:
    """u_j = m_jk / |m_jk| on the column k of the largest diagonal entry, 1 where m_jk = 0."""
    col = m[:, int(np.argmax(m.diagonal().real))]
    mod = np.abs(col)
    return np.where(mod > 0, col / np.where(mod > 0, mod, 1.0), 1.0)


@pytest.mark.parametrize("name", sorted(WITNESS_STATES))
def test_roc_phase_witness_dispatch_and_certificate(name):
    rho = WITNESS_STATES[name]
    mv = roc(rho)
    assert mv.method is Method.PHASE_WITNESS
    # the value is the witness rung's, in value and in decision mode
    assert _solve_free_roc(rho, False) == mv == _solve_free_roc(rho, True)
    gap = mv.certificate_gap
    assert abs(gap) <= 1e-14
    assert mv.value == pytest.approx(l1_coherence(rho).value, abs=1e-14)
    # the value lies in the SDP's certified bracket, widened by the witness gap
    sol = sdp.solve(sdp.build(rho))
    assert sol.status is sdp.SolveStatus.OPTIMAL
    assert sol.dual_value - 1 - gap - 1e-12 <= mv.value <= sol.primal_value - 1 + 1e-12
    # recheck both certificates from scratch: the Gershgorin primal point is
    # feasible, and the column witness Y = u u^dag has unit diagonal and attains the value
    m = rho.mat
    primal_diag = np.abs(m).sum(axis=1)
    assert np.linalg.eigvalsh(np.diag(primal_diag) - m)[0] >= -1e-12
    u = _column_phases(m)
    assert np.abs(np.abs(u) ** 2 - 1).max() <= 1e-15
    y = np.outer(u, u.conj())
    assert max(np.real(np.vdot(y, m)) - 1, 0.0) == pytest.approx(mv.value, abs=1e-13)
    assert primal_diag.sum() - np.real(np.vdot(y, m)) == pytest.approx(gap, abs=1e-13)


def test_phase_witness_gap_is_never_negative():
    # the witness pair's two objectives agree only to rounding here, so an
    # unclamped primal - dual often comes out just below zero and the
    # bracket [value, value + gap] would be empty
    rng = np.random.default_rng(20)
    for _ in range(50):
        for d in range(3, 9):
            mv = roc(_phase_rotated(_nonnegative_state(d, rng), rng))
            assert mv.method is Method.PHASE_WITNESS
            assert mv.certificate_gap >= 0.0
            assert mv.upper >= mv.value

def test_roc_keeps_sdp_where_no_phase_witness_certifies():
    rng = np.random.default_rng(16)
    states = [sigma_family(n, rng.uniform(0, 1 / (2**n - 1))) for n in (2, 3) for _ in range(3)]
    states += [sigma_family(n, 1 / (2**n - 1)) for n in (2, 3)]
    states += [random_density(d, d, rng) for d in (3, 4, 6, 10)]
    for rho in states:
        assert _solve_free_roc(rho, False) is None
        bracket = _solve_free_roc(rho, True)
        assert type(bracket) is tuple and 0.0 <= bracket[0] <= bracket[1]
        assert roc(rho).method is Method.SDP


def test_pair_value_is_the_dual_bound_with_the_pair_gap():
    mv = _pair_value(Method.SDP, 1.25, 1.5)
    assert (mv.value, mv.method, mv.certificate_gap) == (0.25, Method.SDP, 0.25)
    # a shortfall below one that the gap covers is clamped to zero
    mv = _pair_value(Method.PHASE_WITNESS, 1.0 - 1e-9, 1.0 + 1e-9)
    assert mv.value == 0.0 and mv.certificate_gap == (1.0 + 1e-9) - (1.0 - 1e-9)
    # within the noise floor but beyond the gap: clamped by _finalize
    assert _pair_value(Method.SDP, 1.0 - 1e-9, 1.0 - 1e-9 + 1e-12).value == 0.0
    with pytest.raises(ArithmeticError):
        _pair_value(Method.SDP, 1.0 - 1e-3, 1.0 - 1e-3 + 1e-9)


def test_roc_at_a_loose_tolerance_reports_a_negative_dual_as_zero():
    # frustrated phases: the column witness has dual objective 1 - 2c, yet at
    # tol=1e-4 its gap 12c still passes; the certified lower bound is then 0
    # (Y = I), not a value below the noise floor
    c = 5e-6
    m = np.diag([0.34, 0.33, 0.33]).astype(complex)
    m[0, 1] = m[1, 0] = m[0, 2] = m[2, 0] = c
    m[1, 2] = m[2, 1] = -3 * c
    rho = DensityMatrix(m)
    exact = roc(rho).value
    mv = roc(rho, tol=1e-4)
    assert mv.method is Method.PHASE_WITNESS
    assert 0.0 <= mv.value <= exact <= mv.upper
    # at the default tolerance the witness gap fails: the eigen bracket holds it
    lo, hi = _solve_free_roc(rho, True)
    assert 0.0 <= lo <= exact <= hi


def test_roc_raises_on_a_dual_shortfall_beyond_its_gap(monkeypatch):
    # an "optimal" solve whose dual objective sits far below one, with a tiny
    # gap, is a solver fault; only a shortfall the gap covers clamps to zero
    rho = random_density(3, 3, np.random.default_rng(19))
    real_solve = sdp.solve

    def faulty_solve(problem, **kwargs):
        sol = real_solve(problem, **kwargs)
        return dataclasses.replace(sol, dual_value=1.0 - 1e-3, primal_value=1.0 - 1e-3 + 1e-9,
                                   gap=1e-9)

    monkeypatch.setattr(sdp, "solve", faulty_solve)
    with pytest.raises(ArithmeticError):
        roc(rho)


def test_roc_zero_on_dephased():
    rng = np.random.default_rng(3)
    for d in (3, 5):
        rho = dephase(random_density(d, d, rng))
        assert roc(rho).value <= 1e-9


def test_roc_of_sigma_family_equals_k():
    # optimum derived in docs/roc-sdp.md: primal t=(1+k)/2^n and dual
    # Y = d/(d-1)(I - P) both give exactly k; cross-checked in test_sdp
    # against an independent solver.
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for _ in range(5):
            k = rng.uniform(0, 1 / (2**n - 1))
            assert abs(roc(sigma_family(n, k)).value - k) < 1e-6


def test_roc_reduced_sigma_qubit_equals_k():
    assert abs(roc(sigma_family(2, 1 / 3).marginal(0)).value - 1 / 3) < 1e-14


def test_measures_make_no_eigen_call_beyond_validation(monkeypatch):
    rng = np.random.default_rng(14)
    states = [
        random_density(2, 2, rng),
        pure_density(haar_random_pure(5, rng)),
        random_density(4, 4, rng),
        sigma_family(3, 0.1),
        mix_with_pure([sigma_family(2, 0.2)], maximally_coherent(4), 0.5)[0],
    ]
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "hermitian_eig", counting("hermitian_eig", linalg.hermitian_eig))
    methods = {roc(rho).method for rho in states}
    for rho in states:
        rel_entropy_coherence(rho)
    assert methods == {
        Method.CLOSED_FORM_QUBIT, Method.PURE_STATE_L1, Method.SDP, Method.PHASE_WITNESS
    }
    assert calls == []


def test_measure_value_certificate_gap_consistency():
    with pytest.raises(ValueError):
        MeasureValue(0.5, Method.DIRECT, certificate_gap=1e-9)
    with pytest.raises(ValueError):
        MeasureValue(0.5, Method.SDP)
    with pytest.raises(ValueError):
        MeasureValue(0.5, Method.PHASE_WITNESS)
    with pytest.raises(ValueError):
        MeasureValue(0.5, Method.SOLVE_FREE_BRACKET, certificate_gap=1e-9)
    MeasureValue(0.5, Method.PHASE_WITNESS, certificate_gap=0.0)


def _gap(rho):
    """The sub-additivity gap of one state, as a block of one."""
    return subadditivity_gap([rho])[0]()[1]


def test_subadditivity_gap_product_of_dephased_qubits():
    rng = np.random.default_rng(5)
    a = dephase(random_density(2, 2, rng)).mat
    b = dephase(random_density(2, 2, rng)).mat
    rho = DensityMatrix(np.kron(a, b), (2, 2))
    assert abs(_gap(rho)) < 1e-12


def test_subadditivity_gap_pure_two_qubit_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(100):
        gap = _gap(pure_density(haar_random_pure(4, rng), (2, 2)))
        assert gap >= -1e-7


def test_subadditivity_gap_sigma_value():
    # total robustness k, marginals k each: gap is k(1-n) = -1/3 here
    assert abs(_gap(sigma_family(2, 1 / 3)) - (-1 / 3)) < 1e-6


def test_subadditivity_gap_needs_qubit_dims():
    with pytest.raises(ValueError, match="all-qubit"):
        subadditivity_gap([DensityMatrix(np.eye(3) / 3)])
    with pytest.raises(ValueError, match="all-qubit"):
        subadditivity_gap([sigma_family(2, 0.1), DensityMatrix(np.eye(4) / 4, (4,))])


def test_stacked_fig1_block_equals_each_state_alone():
    # the sigma and mixture stacks, the marginal stacks, their closed forms,
    # the witness values and the gaps of a block are bit-identical to each
    # state's own, built and measured alone by the scalar formulas
    rng = np.random.default_rng(18)
    kmax = sigma_kmax(2)
    ks = rng.uniform(0.0, kmax, 24).tolist() + [0.0, kmax]
    witnessed = solved = 0
    for phi in (maximally_coherent(4), maximally_entangled_two_qubit()):
        for p in (0.0, 0.06, 0.2, 0.5, 1.0):
            sigmas = sigma_family(2, ks)
            chis = mix_with_pure(sigmas, phi, p)
            m = np.stack([chi.mat for chi in chis])
            reds = [linalg.partial_trace(m, (2, 2), keep) for keep in (0, 1)]
            values = _solve_free_values(chis, False)
            gaps = [value_and_gap()[1] for value_and_gap in subadditivity_gap(chis)]
            for i, k in enumerate(ks):
                sigma = DensityMatrix((1.0 + k) / 4 * np.eye(4, dtype=complex)
                                      - k * projector(maximally_coherent(4)), (2, 2))
                chi = DensityMatrix((1.0 - p) * sigma.mat + p * projector(phi), (2, 2))
                for block, alone in ((sigmas[i], sigma), (chis[i], chi)):
                    assert np.array_equal(block.mat, alone.mat)
                    assert np.array_equal(block.eigenvalues, alone.eigenvalues)
                    assert block.offdiagonal_abs_sum == alone.offdiagonal_abs_sum
                for keep in (0, 1):
                    marginal = chi.marginal(keep)
                    assert np.array_equal(reds[keep][i], marginal.mat)
                    assert 2.0 * np.abs(reds[keep][i, 0, 1]) == roc(marginal).value
                assert values[i] == _solve_free_roc(chi, False)
                method = roc(chi).method
                witnessed += method is Method.PHASE_WITNESS
                solved += method is Method.SDP
                assert gaps[i] == roc(chi).value - sum(roc(chi.marginal(keep)).value
                                                       for keep in (0, 1))
    assert witnessed > 50 and solved > 50


def test_sigma_block_values_and_gaps_equal_each_state_alone():
    # theorem1's block, at the ends of each family's range too, gives each
    # state's roc value and its gap by the scalar formula, bit for bit, and
    # counts the same roc values per method
    rng = np.random.default_rng(19)
    for n in range(1, 5):
        ks = [0.0, sigma_kmax(n)] + rng.uniform(0.0, sigma_kmax(n), 3).tolist()
        before = cohkit.measures.ROC_METHOD_COUNTS.copy()
        block = [value_and_gap() for value_and_gap in subadditivity_gap(sigma_family(n, ks))]
        counted = cohkit.measures.ROC_METHOD_COUNTS - before
        for k, (value, gap) in zip(ks, block):
            rho = sigma_family(n, k)
            alone = roc(rho).value
            assert value == alone
            assert gap == alone - sum(roc(rho.marginal(i)).value for i in range(n))
        assert cohkit.measures.ROC_METHOD_COUNTS - before == counted + counted


def test_theorem1_closed_form_values():
    assert abs(theorem1_closed_form(2, 1 / 3) - 0.25) < 1e-15
    assert abs(theorem1_closed_form(3, 1 / 7) - 1 / 8) < 1e-15
    for n in (1, 2, 5):
        assert theorem1_closed_form(n, 0.0) == 0.0
    with pytest.raises(ValueError):
        theorem1_closed_form(2, 0.5)
    with pytest.raises(ValueError):
        theorem1_closed_form(0, 0.1)


def _ordering_violated(a, b, m1, m2):
    d1 = compute_measure(m1, a).value - compute_measure(m1, b).value
    d2 = compute_measure(m2, a).value - compute_measure(m2, b).value
    return values_ordering_violated(d1, d2)


def test_answer_table_is_values_ordering_violated_per_category():
    t = ORDERING_TIE_TOL
    past = np.nextafter(t, 1.0)
    grid = np.array([0.0, t, -t, past, -past, np.nextafter(t, 0.0), 0.3, -0.3])
    d_l1, d_rel = (x.ravel() for x in np.meshgrid(grid, grid))
    table = cohkit.measures._answer_table(d_l1, d_rel)
    assert table.shape == (len(d_l1), 3)
    for codes, l1, rel in zip(table.tolist(), d_l1.tolist(), d_rel.tolist()):
        diff = {MeasureKind.L1: l1, MeasureKind.REL_ENTROPY: rel}
        # each category's code holds for every RoC difference in that category
        for code, d_rocs in zip(codes, ([past, 0.7], [-past, -0.7], [0.0, t, -t])):
            row = cohkit.measures._ANSWERS[code]
            for d_roc in d_rocs:
                diff[MeasureKind.ROC] = d_roc
                assert row == tuple(values_ordering_violated(diff[m], diff[w])
                                    for m, w in MEASURE_PAIRS)
                assert all(type(answer) is bool for answer in row)


def _settle_by_category(codes, low, high):
    """The settle rule, pair by pair: the set of codes of the categories a
    bracket allows, settled where it holds one code, else -1."""
    t = ORDERING_TIE_TOL
    out = []
    for row, lo, hi in zip(codes.tolist(), low.tolist(), high.tolist()):
        allowed = (hi > t, lo < -t, lo <= t and hi >= -t)
        found = {code for code, ok in zip(row, allowed) if ok}
        out.append(found.pop() if len(found) == 1 else -1)
    return out


def test_the_settle_rule_matches_its_per_category_reference_at_the_edges():
    t = ORDERING_TIE_TOL
    ends = [-np.inf, -0.5, np.nextafter(-t, -1.0), -t, np.nextafter(-t, 0.0), 0.0,
            np.nextafter(t, 0.0), t, np.nextafter(t, 1.0), 0.5, np.inf]
    # code rows per category (above t, below -t, tie): all agree, or two or three differ
    rows = [(0, 0, 0), (5, 5, 5), (1, 2, 4), (1, 1, 2), (3, 6, 6), (7, 0, 7)]
    cases = [(lo, hi, row) for lo in ends for hi in ends for row in rows]
    low, high, codes = (np.array(x) for x in zip(*cases))
    settled = cohkit.measures._settle(codes, low, high)
    assert settled.tolist() == _settle_by_category(codes, low, high)
    # a point bracket (d, d) allows exactly the category of d
    for d in ends:
        category = 0 if d > t else 1 if d < -t else 2
        point = np.full(len(rows), d)
        assert cohkit.measures._settle(np.array(rows), point, point).tolist() == [
            row[category] for row in rows]
    # (-inf, inf) allows every category: a pair settles only where its rows all agree
    everything = np.full(len(rows), np.inf)
    assert cohkit.measures._settle(np.array(rows), -everything, everything).tolist() == [
        row[0] if len(set(row)) == 1 else -1 for row in rows]


def test_a_block_decides_the_same_when_its_pairs_are_reversed():
    # a block at d = 5 whose pairs settle at every stage, pairs needing no
    # robustness among them, decided once in order and once reversed; of the
    # two near-tie pairs the ascent settles the first and the SDP rung the
    # second, the one pair that reaches it
    rng = np.random.default_rng(31)
    pairs = [(random_density(5, 5, rng), random_density(5, 5, rng)) for _ in range(40)]
    rho = random_density(5, 5, rng)
    pairs += [_near_tie_pair(random_density(5, 5, rng)) for _ in range(2)] + [(rho, rho)]
    forward = [decide() for decide in ordering_decisions(pairs)]
    backward = [decide() for decide in ordering_decisions(pairs[::-1])]
    assert backward[::-1] == forward
    assert {d.stage for d in forward} == {
        DecisionStage.SOLVE_FREE, DecisionStage.ASCENT, DecisionStage.SOLVE}
    low, high = forward[-1].roc_difference
    assert np.isfinite([low, high]).all() and low <= 0.0 <= high


def _with_rel_entropy(rho, value):
    """``rho`` as a new state whose relative entropy of coherence reads
    exactly ``value``: its two entropies are planted as ``value`` and 0."""
    state = DensityMatrix.stack(rho.mat[None], rho.dims)[0]
    state.__dict__.update(dephased_entropy_bits=value, entropy_bits=0.0)
    return state


def test_a_block_clamps_a_noise_level_negative_relative_entropy_to_zero():
    # pair 3 has d_l1 > t and b's relative entropy planted at t, so the l1 :
    # rel answer hangs on a's: read as 0 it makes d_rel = -t, a tie, and read
    # as -1e-12 it would make d_rel < -t, a violation
    t = ORDERING_TIE_TOL
    rng = np.random.default_rng(32)
    pairs = [(random_density(4, 4, rng), random_density(4, 4, rng)) for _ in range(8)]
    a, b = sorted(pairs[3], key=lambda rho: -rho.offdiagonal_abs_sum)
    assert a.offdiagonal_abs_sum - b.offdiagonal_abs_sum > t
    assert values_ordering_violated(a.offdiagonal_abs_sum - b.offdiagonal_abs_sum, -1e-12 - t)

    def block(rel_a):
        planted = (_with_rel_entropy(a, rel_a), _with_rel_entropy(b, t))
        return [decide() for decide in ordering_decisions(pairs[:3] + [planted] + pairs[4:])]

    planted = block(-1e-12)
    assert planted == block(0.0)
    assert planted[3].violated[0] is False
    # the clamp acts on that entry alone; the others keep their values
    values = np.array([0.25, -1e-12, 0.0, 3.0])
    assert cohkit.measures._finalized(values).tolist() == [0.25, 0.0, 0.0, 3.0]
    with pytest.raises(ArithmeticError, match="below the numerical-noise floor"):
        ordering_decisions(pairs[:3] + [(a, _with_rel_entropy(b, -1e-3))] + pairs[4:])


def test_exact_values_settle_a_pair_on_their_difference(monkeypatch):
    # two closed-form values bracket the RoC difference by a point, which the
    # settle rule decides without a solve
    rng = np.random.default_rng(22)
    monkeypatch.setattr(sdp, "solve", _never_certifying_solve)
    pairs = [(pure_density(haar_random_pure(10, rng)), pure_density(haar_random_pure(10, rng))),
             (random_density(2, 2, rng), random_density(2, 2, rng))]
    for a, b in pairs:
        decision = ordering_decision(a, b)
        d = roc(a).value - roc(b).value
        assert decision.stage is DecisionStage.SOLVE_FREE
        assert decision.roc_difference == (d, d)
        assert all(type(x) is float for x in decision.roc_difference)
        assert decision.violated == tuple(_ordering_violated(a, b, m, w) for m, w in MEASURE_PAIRS)


def test_ordering_ties_are_not_violations():
    assert values_ordering_violated(0.1, -0.2)
    assert not values_ordering_violated(0.1, 0.2)
    assert not values_ordering_violated(1e-8, -0.2)
    assert not values_ordering_violated(0.1, -1e-8)


def test_ordering_never_violated_for_identical_states():
    rng = np.random.default_rng(7)
    rho = random_density(3, 3, rng)
    for m1 in MeasureKind:
        for m2 in MeasureKind:
            assert not _ordering_violated(rho, rho, m1, m2)


def test_ordering_l1_vs_roc_agrees_on_qubits():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = random_density(2, 2, rng)
        b = random_density(2, 2, rng)
        assert not _ordering_violated(a, b, MeasureKind.L1, MeasureKind.ROC)


def test_ordering_l1_vs_roc_agrees_on_pure_states():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = pure_density(haar_random_pure(6, rng))
        b = pure_density(haar_random_pure(6, rng))
        assert not _ordering_violated(a, b, MeasureKind.L1, MeasureKind.ROC)


def test_ordering_violations_do_happen():
    rng = np.random.default_rng(10)
    found = 0
    for _ in range(200):
        a = random_density(4, 4, rng)
        b = random_density(4, 4, rng)
        found += _ordering_violated(a, b, MeasureKind.REL_ENTROPY, MeasureKind.ROC)
    assert found > 0


def _decision_pairs():
    """32 seeded pairs per point: fig2 at d = 3..10, fig3 ranks 2..9 at d = 10."""
    rng = np.random.default_rng(17)
    points = [(d, d) for d in range(3, 11)] + [(10, rank) for rank in range(2, 10)]
    for d, rank in points:
        for _ in range(32):
            yield random_density(d, rank, rng), random_density(d, rank, rng)


def test_staged_ordering_decision_matches_full_precision_values():
    # the staged answer must equal the answer on fully solved values wherever
    # those values put the RoC difference clearly inside one tie category
    compared = 0
    stages = set()
    for a, b in _decision_pairs():
        decision = ordering_decision(a, b)
        stages.add(decision.stage)
        full = {kind: (compute_measure(kind, a), compute_measure(kind, b)) for kind in MeasureKind}
        expected = tuple(
            values_ordering_violated(
                full[m][0].value - full[m][1].value, full[w][0].value - full[w][1].value
            )
            for m, w in MEASURE_PAIRS
        )
        ra, rb = full[MeasureKind.ROC]
        d_roc = ra.value - rb.value
        margin = 2 * max(ra.certificate_gap or 0.0, rb.certificate_gap or 0.0)
        low, high = decision.roc_difference
        assert low <= d_roc + margin and d_roc - margin <= high
        if min(abs(d_roc - ORDERING_TIE_TOL), abs(d_roc + ORDERING_TIE_TOL)) > margin:
            compared += 1
            assert decision.violated == expected
    assert compared >= 500
    assert {DecisionStage.SOLVE_FREE, DecisionStage.ASCENT, DecisionStage.SOLVE} <= stages


def test_a_pair_needing_no_robustness_settles_solve_free_with_no_solve(monkeypatch):
    # (rho, rho) has the same answers in every category of its RoC
    # difference, so the first settle, after the eigen bracket, decides it

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran although no measure pair needs the robustness")

    rho = random_density(4, 4, np.random.default_rng(18))
    monkeypatch.setattr(sdp, "solve", no_solve)
    decision = ordering_decision(rho, rho)
    assert decision.violated == (False, False, False)
    assert decision.stage is DecisionStage.SOLVE_FREE


def _pair_needing_a_solve():
    """A seeded fig2 pair at d = 10 that no solve-free bracket settles."""
    rng = np.random.default_rng(20)
    while True:
        a, b = random_density(10, 10, rng), random_density(10, 10, rng)
        if ordering_decision(a, b).stage not in (DecisionStage.SOLVE_FREE, DecisionStage.ASCENT):
            return a, b


def _pair_of_both_states_solved():
    """Sample 87 of seed-0 ``fig3 --samples 100`` at rank 4 (d = 10): a pair
    that the first state's solve, run to DEFAULT_ROC_TOL, leaves open, so
    the second state's solve settles it."""
    rng = np.random.default_rng([0, 3, 87])
    return random_density(10, 4, rng), random_density(10, 4, rng)


def _recording_solve(monkeypatch, fail=False):
    """Patches sdp.solve to record each call's tolerance, and, with ``fail``,
    to report NUMERICAL_FAILURE after a solve that forwarded ``accept``."""
    tols = []
    real_solve = sdp.solve

    def solve(problem, **kwargs):
        tols.append(kwargs["tol"])
        sol = real_solve(problem, **kwargs)
        return dataclasses.replace(sol, status=sdp.SolveStatus.NUMERICAL_FAILURE) if fail else sol

    monkeypatch.setattr(sdp, "solve", solve)
    return tols


def _never_certifying_solve(problem, **kwargs):
    """A solve whose first Cholesky factorization breaks down: it certifies
    no iterate, so it never calls ``accept``."""
    d = problem.rho.dim
    return sdp.RocSolution(np.zeros(d), None, np.inf, -np.inf, np.inf, 0,
                           sdp.SolveStatus.NUMERICAL_FAILURE)


@pytest.mark.parametrize("make_pair", [_pair_needing_a_solve, _pair_of_both_states_solved])
def test_a_failed_solve_keeps_what_its_certified_iterates_gave(make_pair, monkeypatch):
    a, b = make_pair()
    expected = ordering_decision(a, b)
    tols = _recording_solve(monkeypatch, fail=True)
    decision = ordering_decision(a, b)
    assert decision.violated == expected.violated
    assert decision.stage is expected.stage is DecisionStage.SOLVE
    assert tols and set(tols) == {DEFAULT_ROC_TOL}


def test_a_solver_that_never_certifies_raises_roc_s_failure(monkeypatch):
    a, b = _pair_needing_a_solve()
    monkeypatch.setattr(sdp, "solve", _never_certifying_solve)
    with pytest.raises(sdp.SolverFailure) as outright:
        roc(a)
    with pytest.raises(sdp.SolverFailure) as err:
        ordering_decision(a, b)
    assert str(err.value) == str(outright.value)
    assert err.value.state is a or err.value.state is b


def test_no_state_reaches_the_solver_twice(monkeypatch):
    pairs = [_pair_of_both_states_solved(), _pair_needing_a_solve()] + _open_pairs()
    solved = []
    real_solve = sdp.solve

    def recording_solve(problem, **kwargs):
        solved.append(id(problem.rho))
        return real_solve(problem, **kwargs)

    monkeypatch.setattr(sdp, "solve", recording_solve)
    both = 0
    for a, b in pairs:
        solved.clear()
        ordering_decision(a, b)
        assert len(solved) == len(set(solved)) <= 2
        both += len(solved) == 2
    assert both > 0


def _zero_rows_state(seed, d=6):
    """A random full-rank state on the rows and columns i of a d x d matrix
    with i % 3 != 1, so the others are zero, diagonal included: at d = 6 a
    d=4 state on rows 0, 2, 3, 5, with rows 1 and 4 zero."""
    m = np.zeros((d, d), dtype=complex)
    keep = [i for i in range(d) if i % 3 != 1]
    m[np.ix_(keep, keep)] = random_density(len(keep), len(keep), np.random.default_rng(seed)).mat
    return DensityMatrix(m)


def _near_incoherent(d, seed):
    """A random state's diagonal plus 1e-6 of its off-diagonal part."""
    rho = random_density(d, d, np.random.default_rng(seed))
    return DensityMatrix((1 - 1e-6) * dephase(rho).mat + 1e-6 * rho.mat)


def _trace_form(v, r):
    """Re tr(V^dag R), one dot product over the flattened matrices: with R =
    rho V, the objective tr(rho Y) of Y = V V^dag."""
    return float(np.vdot(v, r).real)


def _scalar_unit_rows(r):
    """Each row of a matrix over its norm, the square root of the sum of the
    squares of its real and imaginary parts, and e_1 where that is zero."""
    x = r.view(float)
    norm = np.sqrt(np.einsum("ik,ik->i", x, x))[:, None]
    return np.where(norm > 0, r, np.eye(r.shape[1])[0]) / np.where(norm > 0, norm, 1.0)


def _near_tie_pair(rho, eps=1e-6):
    """``rho`` and (1 - eps) rho + eps Diag(rho), whose RoC and l1 are exactly
    (1 - eps) times rho's (a primal point D of rho gives (1 - eps) D + eps
    Diag(rho), and a dual Y serves both): a pair whose RoC difference, eps
    RoC(rho), is a few ORDERING_TIE_TOL, inside the width of the ascent's
    bracket on it at d = 10, so the SDP rung settles it."""
    return rho, DensityMatrix((1 - eps) * rho.mat + eps * dephase(rho).mat)


def _ascent_hard_states() -> dict[str, DensityMatrix]:
    rng = np.random.default_rng(71)
    states = {f"zero-rows-{seed}": _zero_rows_state(seed) for seed in range(3)}
    # at d = 16 the ascent has rank 6, so a zero row's e_1 sits among five zero columns
    states.update({f"zero-rows-d16-{seed}": _zero_rows_state(seed, 16) for seed in range(2)})
    states.update({f"d10-rank{r}": random_density(10, r, rng) for r in range(2, 10)})
    states.update({f"sigma-n{n}-kmax": sigma_family(n, sigma_kmax(n)) for n in range(2, 6)})
    states["complex-d64"] = random_density(64, 64, rng)
    states.update({f"near-incoherent-d{d}": _near_incoherent(d, 72 + d) for d in (3, 6, 10)})
    return states


ASCENT_HARD_STATES = _ascent_hard_states()


def _stack_parity_states() -> dict[str, np.ndarray]:
    """Hard matrices: zero-diagonal rows, d=10 at every rank, complex d=64,
    near-incoherent d = 3, 6, 10 and the sigma family at k_max."""
    rng = np.random.default_rng(75)
    mats = {f"zero-rows-{seed}": _zero_rows_state(seed).mat for seed in range(3)}
    mats.update({f"d10-rank{r}": random_density(10, r, rng).mat for r in range(1, 11)})
    mats["complex-d64"] = random_density(64, 64, rng).mat
    mats.update({f"near-incoherent-d{d}": _near_incoherent(d, 76 + d).mat for d in (3, 6, 10)})
    mats.update({f"sigma-n{n}-kmax": sigma_family(n, sigma_kmax(n)).mat for n in range(2, 6)})
    return mats


@pytest.mark.parametrize("name", sorted(_stack_parity_states()))
def test_stacked_and_single_states_measure_bit_identically(name):
    # the state goes third in a stack of five, between random states of its dimension
    mat = _stack_parity_states()[name]
    rng = np.random.default_rng(77)
    others = [random_density(len(mat), len(mat), rng).mat for _ in range(4)]
    stacked = DensityMatrix.stack(np.stack(others[:2] + [mat] + others[2:]))[2]
    single = DensityMatrix(mat)
    assert np.array_equal(stacked.eigenvalues, single.eigenvalues)
    assert l1_coherence(stacked) == l1_coherence(single)
    assert rel_entropy_coherence(stacked) == rel_entropy_coherence(single)
    # and both equal the formulas as first written
    kept = single.eigenvalues[single.eigenvalues > cohkit.states.ENTROPY_EIG_FLOOR]
    diag = np.diag(mat).real
    diag = diag[diag > cohkit.states.ENTROPY_EIG_FLOOR]
    assert stacked.entropy_bits == float(-np.sum(kept * np.log2(kept)))
    assert stacked.dephased_entropy_bits == float(-np.sum(diag * np.log2(diag)))
    assert stacked.offdiagonal_abs_sum == float(np.sum(np.abs(mat)) - np.sum(np.abs(np.diag(mat))))


def test_the_ascent_reuses_the_eigh_of_the_solve_free_bracket(monkeypatch):
    # one eigh of the stacked off-diagonal parts serves both brackets of a block
    pairs = [pair for pair in _open_pairs()
             if ordering_decision(*pair).stage is DecisionStage.ASCENT]
    d = pairs[0][0].dim
    pairs = [pair for pair in pairs if pair[0].dim == d]
    assert {type(_solve_free_roc(rho, True)) for pair in pairs for rho in pair} == {tuple}
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape)
        return real_eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    decisions = [decide() for decide in ordering_decisions(pairs)]
    assert {decision.stage for decision in decisions} == {DecisionStage.ASCENT}
    assert calls == [(2 * len(pairs), d, d)]


@pytest.mark.parametrize("name", sorted(ASCENT_HARD_STATES))
def test_ascent_bracket_contains_the_sdp_optimum(name):
    rho = ASCENT_HARD_STATES[name]
    lo, hi = _ascent_bracket(rho)
    sol = sdp.solve(sdp.build(rho), tol=1e-9)
    assert sol.status is sdp.SolveStatus.OPTIMAL
    assert 0.0 <= lo <= hi < np.inf
    assert lo <= sol.primal_value - 1.0 + 1e-12
    assert hi >= sol.dual_value - 1.0 - 1e-12
    # the last V has unit rows, so that Y = V V^dag is feasible: e_1 wherever
    # rho's row, and so rho V's, is zero
    v = _ascent(rho.mat[None], _ascent_start(rho))[2][0]
    assert v.shape[1] == cohkit.measures._ascent_plan(rho.dim)[0] > 1
    assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12
    zero = ~rho.mat.any(axis=1)
    assert zero.any() == name.startswith("zero-rows")
    assert np.array_equal(v[zero], np.eye(v.shape[1])[[0] * zero.sum()])


def test_each_ascent_step_never_lowers_the_dual(monkeypatch):
    # every unit-row V the ascent forms, in order, after the eigenvector
    # start it is given: one per minorize-maximize step, as many as the
    # rule gives the state's dimension
    formed = []
    real_rows = cohkit.measures._unit_rows

    def recording_rows(r):
        formed.append(real_rows(r))
        return formed[-1]

    monkeypatch.setattr(cohkit.measures, "_unit_rows", recording_rows)
    rng = np.random.default_rng(73)
    states = list(ASCENT_HARD_STATES.values())
    states += [random_density(d, int(rng.integers(2, d + 1)), rng) for d in range(3, 17)]
    rises = 0
    for rho in states:
        start = _ascent_start(rho)
        formed.clear()
        lo, _ = _ascent_brackets(rho.mat[None], start)
        assert len(formed) == cohkit.measures._ascent_plan(rho.dim)[1]
        duals = [_trace_form(v[0], rho.mat @ v[0]) for v in [start] + formed]
        for before, after in zip(duals, duals[1:]):
            assert after >= before - 1e-12 * max(1.0, abs(before))
            rises += after > before + 1e-6
        assert lo[0] == max(0.0, max(duals) - 1.0)
    assert rises > 0


def _open_pairs():
    """Seeded fig2 pairs at d = 4..10 that no solve-free bracket settles."""
    rng = np.random.default_rng(74)
    pairs = []
    while len(pairs) < 40:
        d = int(rng.integers(4, 11))
        a, b = random_density(d, d, rng), random_density(d, d, rng)
        if ordering_decision(a, b).stage is not DecisionStage.SOLVE_FREE:
            pairs.append((a, b))
    return pairs


def _one_dimension_blocks(pairs):
    """``pairs`` as one block per dimension, in order of first appearance."""
    blocks = {}
    for pair in pairs:
        blocks.setdefault(pair[0].dim, []).append(pair)
    return list(blocks.values())


def _tight_above_loose_below(rho):
    """A certified bracket tighter than the solve-free one above and looser below."""
    top = sdp.solve(sdp.build(rho), tol=1e-9).primal_value - 1.0
    return _solve_free_roc(rho, True)[0] / 2, top


def _tight_below_loose_above(rho):
    """A certified bracket tighter than the solve-free one below and looser above."""
    bottom = sdp.solve(sdp.build(rho), tol=1e-9).dual_value - 1.0
    return bottom, _solve_free_roc(rho, True)[1] + 1.0


def _stacked_ascent(bracket):
    """An ascent rung that gives each matrix of the stack the one-state
    bracket ``bracket``, as objectives."""

    def ascent(m, u):
        lo, hi = zip(*(bracket(DensityMatrix(mat)) for mat in m))
        return np.array(lo) + 1.0, np.array(hi) + 1.0, u

    return ascent


@pytest.mark.parametrize(
    "ascent", [_ascent_bracket, _tight_above_loose_below, _tight_below_loose_above]
)
def test_the_ascent_never_widens_a_solve_free_bracket(ascent, monkeypatch):
    # the open pairs of each dimension decided as one block, so each ascent
    # runs on a stack
    monkeypatch.setattr(cohkit.measures, "_ascent", _stacked_ascent(ascent))
    ascent_settled = 0
    for pairs in _one_dimension_blocks(_open_pairs()):
        first = [[_ends(_solve_free_roc(rho, True)) for rho in pair] for pair in pairs]
        for ((lo_a, hi_a), (lo_b, hi_b)), decide in zip(first, ordering_decisions(pairs)):
            decision = decide()
            ascent_settled += decision.stage is DecisionStage.ASCENT
            low, high = decision.roc_difference
            assert lo_a - hi_b <= low <= high <= hi_a - lo_b
    assert ascent_settled > 0


# The three pins below once also hashed the decisions of an outright-solving
# path, since removed; each is now the hash of the same decisions with only
# that half dropped, computed with the code that had both halves.
# sha256 of the answers alone, recorded before ordering_decision was rewritten
# around a rung table, and kept through every later rewrite
VIOLATED_HASH = "eb2ed125fc5135e0491161dfbe1e77df761c6defabc487b2813fefa9214acd20"
# sha256 of each decision's answers and stage, recorded before the rungs ran
# on stacks, and kept until the ascent went from rank one to rank r: of the
# 552 pairs, 36 of the 42 the SDP settled moved to the ascent stage
# (solve-free, ascent, solve: 286, 224, 42 -> 286, 260, 6), with no answer
# changed (VIOLATED_HASH held)
STAGE_HASH = "ce6540f4ed82d1af4fc5190594aae3a393214b729161ae355ca9019451fdfadc"
# sha256 of each decision's stage and bracket and of the roc /
# solve-free / ascent / sdp.solve calls that made it, recorded when the
# solve-free and ascent rungs began to run once per block; the solve-free
# stacks were then one helper's, which ran candidates 1-4 with its
# tolerance slot None in decision mode, and are now the witness rung's.
# Re-recorded when random states of rank r < d began to take their spectrum
# from the r x r Gram: sdp.build starts from eigenvalues[-1], which moved at
# about 1e-16, so 13 of the 552 records (ranks 3-9) moved their solved
# bracket by at most 3.3e-13, with no answer, stage, call or iteration count
# changed (VIOLATED_HASH and STAGE_HASH held). Re-recorded with STAGE_HASH
# when the ascent went to rank r: every ascent bracket moved. Re-recorded
# when the rank-one phases became the r = 1 case of the unit rows, whose
# norm is sqrt(re^2 + im^2) where np.abs took hypot: 483 bracket ends of 363
# records moved, by at most 5.3e-15, with no answer, stage, call or
# iteration count changed (VIOLATED_HASH and STAGE_HASH held)
DECISION_HASH = "3d2e847a0ad5db526dc5d5248da58b2bf67b50361546a268e85f51ddf60b836a"


def test_ordering_decisions_and_their_calls_are_pinned(monkeypatch):
    pairs = list(_decision_pairs()) + _open_pairs()
    calls = []
    real_roc, real_solve = roc, sdp.solve
    witness, ascent = cohkit.measures._witness, cohkit.measures._ascent
    states, names = {}, {}

    def recording_roc(rho, tol=DEFAULT_ROC_TOL):
        calls.append(("roc", states[id(rho)], tol))
        return real_roc(rho, tol=tol)

    def recording_witness(m, u):
        calls.append(("solve_free", [names[mat.tobytes()] for mat in m], None))
        return witness(m, u)

    def recording_ascent(m, u):
        calls.append(("ascent", [names[mat.tobytes()] for mat in m]))
        return ascent(m, u)

    def recording_solve(problem, **kwargs):
        sol = real_solve(problem, **kwargs)
        calls.append(("solve", states[id(problem.rho)], kwargs["tol"], sol.iterations))
        return sol

    monkeypatch.setattr(cohkit.measures, "roc", recording_roc)
    monkeypatch.setattr(cohkit.measures, "_witness", recording_witness)
    monkeypatch.setattr(cohkit.measures, "_ascent", recording_ascent)
    monkeypatch.setattr(sdp, "solve", recording_solve)
    violated, stages, record = [], [], []
    for a, b in pairs:
        states.update({id(a): "a", id(b): "b"})
        names.update({a.mat.tobytes(): "a", b.mat.tobytes(): "b"})
        calls.clear()
        decision = ordering_decision(a, b)
        violated.append(decision.violated)
        stages.append((decision.violated, decision.stage.value))
        record.append((decision.stage.value, repr(decision.roc_difference), calls[:]))
    assert hashlib.sha256(repr(violated).encode()).hexdigest() == VIOLATED_HASH
    assert hashlib.sha256(repr(stages).encode()).hexdigest() == STAGE_HASH
    assert hashlib.sha256(repr(record).encode()).hexdigest() == DECISION_HASH


def test_each_mode_runs_its_own_rungs(monkeypatch):
    # value mode runs the witness and then the SDP: with the eigen bracket and
    # the ascent raising, roc and subadditivity_gap give their values unchanged
    rng = np.random.default_rng(87)
    singles = [random_density(2, 2, rng), pure_density(haar_random_pure(5, rng)),
               WITNESS_STATES["rotated-d5"], random_density(4, 4, rng)]
    kmax = sigma_kmax(2)
    fig1 = mix_with_pure(sigma_family(2, [0.0, kmax / 2, kmax]), maximally_coherent(4), 0.06)
    values = [roc(rho) for rho in singles + fig1]
    gaps = [value_and_gap() for value_and_gap in subadditivity_gap(fig1)]
    assert {mv.method for mv in values} == {
        Method.CLOSED_FORM_QUBIT, Method.PURE_STATE_L1, Method.PHASE_WITNESS, Method.SDP}
    assert {roc(rho).method for rho in fig1} == {Method.PHASE_WITNESS, Method.SDP}

    def unexpected(m, u):
        raise AssertionError("a decision-mode rung ran in value mode")

    with monkeypatch.context() as patch:
        patch.setattr(cohkit.measures, "_eigen_bracket", unexpected)
        patch.setattr(cohkit.measures, "_ascent", unexpected)
        assert [roc(rho) for rho in singles + fig1] == values
        assert [value_and_gap() for value_and_gap in subadditivity_gap(fig1)] == gaps

    # decision mode runs the eigen bracket at most once per block, on exactly
    # the states the witness left open, in ascending order
    eigen, stacks = cohkit.measures._eigen_bracket, []

    def recording_eigen(m, u):
        stacks.append(m.copy())
        return eigen(m, u)

    monkeypatch.setattr(cohkit.measures, "_eigen_bracket", recording_eigen)
    bracketed = 0
    for pairs in _mixed_blocks():
        stacks.clear()
        for decide in ordering_decisions(pairs):
            decide()
        expected = [rho.mat for pair in pairs for rho in pair
                    if _solve_free_roc(rho, False) is None]
        assert len(stacks) == (1 if expected else 0)
        if expected:
            assert np.array_equal(stacks[0], np.stack(expected))
            bracketed += len(expected)
    assert bracketed > 10


def test_a_block_that_rung_0_values_runs_no_later_rung(monkeypatch):
    # rank-1 states at d = 10 and qubits all take rung 0's closed forms, so
    # their ladder stacks no state: it builds no phase stack and runs neither
    # the witness nor the gap rule, and the eigen bracket, the ascent and the
    # SDP run on no state
    rng = np.random.default_rng(89)
    blocks = []
    for d, r in ((10, 1), (2, 2)):
        states = random_densities(d, r, [rng], count=128)
        blocks.append(list(zip(states[::2], states[1::2])))
    expected = [[decide() for decide in ordering_decisions(pairs)] for pairs in blocks]
    for decisions in expected:
        assert {decision.stage for decision in decisions} == {DecisionStage.SOLVE_FREE}
    ladder = _Ladder([rho for pair in blocks[0] for rho in pair], DEFAULT_ROC_TOL)
    assert ladder.m is None and ladder.v is None

    def unexpected(*args, **kwargs):
        raise AssertionError("a rung after rung 0 ran on a block it values")

    for name in ("_witness", "_eigen_bracket", "_ascent"):
        monkeypatch.setattr(cohkit.measures, name, unexpected)
    monkeypatch.setattr(_Ladder, "solve", unexpected)
    monkeypatch.setattr(sdp, "solve", unexpected)
    monkeypatch.setattr(sdp, "passes_gap_rule", unexpected)
    assert [[decide() for decide in ordering_decisions(pairs)] for pairs in blocks] == expected


def test_a_primal_whose_slack_fails_cholesky_is_never_used(monkeypatch):
    states = ASCENT_HARD_STATES
    honest = {name: _ascent_bracket(rho) for name, rho in states.items()}
    optimum = {name: sdp.solve(sdp.build(rho), tol=1e-9).dual_value - 1.0
               for name, rho in states.items()}
    # planted fault: lambda_min of Diag|rho u| - rho reads 0.5 too high, so the
    # shift c comes out too small wherever the slack needs one
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: real_eigvalsh(m) + 0.5)
    by_dim = {}
    for name, rho in states.items():
        by_dim.setdefault(rho.dim, []).append(name)
    rejected = 0
    for names in by_dim.values():  # the states of each dimension as one stack
        lo, hi = _ascent_brackets(np.stack([states[name].mat for name in names]),
                                  np.concatenate([_ascent_start(states[name]) for name in names]))
        for name, low, high in zip(names, lo.tolist(), hi.tolist()):
            assert (low, high) == _ascent_bracket(states[name])
            assert low == honest[name][0]
            assert high == np.inf or high >= optimum[name] - 1e-12, name
            rejected += high == np.inf
    assert 0 < rejected < len(states)
    assert max(len(names) for names in by_dim.values()) > 1


def _block_pairs(ranks=None):
    """Seeded blocks of three pairs, drawn as the ordering sweeps draw them,
    at d = 2..16 and every rank (or the ranks ``ranks(d)``)."""
    for d in range(2, 17):
        for rank in ranks(d) if ranks else range(1, d + 1):
            rngs = [np.random.default_rng([31, d, rank, i]) for i in range(3)]
            states = random_densities(d, rank, rngs, count=2)
            yield list(zip(states[::2], states[1::2]))


def _mixed_blocks():
    """Qubits, pure, phase-witness (phase-rotated), zero-diagonal-row and
    random states, and a near-tie pair at d = 10, in one block of pairs per
    dimension."""
    rng = np.random.default_rng(81)
    witness = [_phase_rotated(_nonnegative_state(d, rng), rng) for d in (6, 6, 5)]
    pairs = [
        (random_density(2, 2, rng), random_density(2, 2, rng)),
        (pure_density(haar_random_pure(6, rng)), _zero_rows_state(0)),
        (witness[0], random_density(6, 6, rng)),
        (_zero_rows_state(1), random_density(6, 3, rng)),
        (witness[2], pure_density(haar_random_pure(5, rng))),
        (_zero_rows_state(2), witness[1]),
        (pure_density(haar_random_pure(4, rng)), pure_density(haar_random_pure(4, rng))),
    ]
    pairs += [(random_density(d, d, rng), random_density(d, d, rng)) for d in (6, 10, 10) * 6]
    pairs.append(_near_tie_pair(random_density(10, 10, rng)))
    return _one_dimension_blocks(pairs)


def test_a_block_decides_each_pair_as_a_block_of_one():
    for blocks in (list(_block_pairs()), _mixed_blocks()):
        stages = set()
        for pairs in blocks:
            block = [decide() for decide in ordering_decisions(pairs)]
            assert block == [ordering_decision(a, b) for a, b in pairs]
            stages |= {decision.stage for decision in block}
        assert {DecisionStage.SOLVE_FREE, DecisionStage.ASCENT, DecisionStage.SOLVE} <= stages


@pytest.mark.parametrize("across_pairs", [True, False])
def test_a_block_that_mixes_dimensions_raises(across_pairs):
    # the dimensions differ between two pairs of the block, or within one pair
    rng = np.random.default_rng(84)
    a, b, c = (random_density(d, d, rng) for d in (3, 3, 4))
    pairs = [(a, b), (c, c)] if across_pairs else [(a, c)]
    with pytest.raises(ValueError, match="one dimension"):
        ordering_decisions(pairs)


def test_each_roc_value_of_a_block_is_counted_once(monkeypatch):
    # per block, the counts gain each state's first value, by the method it
    # has alone, and one sdp per certified solve; the ascent brackets are not
    # values and count nothing
    certified = []
    real_solve = sdp.solve

    def recording_solve(problem, **kwargs):
        sol = real_solve(problem, **kwargs)
        certified.append(sol.status in (sdp.SolveStatus.OPTIMAL, sdp.SolveStatus.ACCEPTED))
        return sol

    monkeypatch.setattr(sdp, "solve", recording_solve)
    seen = Counter()
    for pairs in list(_block_pairs()) + _mixed_blocks():
        alone = [roc(rho) if not cohkit.measures._bracketed(rho) else _solve_free_roc(rho, True)
                 for pair in pairs for rho in pair]
        certified.clear()
        before = cohkit.measures.ROC_METHOD_COUNTS.copy()
        for decide in ordering_decisions(pairs):
            decide()
        expected = Counter(sdp=sum(certified))
        expected.update(mv.method.value if isinstance(mv, MeasureValue)
                        else Method.SOLVE_FREE_BRACKET.value for mv in alone)
        assert cohkit.measures.ROC_METHOD_COUNTS - before == +expected
        seen += expected
    assert set(seen) == {method.value for method in Method if method is not Method.DIRECT}


def _scalar_brackets(rho):
    """Candidates 1-6 on one matrix with single-matrix numpy calls, as first
    written: the solve-free ``(value, gap)`` and the ascent's ``(lo, hi)``."""
    m = rho.mat
    u = _scalar_unit_rows(m[:, [int(np.argmax(m.diagonal().real))]])[:, 0]
    dual = float(np.vdot(u, m @ u).real)
    primal = float(np.abs(m).sum())
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    w, v = np.linalg.eigh(off)
    u = _scalar_unit_rows(v[:, [-1]])[:, 0]
    dual = max(dual, float(np.vdot(u, m @ u).real))
    shift = float(w[-1]) + cohkit.measures.BRACKET_SLACK_SHIFT
    slack = -m
    np.fill_diagonal(slack, shift)
    try:
        np.linalg.cholesky(slack)
        primal = min(primal, float(np.sum(m.diagonal().real + shift)))
    except np.linalg.LinAlgError:
        pass
    lo = max(0.0, dual - 1.0)
    rank, steps = cohkit.measures._ascent_plan(len(m))
    v = v[:, ::-1][:, :rank].copy()
    v[:, 0] = u
    v = _scalar_unit_rows(v)
    r = m @ v
    ascent = _trace_form(v, r)
    for _ in range(steps):
        v = _scalar_unit_rows(r)
        r = m @ v
        ascent = max(ascent, _trace_form(v, r))
    mod = np.linalg.norm(r, axis=1)
    d = mod + max(0.0, -float(np.linalg.eigvalsh(np.diag(mod) - m)[0]))
    d = d + cohkit.measures.BRACKET_SLACK_SHIFT
    try:
        np.linalg.cholesky(np.diag(d) - m)
        top = float(d.sum()) - 1.0
    except np.linalg.LinAlgError:
        top = np.inf
    return (lo, max(0.0, primal - 1.0 - lo)), (max(0.0, ascent - 1.0), top)


def test_stacked_brackets_equal_each_matrix_alone():
    # every stacked rung's objectives and phases on a stack are bit-identical
    # to the matrix's own as a stack of one, and the solve-free values and
    # ascent brackets to the scalar formulas
    compared = 0
    for pairs in _block_pairs():
        states = [rho for pair in pairs for rho in pair if rho.dim > 2]
        if not states:
            continue
        m = np.stack([rho.mat for rho in states])
        u = np.zeros((*m.shape[:2], cohkit.measures._ascent_plan(m.shape[-1])[0]), dtype=complex)
        for rung in (_witness, _eigen_bracket, _ascent):  # each from the V the one before left
            stacked = rung(m, u)
            for k in range(len(states)):
                alone = rung(m[k:k + 1], u[k:k + 1])
                assert all(np.array_equal(x[k], y[0]) for x, y in zip(stacked, alone))
            u = stacked[2]
        lo, hi = np.maximum(0.0, stacked[0] - 1.0), stacked[1] - 1.0
        for k, (first, rho) in enumerate(zip(_solve_free_values(states, True), states)):
            if type(first) is tuple:
                b_lo, b_hi = first
                assert ((b_lo, max(0.0, b_hi - b_lo)), (lo[k], hi[k])) == _scalar_brackets(rho)
                compared += 1
    assert compared > 500


def test_the_eigen_rung_puts_one_where_the_top_eigenvector_is_zero():
    # a direct sum's top eigenvector of O lies in one block and is exactly
    # zero on the other; there the r = 1 unit rows put 1 (e_1), so that
    # Y = u u^dag keeps its unit diagonal and the dual stays a lower bound
    rng = np.random.default_rng(0)
    a, b = random_density(3, 3, rng).mat, random_density(4, 4, rng).mat
    m = np.zeros((7, 7), dtype=complex)
    m[:3, :3], m[3:, 3:] = 0.6 * a, 0.4 * b
    top = np.linalg.eigh(m - np.diag(m.diagonal()))[1][:, -1]
    assert (top == 0).sum() == 4
    u = _scalar_unit_rows(top[:, None])
    assert np.array_equal(u[top == 0, 0], np.ones(4))
    dual, _, start = _eigen_bracket(m[None], np.zeros((1, 7, 2), dtype=complex))
    assert dual[0] == _trace_form(u, m @ u)
    assert np.abs(np.linalg.norm(start[0], axis=1) - 1.0).max() < 1e-12
    sol = sdp.solve(sdp.build(DensityMatrix(m)), tol=1e-9)
    assert sol.status is sdp.SolveStatus.OPTIMAL
    assert dual[0] <= sol.primal_value + 1e-12


def test_every_final_bracket_holds_the_sdp_value():
    blocks = list(_block_pairs(lambda d: {d // 2 or 1, d} if d <= 10 else ())) + _mixed_blocks()
    checked = 0
    for pairs in blocks:
        for (a, b), decide in zip(pairs, ordering_decisions(pairs)):
            low, high = decide().roc_difference
            sa, sb = (sdp.solve(sdp.build(rho), tol=1e-9) for rho in (a, b))
            assert sa.status is sb.status is sdp.SolveStatus.OPTIMAL
            # the bracket meets the SDP's certified bracket on the difference
            assert low <= sa.primal_value - sb.dual_value + 1e-12
            assert high >= sa.dual_value - sb.primal_value - 1e-12
            checked += 1
    assert checked > 50


def test_one_slack_that_fails_cholesky_costs_only_its_own_primal(monkeypatch):
    rng = np.random.default_rng(83)
    states = [random_density(10, r, rng) for r in range(2, 11) for _ in range(2)]
    m = np.stack([rho.mat for rho in states])
    u = np.concatenate([_ascent_start(rho) for rho in states])
    honest_lo, honest_hi = _ascent_brackets(m, u)
    assert np.isfinite(honest_hi).all()
    real_eigvalsh, real_cholesky = np.linalg.eigvalsh, np.linalg.cholesky
    # the state whose slack a 0.5 too high lambda_min breaks
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda a: real_eigvalsh(a) + 0.5)
        broken = [j for j, rho in enumerate(states) if _ascent_bracket(rho)[1] == np.inf]
    j = broken[0]
    # planted fault: in the block, that state's lambda_min alone reads 0.5 too high
    plant = 0.5 * (np.arange(len(states)) == j)[:, None]
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real_eigvalsh(a) + plant)
    factorized = []

    def recording_cholesky(a):
        factorized.append(len(a))
        return real_cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    lo, hi = _ascent_brackets(m, u)
    # the stacked call raised, so each matrix was checked alone
    assert factorized == [len(states)] + [1] * len(states)
    assert np.array_equal(lo, honest_lo)
    assert hi[j] == np.inf
    assert np.array_equal(np.delete(hi, j), np.delete(honest_hi, j))


def test_roc_never_exceeds_l1():
    rng = np.random.default_rng(12)
    for _ in range(30):
        d = int(rng.integers(2, 8))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        assert roc(rho).value <= l1_coherence(rho).value + 1e-7


def test_sigma_family_always_subadditive():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = rng.uniform(0, 1 / (2**n - 1))
        assert _gap(sigma_family(n, k)) <= 1e-9


def test_hard_negative_floor_raises():
    with pytest.raises(ArithmeticError):
        from cohkit.measures import _finalize

        _finalize(-1e-3)
