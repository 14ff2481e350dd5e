"""The contract that every certified robustness-of-coherence bracket keeps.

Hypothesis draws states from the families that stress the RoC ladder of
:mod:`cohkit.measures`, at d = 2..10:

* Ginibre states ``G G^dag / tr`` of every rank, with real or complex ``G``;
* rank-one states plus 1e-10 of a full-rank state;
* sigma states at, just below and well below ``k_max``, and the fig1
  mixtures of sigma states with the maximally coherent or the maximally
  entangled state;
* dephased states, and states a little off their dephasing;
* any of these on a smaller support embedded in a larger basis, which gives
  zero-diagonal rows and columns.

The properties are stated on the public entry points (``roc``,
``subadditivity_gap``, ``ordering_decisions``) and on the stacked rungs of
the ladder, against the solver, ``sdp.solve``, run to a relative gap of
1e-10:

* every value's ``[value, upper]`` meets the solver's certified bracket;
* so does every ``[dual - 1, primal - 1]`` of the witness, the eigen
  bracket and the rank-r ascent, each run from the point the one before
  left, at d = 2..16, so at ranks 2 to 6;
* a block's answer for each state or pair is bit-identical to its answer as
  a block of one;
* the ``roc`` brackets of a state and of its image under a basis
  permutation with diagonal phases intersect;
* an ordering decision equals the one from 1e-10 values wherever that
  difference is more than 1e-9 from either tie boundary.

Examples are derandomized with no example database and a fixed budget, so
every run checks the same states.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohkit import sdp
from cohkit.measures import (
    DEFAULT_ROC_TOL,
    MEASURE_PAIRS,
    ORDERING_TIE_TOL,
    PURE_EIG_TOL,
    MeasureKind,
    _ascent,
    _ascent_plan,
    _eigen_bracket,
    _witness,
    l1_coherence,
    ordering_decisions,
    rel_entropy_coherence,
    roc,
    subadditivity_gap,
    values_ordering_violated,
)
from cohkit.states import (
    DensityMatrix,
    maximally_coherent,
    maximally_entangled_two_qubit,
    mix_with_pure,
    projector,
    random_densities,
    sigma_family,
    sigma_kmax,
)

# Relative gap of the reference solves.
REFERENCE_TOL = 1e-10
# Weight of the full-rank state added to a rank-one state.
NOISE = 1e-10
# Rounding allowed, relative to max(1, |value|), where two certified brackets meet.
ROUNDING = 1e-12

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _unit_trace(m):
    return m / np.trace(m).real


def _ginibre(draw, rng, d):
    rank = draw(st.integers(1, d))
    g = rng.standard_normal((d, rank))
    if not draw(st.booleans()):
        g = g + 1j * rng.standard_normal((d, rank))
    return _unit_trace(g @ g.conj().T)


def _noisy_pure(draw, rng, d):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    full = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (1.0 - NOISE) * projector(psi / np.linalg.norm(psi)) + NOISE * _unit_trace(
        full @ full.conj().T)


def _sigma_k(draw, rng, n):
    kmax = sigma_kmax(n)
    return draw(st.sampled_from([kmax, kmax * (1.0 - 1e-12), kmax * (1.0 - 1e-9),
                                 float(rng.uniform(0.0, kmax))]))


def _sigma(draw, rng, d):
    n = draw(st.integers(1, int(np.log2(d))))
    return sigma_family(n, _sigma_k(draw, rng, n)).mat


def _fig1_mixture(draw, rng, d):
    n = draw(st.integers(1, int(np.log2(d))))
    k = _sigma_k(draw, rng, n)
    phi = maximally_coherent(2**n)
    if n == 2 and draw(st.booleans()):
        phi = maximally_entangled_two_qubit()
    # p = k / (1 + k) zeroes every off-diagonal entry of the coherent mixture
    p = draw(st.sampled_from([0.0, k / (1.0 + k), float(rng.uniform()), 1.0]))
    return mix_with_pure([sigma_family(n, k)], phi, p)[0].mat


def _dephased(draw, rng, d):
    m = _ginibre(draw, rng, d)
    q = draw(st.sampled_from([0.0, 1e-6, float(rng.uniform())]))
    return (1.0 - q) * np.diag(m.diagonal()) + q * m


FAMILIES = {
    "ginibre": _ginibre,
    "noisy_pure": _noisy_pure,
    "sigma": _sigma,
    "fig1_mixture": _fig1_mixture,
    "dephased": _dephased,
}
# Ginibre states, the ordering sweeps' states, are drawn as often as the rest together.
FAMILY_DRAWS = ["ginibre"] * (len(FAMILIES) - 1) + sorted(FAMILIES.keys() - {"ginibre"})


@st.composite
def states(draw, d, dims=()):
    """A state of dimension ``d`` from one of FAMILIES, on a support of ``d``
    basis states or, embedded in the larger basis, of fewer."""
    family = draw(st.sampled_from(FAMILY_DRAWS))
    support = draw(st.integers(2, d)) if draw(st.booleans()) else d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = FAMILIES[family](draw, rng, support)
    keep = np.sort(rng.choice(d, len(inner), replace=False))
    m = np.zeros((d, d), dtype=complex)
    m[np.ix_(keep, keep)] = inner
    return DensityMatrix(m, dims)


dimensions = st.integers(2, 10)
# past d = 10 the ascent's rank is ceil(sqrt(2d)), not 2
rung_dimensions = st.integers(2, 16)


@st.composite
def incoherent_unitaries(draw, d):
    """A basis permutation times diagonal phases, as a matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.zeros((d, d), dtype=complex)
    u[np.arange(d), rng.permutation(d)] = np.exp(2j * np.pi * rng.uniform(size=d))
    return u


def _rotated(rho, u):
    return DensityMatrix(u @ rho.mat @ u.conj().T)


@st.composite
def pairs(draw, d):
    """A pair of states of dimension ``d``: two of :func:`states`; the first
    and its image under an incoherent unitary, whose RoC difference is a tie;
    or, half the time, a pair of rank ``d`` as the fig2 sweep draws it."""
    kind = draw(st.integers(0, 3))
    if kind >= 2:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return tuple(random_densities(d, d, [rng], count=2))
    a = draw(states(d))
    if kind == 1:
        return a, _rotated(a, draw(incoherent_unitaries(d)))
    return a, draw(states(d))


@st.composite
def pair_blocks(draw):
    d = draw(dimensions)
    return draw(st.lists(pairs(d), min_size=1, max_size=4))


@st.composite
def qubit_blocks(draw):
    n = draw(st.integers(1, 3))
    return draw(st.lists(states(2**n, (2,) * n), min_size=1, max_size=4))


def _reference(rho):
    """The certified bracket ``(dual - 1, primal - 1)`` of a 1e-10 solve,
    whatever its status: every certified iterate brackets the robustness."""
    sol = sdp.solve(sdp.build(rho), tol=REFERENCE_TOL)
    return sol.dual_value - 1.0, sol.primal_value - 1.0


def _pure_resolution(rho):
    """How far the pure-state identity RoC = l1 may be off for ``rho``: a
    state within PURE_EIG_TOL of rank one whose top eigenvalue is 1 - eps
    has l1 - RoC in [0, (2d - 1) eps]. Zero for any other state."""
    if rho.dim == 2 or rho.eigenvalues[-2] >= PURE_EIG_TOL:
        return 0.0
    return 2 * rho.dim * max(0.0, 1.0 - float(rho.eigenvalues[-1]))


def _meets(lo, hi, other_lo, other_hi, allowance=0.0):
    slack = ROUNDING * max(1.0, abs(hi), abs(other_hi)) + allowance
    return lo <= other_hi + slack and other_lo <= hi + slack


def _outcome(evaluate):
    """What a value function returns, or the type and message of what it raises."""
    try:
        return evaluate()
    except Exception as exc:  # a solver failure must be the same in a block and alone
        return type(exc), str(exc)


@CONTRACT
@given(dimensions.flatmap(states), st.sampled_from([DEFAULT_ROC_TOL, 1e-4]))
def test_every_roc_value_meets_the_certified_sdp_bracket(rho, tol):
    mv = roc(rho, tol)
    assert 0.0 <= mv.value <= mv.upper
    assert _meets(mv.value, mv.upper, *_reference(rho), _pure_resolution(rho))


def _rung_brackets(rho):
    """The ``(dual, primal)`` of the witness, the eigen bracket and the
    ascent, in that order, on ``rho`` as a stack of one, each rung from the
    unit-row V the one before left; and the rank of the ascent's V."""
    v = np.zeros((1, rho.dim, _ascent_plan(rho.dim)[0]), dtype=complex)
    brackets = []
    for rung in (_witness, _eigen_bracket, _ascent):
        dual, primal, v = rung(rho.mat[None], v)
        brackets.append((float(dual[0]), float(primal[0])))
    return brackets, v.shape[-1]


@CONTRACT
@given(rung_dimensions.flatmap(states))
def test_every_stacked_rung_brackets_the_sdp_value(rho):
    brackets, rank = _rung_brackets(rho)
    assert rank > 1
    reference = _reference(rho)
    for dual, primal in brackets:
        assert _meets(dual - 1.0, primal - 1.0, *reference)


@CONTRACT
@given(qubit_blocks())
def test_sub_additivity_values_meet_the_sdp_bracket_and_ignore_the_block(block):
    together = [_outcome(value_and_gap) for value_and_gap in subadditivity_gap(block)]
    alone = [_outcome(subadditivity_gap([rho])[0]) for rho in block]
    assert together == alone
    for rho, (value, gap) in zip(block, together):
        assert value == roc(rho).value
        assert _meets(value, roc(rho).upper, *_reference(rho), _pure_resolution(rho))


@CONTRACT
@given(pair_blocks())
def test_a_block_decides_each_pair_as_a_block_of_one(block):
    together = [_outcome(decide) for decide in ordering_decisions(block)]
    assert together == [_outcome(ordering_decisions([pair])[0]) for pair in block]


@CONTRACT
@given(dimensions.flatmap(lambda d: st.tuples(states(d), incoherent_unitaries(d))))
def test_roc_brackets_meet_under_incoherent_unitaries(case):
    rho, u = case
    moved = _rotated(rho, u)
    a, b = roc(rho), roc(moved)
    assert _meets(a.value, a.upper, b.value, b.upper,
                  _pure_resolution(rho) + _pure_resolution(moved))


def _reference_violations(a, b):
    """Per measure pair, values_ordering_violated on the l1 and
    relative-entropy values and the lower ends of the 1e-10 RoC brackets;
    and the certified bracket of those solves on the RoC difference."""
    (lo_a, hi_a), (lo_b, hi_b) = _reference(a), _reference(b)
    diff = {
        MeasureKind.L1: l1_coherence(a).value - l1_coherence(b).value,
        MeasureKind.REL_ENTROPY: rel_entropy_coherence(a).value - rel_entropy_coherence(b).value,
        MeasureKind.ROC: lo_a - lo_b,
    }
    violated = tuple(values_ordering_violated(diff[m], diff[w]) for m, w in MEASURE_PAIRS)
    return violated, diff[MeasureKind.ROC], (lo_a - hi_b, hi_a - lo_b)


@CONTRACT
@given(dimensions.flatmap(pairs))
def test_a_decision_agrees_with_tight_values_away_from_a_tie(pair):
    a, b = pair
    decision = ordering_decisions([pair])[0]()
    expected, d_roc, (low, high) = _reference_violations(a, b)
    resolution = _pure_resolution(a) + _pure_resolution(b)
    assert _meets(*decision.roc_difference, low, high, resolution)
    # the true difference lies within high - low of d_roc
    margin = 1e-9 + (high - low) + resolution
    if all(abs(d_roc - edge) > margin for edge in (ORDERING_TIE_TOL, -ORDERING_TIE_TOL)):
        assert decision.violated == expected
