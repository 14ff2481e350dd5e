"""Coherence quantifiers in the computational basis.

Three measures are provided:

* l1-norm of coherence: sum of off-diagonal entry moduli.
* relative entropy of coherence: S(dephased rho) - S(rho), in bits.
* robustness of coherence: least admixture weight of any state that makes
  the mixture incoherent. ``roc`` tries, in order: the closed form (single
  qubit), the l1 identity (pure states), a rank-one phase witness built
  without a solve that certifies RoC = l1 for states whose off-diagonal
  phases factor as u_i conj(u_j), and the certified SDP. Witness and SDP
  pairs become values by one rule. ``ROC_METHOD_COUNTS`` counts the values
  each path has returned in this process, each once, where it is made: the
  closed forms in ``roc``, the witness and solve-free bracket values in
  :func:`_solve_free_rocs`, the certified solves in :func:`_sdp_roc`.

Also here: the change in each measure when an ancilla is appended, the
robustness and sub-additivity gap over qubit marginals of each state of a
block (whose marginals, closed forms and phase witnesses are computed on
numpy stacks, with only the SDP left per state), the closed-form robustness
candidate for the sigma family, the measure-ordering test on value
differences (elementwise on arrays), and :func:`ordering_decisions`, which
decides that test for a block of pairs of states by one rule, from RoC
brackets tightened only as far as needed: on numpy stacks for the whole
block, each state's first value, a solve-free bracket where ``roc`` would
solve, then, for the pairs they leave open, certified phase-ascent brackets
(not values, so not counted in ``ROC_METHOD_COUNTS``); then, per pair still
open, one SDP solve per state that stops at the first certified iterate
that settles the pair (counted as an SDP value). Every pair goes up these
rungs, also one that a sweep draws again after a failed solve, as a block
of one. Both block functions take their first values from one block stage,
:func:`_first_rocs`, for a block whose states share one dimension.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

import numpy as np

from . import linalg, sdp
from .states import DensityMatrix, check_sigma_params

log = logging.getLogger(__name__)

# Values in [-HARD_NEGATIVE_FLOOR, 0) are numerical noise and clamp to zero;
# anything below is a genuine failure.
HARD_NEGATIVE_FLOOR = -1e-6
# Rank-1 detection for the pure-state shortcut.
PURE_EIG_TOL = 1e-9
# |difference| at or below this counts as a tie when comparing orderings. The
# tie is a property of the true difference: ordering_decisions settles which
# side of +-ORDERING_TIE_TOL the difference of two robustness values lies on
# from certified brackets, never from a single rounded value.
ORDERING_TIE_TOL = 1e-7
# Relative duality gap to which roc certifies a value unless told otherwise.
DEFAULT_ROC_TOL = 1e-8
# Added to lambda_max of the off-diagonal part before the slack of the
# solve-free primal point is Cholesky-certified; absorbs eigenvalue rounding.
BRACKET_SLACK_SHIFT = 1e-12
# Minorize-maximize steps u <- phases(rho u) of the phase-ascent bracket.
ASCENT_STEPS = 10


class MeasureKind(Enum):
    L1 = "l1"
    REL_ENTROPY = "rel_entropy"
    ROC = "roc"


# The measure pairs whose orderings the ordering sweeps compare, in CSV order.
MEASURE_PAIRS: tuple[tuple[MeasureKind, MeasureKind], ...] = (
    (MeasureKind.L1, MeasureKind.REL_ENTROPY),
    (MeasureKind.L1, MeasureKind.ROC),
    (MeasureKind.REL_ENTROPY, MeasureKind.ROC),
)


class Method(Enum):
    CLOSED_FORM_QUBIT = "closed_form_qubit"
    PURE_STATE_L1 = "pure_state_l1"
    PHASE_WITNESS = "phase_witness"
    SOLVE_FREE_BRACKET = "solve_free_bracket"
    SDP = "sdp"
    DIRECT = "direct"


# Methods whose value carries a certificate_gap: it lies in [value, value + gap].
_CERTIFIED = (Method.PHASE_WITNESS, Method.SOLVE_FREE_BRACKET, Method.SDP)


# RoC values returned in this process, per Method value; a run reports the change.
ROC_METHOD_COUNTS: Counter[str] = Counter()


@dataclass(frozen=True)
class MeasureValue:
    """A nonnegative measure value plus how it was obtained.

    ``certificate_gap`` is the nonnegative duality gap of the primal/dual
    pair that brackets the value: the measure lies in ``[value, value + gap]``.
    It is present exactly when the method is PHASE_WITNESS,
    SOLVE_FREE_BRACKET or SDP.
    """

    value: float
    method: Method
    certificate_gap: float | None = None

    def __post_init__(self):
        if (self.certificate_gap is not None) != (self.method in _CERTIFIED):
            raise ValueError(
                "certificate_gap is present iff the method is PHASE_WITNESS, "
                "SOLVE_FREE_BRACKET or SDP"
            )

    @property
    def upper(self) -> float:
        """Certified upper end of the value's bracket."""
        return self.value + (self.certificate_gap or 0.0)


def _finalize(value: float) -> float:
    if value < HARD_NEGATIVE_FLOOR:
        raise ArithmeticError(f"measure value {value} below the numerical-noise floor")
    if value < 0.0:
        log.debug("clamping tiny negative measure value %.3e to zero", value)
        return 0.0
    return value


def _pair_value(method: Method, dual: float, primal: float) -> MeasureValue:
    """The robustness value of a certified primal/dual pair: the lower bound
    ``dual - 1`` with the pair's gap ``primal - dual``, clamped at zero where
    the two objectives agree only to rounding.

    A shortfall below zero that the gap covers is clamped to zero (Y = I
    certifies RoC >= 0): a solve stopped at a loose tolerance can end there.
    A larger one goes through :func:`_finalize`, which raises below
    HARD_NEGATIVE_FLOOR, so a faulty solve is still caught.
    """
    gap = max(0.0, primal - dual)
    value = dual - 1.0
    value = max(0.0, value) if value >= -gap else _finalize(value)
    return MeasureValue(value, method, certificate_gap=gap)


def l1_coherence(rho: DensityMatrix) -> MeasureValue:
    """Sum of |rho_ij| over i != j."""
    return MeasureValue(_finalize(rho.offdiagonal_abs_sum), Method.DIRECT)


def rel_entropy_coherence(rho: DensityMatrix) -> MeasureValue:
    """S(diag(rho)) - S(rho) with base-2 logarithms, from the two entropies the state keeps."""
    return MeasureValue(_finalize(rho.dephased_entropy_bits - rho.entropy_bits), Method.DIRECT)


def _unit_phases(v: np.ndarray) -> np.ndarray:
    """v_j / |v_j|, and 1 where v_j = 0."""
    mod = np.abs(v)
    return np.divide(v, mod, out=np.ones_like(v), where=mod > 0)


def roc(rho: DensityMatrix, tol: float = DEFAULT_ROC_TOL) -> MeasureValue:
    """Robustness of coherence.

    Dispatch, first match wins:

    1. single qubits: the closed form 2|rho_01|;
    2. states that are rank one within PURE_EIG_TOL: the pure-state identity
       with the l1-norm, which the state computes once for this and for
       :func:`l1_coherence`;
    3. the PHASE_WITNESS value that :func:`_solve_free_rocs` builds without a
       solve (the state as a block of one) for states whose off-diagonal
       phases factor as u_i conj(u_j);
    4. otherwise the SDP at ``tol``. Raises :class:`cohkit.sdp.SolverFailure`,
       carrying ``rho`` as its ``state``, if the SDP does not certify.

    PHASE_WITNESS and SDP pairs become values by one rule, :func:`_pair_value`:
    the dual objective minus one, with the pair's gap; a shortfall below zero
    that the gap covers reads zero, and a larger one raises ArithmeticError
    below HARD_NEGATIVE_FLOOR. Each value is counted once in
    ROC_METHOD_COUNTS under its method's value: the closed forms here, the
    others by the function that makes them.

    Resolution: every value other than the closed forms is a certified lower
    bound, and the robustness lies in ``[value, value + gap]``, with the gap
    at most ``tol * max(1, primal)``. On the witness path it is rounding (the
    two objectives agree exactly for such states), so the value is RoC = l1
    to rounding, while an SDP value at the default ``tol`` may sit up to
    about 2e-8 low. A caller that needs less than a value takes, from
    :func:`_first_rocs` with no tolerance, a solve-free bracket in place of
    the SDP, as :func:`ordering_decisions` does.
    """
    if rho.dim == 2:
        mv = MeasureValue(_finalize(2.0 * float(np.abs(rho.mat[0, 1]))), Method.CLOSED_FORM_QUBIT)
    elif not _bracketed(rho):
        mv = MeasureValue(_finalize(rho.offdiagonal_abs_sum), Method.PURE_STATE_L1)
    else:
        return _solve_free_rocs(rho.mat[None], tol)[0][0] or _sdp_roc(rho, tol)
    ROC_METHOD_COUNTS[mv.method.value] += 1
    return mv


def _first_rocs(states: list[DensityMatrix], tol: float | None
                ) -> tuple[list[MeasureValue | None], dict[int, np.ndarray]]:
    """Per state of a block whose states share one dimension, its first
    robustness value: :func:`roc`'s, one state at a time, for a qubit or
    pure state; else, once for the stack of the block's other states, the
    value :func:`_solve_free_rocs` builds at ``tol``, None where a given
    ``tol`` leaves the state to the SDP. Also, by index into ``states``, the
    phases :func:`_solve_free_rocs` returned for each stacked state."""
    first = [None if _bracketed(rho) else roc(rho) for rho in states]
    stacked = [k for k, mv in enumerate(first) if mv is None]
    if not stacked:
        return first, {}
    found, u = _solve_free_rocs(np.stack([states[k].mat for k in stacked]), tol)
    for k, mv in zip(stacked, found):
        first[k] = mv
    return first, dict(zip(stacked, u))


def _bracketed(rho: DensityMatrix) -> bool:
    """Whether :func:`roc` gives ``rho`` a certified value rather than a
    closed form: ``d > 2`` and not rank one within PURE_EIG_TOL."""
    return rho.dim > 2 and rho.eigenvalues[-2] >= PURE_EIG_TOL


def _matvec(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``m[i] @ u[i]`` for each matrix of a stack, bit-identical to the single product."""
    return (m @ u[..., None])[..., 0]


def _diagonal_minus(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``Diag(d[i]) - m[i]`` for each matrix of a stack."""
    idx = np.arange(m.shape[-1])
    out = np.zeros(m.shape)
    out[:, idx, idx] = d
    return out - m


def _solve_free_rocs(
    m: np.ndarray, tol: float | None
) -> tuple[list[MeasureValue | None], np.ndarray]:
    """Per matrix of a stack ``m`` of shape ``(n, d, d)``, a certified
    robustness value built without a solve, or None where the state needs
    the SDP; and per matrix the phases u the phase ascent starts from.

    The candidates, in the order of docs/roc-sdp.md ("Certified pairs without
    a solve"), each run once on the stack of the matrices that reach it:

    1. primal: Gershgorin, d_i = rho_ii + sum_{j != i} |rho_ij|, objective 1 + l1;
    2. dual: Y = u u^dag with u the phases of the column of the largest
       diagonal entry. If the pair passes the solver's own gap rule,
       ``primal - dual <= tol * max(1, primal)`` (DEFAULT_ROC_TOL when ``tol``
       is None), it is a PHASE_WITNESS value. Otherwise a given ``tol``
       gives None, and ``tol=None`` goes on, with one ``eigh`` for the stack
       of the rest, to
    3. dual: the phases of the top eigenvector of O = rho - Diag(rho); these
       are the u returned for the matrix (candidate 2's u is returned for
       the others);
    4. primal: d_i = rho_ii + lambda_max(O) + BRACKET_SLACK_SHIFT, accepted
       once a Cholesky factorization of its slack, lambda_max(O) +
       BRACKET_SLACK_SHIFT on the diagonal and -rho_ij off it, succeeds
       (:func:`_factorizable`).

    The better point of each kind so far then makes a SOLVE_FREE_BRACKET value
    ``[max(0, dual - 1), primal - 1]``. Each matrix's value is bit-identical
    to the one it gets as a block of one. Every value returned is counted in
    ROC_METHOD_COUNTS.
    """
    n, d, _ = m.shape
    idx = np.arange(d)
    column = np.argmax(m.diagonal(axis1=-2, axis2=-1).real, axis=-1)
    u = _unit_phases(m[np.arange(n), :, column])
    dual = np.vecdot(u, _matvec(m, u)).real
    primal = np.abs(m).sum(axis=(-2, -1))
    witness = primal - dual <= (DEFAULT_ROC_TOL if tol is None else tol) * np.maximum(1.0, primal)
    values = [_pair_value(Method.PHASE_WITNESS, dl, pr) if ok else None
              for ok, dl, pr in zip(witness.tolist(), dual.tolist(), primal.tolist())]
    rest = np.flatnonzero(~witness)
    ROC_METHOD_COUNTS[Method.PHASE_WITNESS.value] += n - rest.size
    if tol is not None or not rest.size:
        return values, u
    m = m[rest]
    off = m.copy()
    off[:, idx, idx] = 0.0
    w, v = np.linalg.eigh(off)
    u[rest] = top = _unit_phases(v[..., -1])
    dual = np.maximum(dual[rest], np.vecdot(top, _matvec(m, top)).real)
    shift = w[:, -1] + BRACKET_SLACK_SHIFT
    slack = -m
    slack[:, idx, idx] = shift[:, None]
    # summed as C-ordered rows, so each row's sum is its single-matrix sum
    objective = (m.diagonal(axis1=-2, axis2=-1).real + shift[:, None]).sum(-1)
    bound = np.where(_factorizable(slack), objective, np.inf)
    primal = np.minimum(primal[rest], bound)
    # the upper end primal - 1 is tighter than lo + (primal - dual) for dual < 1
    for i, dl, pr in zip(rest.tolist(), dual.tolist(), primal.tolist()):
        lo = max(0.0, dl - 1.0)
        gap = max(0.0, pr - 1.0 - lo)
        values[i] = MeasureValue(lo, Method.SOLVE_FREE_BRACKET, certificate_gap=gap)
    ROC_METHOD_COUNTS[Method.SOLVE_FREE_BRACKET.value] += rest.size
    return values, u


def _ascent_brackets(m: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified brackets ``[lo, hi]`` on the robustness of each matrix of a
    stack ``m`` whose solve-free bracket left an ordering decision open
    (docs/roc-sdp.md, candidates 5 and 6), as two arrays.

    Dual: from the phases ``u[i]`` (candidate 3's, from
    :func:`_solve_free_rocs`), ASCENT_STEPS minorize-maximize steps
    u <- phases(rho u), each one batched product over the stack; none can
    lower u^dag rho u, which is convex in u. The best value seen is the
    lower end.
    Primal: the complementary-slackness point d_i = |(rho u)_i| + c for the
    last u, with c = max(0, -lambda_min(Diag|rho u| - rho)) +
    BRACKET_SLACK_SHIFT, used only where a Cholesky factorization of its
    slack succeeds (:func:`_factorizable`); elsewhere ``hi`` is infinite.
    Each matrix's bracket is bit-identical to the one it gets as a block of one.
    """
    r = _matvec(m, u)
    dual = np.vecdot(u, r).real
    for _ in range(ASCENT_STEPS):
        u = _unit_phases(r)
        r = _matvec(m, u)
        dual = np.maximum(dual, np.vecdot(u, r).real)
    mod = np.abs(r)
    c = np.maximum(0.0, -np.linalg.eigvalsh(_diagonal_minus(mod, m))[:, 0])
    d = (mod + c[:, None]) + BRACKET_SLACK_SHIFT
    primal = np.where(_factorizable(_diagonal_minus(d, m)), d.sum(-1), np.inf)
    return np.maximum(0.0, dual - 1.0), primal - 1.0


def _factorizable(slack: np.ndarray) -> np.ndarray:
    """Per matrix of a stack of primal slacks, whether a Cholesky
    factorization succeeds, so that the primal point is feasible.

    One stacked call decides the whole stack unless it raises; the stack is
    then checked one matrix at a time, so each matrix keeps the verdict it
    gets alone.
    """
    try:
        np.linalg.cholesky(slack)
    except np.linalg.LinAlgError:
        if len(slack) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_factorizable(s[None]) for s in slack])
    return np.ones(len(slack), dtype=bool)


def _sdp_roc(rho: DensityMatrix, tol: float, accept=None) -> MeasureValue:
    """The SDP value of ``rho`` at ``tol``, or at the iterate ``accept`` took
    (see :func:`cohkit.sdp.solve`), counted in ROC_METHOD_COUNTS; raises
    SolverFailure otherwise."""
    sol = sdp.solve(sdp.build(rho), tol=tol, accept=accept)
    if sol.status not in (sdp.SolveStatus.OPTIMAL, sdp.SolveStatus.ACCEPTED):
        raise sdp.SolverFailure(
            f"robustness SDP ended with status {sol.status.value} "
            f"(gap {sol.gap:.3e} after {sol.iterations} iterations)",
            state=rho,
        )
    ROC_METHOD_COUNTS[Method.SDP.value] += 1
    return _pair_value(Method.SDP, sol.dual_value, sol.primal_value)


def compute_measure(kind: MeasureKind, rho: DensityMatrix) -> MeasureValue:
    if kind is MeasureKind.L1:
        return l1_coherence(rho)
    if kind is MeasureKind.REL_ENTROPY:
        return rel_entropy_coherence(rho)
    return roc(rho)


def ancilla_deviations(rho: DensityMatrix, ancilla: DensityMatrix) -> tuple[float, ...]:
    """Per measure, in MeasureKind order, |C(rho (x) ancilla) - C(rho)|.

    By Result 2 of the paper every deviation vanishes for a diagonal ancilla.
    """
    product = DensityMatrix(np.kron(rho.mat, ancilla.mat), (rho.dim, ancilla.dim))
    return tuple(
        abs(compute_measure(kind, product).value - compute_measure(kind, rho).value)
        for kind in MeasureKind
    )


def subadditivity_gap(states: Sequence[DensityMatrix]) -> list[Callable[[], tuple[float, float]]]:
    """Per state of a block sharing one all-qubit factorization, a function
    that returns its robustness and its sub-additivity gap: that robustness
    minus the sum of its qubit marginals' robustness.

    Negative gaps mean the state is sub-additive. Each pair of values is
    bit-identical to the state's ``roc`` value and to that value minus the
    sum, in order, of ``roc`` over its marginals. What needs no solve runs
    once for the block, on numpy stacks: each marginal
    (:func:`cohkit.linalg.partial_trace`, validated by
    :meth:`DensityMatrix.stack`), its closed form 2|rho_01|, and each
    state's first value from :func:`_first_rocs` at DEFAULT_ROC_TOL: the
    closed form or phase witness ``roc`` would return. A state's function
    takes that value, or else the SDP at DEFAULT_ROC_TOL, raising
    :class:`cohkit.sdp.SolverFailure` there. Only then does it count the
    marginals' closed forms in ROC_METHOD_COUNTS, so a state whose solve
    fails counts nothing.
    """
    states = list(states)
    dims = states[0].dims
    for state in states:
        if not state.dims or any(d != 2 for d in state.dims) or state.dims != dims:
            raise ValueError("sub-additivity gap needs one all-qubit factorization, "
                             f"got dims={state.dims}")
    m = np.stack([state.mat for state in states])
    # every marginal of every state, marginal by marginal, validated as one stack
    red = np.concatenate([linalg.partial_trace(m, dims, keep) for keep in range(len(dims))])
    DensityMatrix.stack(red, (2,))
    marginal_sum = sum((2.0 * np.abs(red[:, 0, 1])).reshape(len(dims), len(states)))
    first = _first_rocs(states, DEFAULT_ROC_TOL)[0]

    def value_and_gap(k: int) -> tuple[float, float]:
        total = first[k] or _sdp_roc(states[k], DEFAULT_ROC_TOL)
        ROC_METHOD_COUNTS[Method.CLOSED_FORM_QUBIT.value] += len(dims)
        return total.value, total.value - float(marginal_sum[k])

    return [partial(value_and_gap, k) for k in range(len(states))]


def theorem1_closed_form(n: int, k: float) -> float:
    """Tabulated closed-form robustness candidate k(1 - 2^-n) for the sigma family.

    The ``theorem1`` experiment compares the certified SDP value against this
    expression and reports the difference; see docs/roc-sdp.md, which derives
    the optimum of the program for this family (the two do not agree).
    """
    check_sigma_params(n, k)
    return k * (1.0 - 2.0 ** (-n))


def values_ordering_violated(d1: float | np.ndarray, d2: float | np.ndarray) -> bool | np.ndarray:
    """True when measure differences d1 = m1(a) - m1(b) and d2 = m2(a) - m2(b)
    rank the pair (a, b) in opposite orders, elementwise on numpy arrays.

    Differences of magnitude at most ORDERING_TIE_TOL under either measure
    count as ties, never as violations. Given d1, the answer depends only on
    the category of d2 (above ORDERING_TIE_TOL, below -ORDERING_TIE_TOL, or
    a tie), which is what lets :func:`ordering_decisions` settle it from a
    bracket on d2.
    """
    t = ORDERING_TIE_TOL
    return (abs(d1) > t) & (abs(d2) > t) & (d1 * d2 < -(t**2))


def _answer_table(d_l1: np.ndarray, d_rel: np.ndarray) -> list[list[tuple[bool, ...]]]:
    """Per pair of l1 and relative-entropy differences, per category of the
    RoC difference (above ORDERING_TIE_TOL, below -ORDERING_TIE_TOL, a tie,
    which 1, -1 and 0 stand for), :func:`values_ordering_violated` for every
    measure pair in MEASURE_PAIRS, taken elementwise on arrays."""
    diff = dict(zip(MeasureKind, np.broadcast_arrays(d_l1[:, None], d_rel[:, None],
                                                      [1.0, -1.0, 0.0])))
    table = np.stack([values_ordering_violated(diff[m], diff[w]) for m, w in MEASURE_PAIRS], -1)
    return [list(map(tuple, rows)) for rows in table.tolist()]


class DecisionStage(Enum):
    """Where :func:`ordering_decisions` settled a pair."""

    SOLVE_FREE = "solve_free"
    ASCENT = "ascent"
    SOLVE = "solve"
    UNDECIDED = "undecided"


class OrderingDecision(NamedTuple):
    """Per measure pair, whether it ranks (a, b) oppositely; the stage that
    settled it; and the final bracket on RoC(a) - RoC(b) (infinite when the
    robustness was not needed)."""

    violated: tuple[bool, ...]
    stage: DecisionStage
    roc_difference: tuple[float, float]


class _Pair:
    """One pair's ordering decision in progress: its answers per category of
    the RoC difference and each state's RoC bracket ``[lo[i], hi[i]]``,
    ``[0, inf)`` until its first value ``values[i]`` is known."""

    def __init__(self, states: tuple[DensityMatrix, DensityMatrix],
                 categories: list[tuple[bool, ...]]):
        self.states = states
        self.categories = categories
        self.values: list[MeasureValue] = []
        self.lo, self.hi = [0.0, 0.0], [np.inf, np.inf]
        self.decision: OrderingDecision | None = None
        self.settle(DecisionStage.SOLVE_FREE)

    def start(self, values: list[MeasureValue]) -> None:
        """Bracket each state's robustness by its first value, and settle the
        pair at SOLVE_FREE if that is enough."""
        self.values = values
        self.lo = [mv.value for mv in values]
        self.hi = [mv.upper for mv in values]
        self.settle(DecisionStage.SOLVE_FREE)

    def bracket(self) -> tuple[float, float]:
        return self.lo[0] - self.hi[1], self.hi[0] - self.lo[1]

    def settle(self, stage: DecisionStage) -> bool:
        """Settle the pair at ``stage`` if every category of the RoC
        difference that its bracket allows gives the same answers."""
        t = ORDERING_TIE_TOL
        low, high = self.bracket()
        allowed = (high > t, low < -t, low <= t and high >= -t)
        found = {answer for answer, ok in zip(self.categories, allowed) if ok}
        if len(found) == 1:
            self.decision = OrderingDecision(found.pop(), stage, (low, high))
        return self.decision is not None

    def tighten(self, i: int, low: float, high: float) -> None:
        self.lo[i], self.hi[i] = max(self.lo[i], low), min(self.hi[i], high)

    def climbing(self) -> list[int]:
        """The states whose first value is a SOLVE_FREE_BRACKET, widest bracket first."""
        return sorted((i for i in (0, 1) if self.values[i].method is Method.SOLVE_FREE_BRACKET),
                      key=lambda i: self.lo[i] - self.hi[i])

    def decide(self) -> OrderingDecision:
        """The pair's decision; a pair the block's rungs left open first climbs the SOLVE rung."""
        if self.decision is not None:
            return self.decision
        failure = None
        for i in self.climbing():
            def accept(mu: float, primal: float, dual: float, i: int = i) -> bool:
                self.tighten(i, dual - 1.0, primal - 1.0)
                return self.settle(DecisionStage.SOLVE)

            try:
                self.values[i] = _sdp_roc(self.states[i], DEFAULT_ROC_TOL, accept)
            except sdp.SolverFailure as exc:
                failure = failure or exc
            if self.settle(DecisionStage.SOLVE):
                return self.decision
        if failure is not None:
            raise failure
        d_roc, t = self.values[0].value - self.values[1].value, ORDERING_TIE_TOL
        row = 0 if d_roc > t else 1 if d_roc < -t else 2
        self.decision = OrderingDecision(self.categories[row], DecisionStage.UNDECIDED,
                                         self.bracket())
        return self.decision


def _block_rungs(block: list[_Pair]) -> None:
    """The first values and the ASCENT rung of the pairs of a block that need
    the robustness, each run once for the block on numpy stacks."""
    states = [rho for pair in block for rho in pair.states]
    first, phases = _first_rocs(states, None)
    for j, pair in enumerate(block):
        pair.start(first[2 * j:2 * j + 2])
    open_pairs = [pair for pair in block if pair.decision is None]
    climbing = [2 * j + i for j, pair in enumerate(block) if pair.decision is None
                for i in pair.climbing()]
    if climbing:
        lo, hi = _ascent_brackets(np.stack([states[k].mat for k in climbing]),
                                  np.stack([phases[k] for k in climbing]))
        for k, low, high in zip(climbing, lo.tolist(), hi.tolist()):
            block[k // 2].tighten(k % 2, low, high)
    for pair in open_pairs:
        pair.settle(DecisionStage.ASCENT)


def ordering_decisions(
    pairs: list[tuple[DensityMatrix, DensityMatrix]]
) -> list[Callable[[], OrderingDecision]]:
    """``values_ordering_violated`` for every measure pair in MEASURE_PAIRS,
    for each pair of states ``(a, b)`` of a block, with the RoC difference
    known only as far as the answer needs. Returns, per pair, a function
    that returns its decision: the rungs that run on the whole block have
    run, and the function runs the pair's own SOLVE rung, if it is still
    open, raising :class:`cohkit.sdp.SolverFailure` there. A single pair is
    decided as a block of one. Every state of a block has one dimension;
    a block that mixes dimensions raises ValueError.

    The l1 and relative-entropy differences come from the values each state
    keeps; given them, the answers depend only on the category of the RoC
    difference (``> t``, ``< -t``, tie, with t = ORDERING_TIE_TOL), so
    :func:`_answer_table` gives each pair one row of answers per category,
    once for the block. One rule settles a pair: each state's RoC is
    bracketed, the difference by ``[lo_a - hi_b, hi_a - lo_b]``, and the pair
    is settled once every category the bracket allows has the same row. The
    first bracket, ``[0, inf)`` per state, settles at SOLVE_FREE exactly the
    pairs that need no robustness (each partner of the RoC difference is a
    tie); the next is each state's first value from :func:`_first_rocs`
    with no tolerance: ``roc``'s closed form for a qubit or pure state, and
    for every other state a PHASE_WITNESS or SOLVE_FREE_BRACKET value, from
    one :func:`_solve_free_rocs` call for the stack of such states.

    The states whose first value is a SOLVE_FREE_BRACKET and whose pair is
    still open then take, as one stack, the phase-ascent bracket of
    :func:`_ascent_brackets` (ASCENT), and each pair is re-decided. Running
    both states' ascents at once settles the same pairs as running the wider
    one first, since a bracket never widens.

    A pair still open climbs the SOLVE rung when its function is called: one
    solve per such state at DEFAULT_ROC_TOL, widest bracket first, whose
    ``accept`` hook intersects each certified iterate's ``[dual - 1, primal -
    1]`` into the state's bracket and ends the solve as soon as the pair is
    settled. Each state reaches the solver at most once. A solve that fails
    to certify keeps what its certified iterates gave; its SolverFailure is
    raised, as solving outright would raise it, only if the pair is still
    open once both states were solved. Each solve that certifies
    counts as an SDP value in ROC_METHOD_COUNTS. A pair still open after
    both full solves is UNDECIDED and takes the row of the category of its
    DEFAULT_ROC_TOL values' difference, exactly as if every value had been
    solved outright. Every pair is decided by these rungs, a pair that the
    sweeps draw again after a solver failure too.
    """
    states = [rho for pair in pairs for rho in pair]
    dims = {rho.dim for rho in states}
    if len(dims) > 1:
        raise ValueError(f"ordering decisions need one dimension per block, got {sorted(dims)}")
    l1 = np.array([_finalize(rho.offdiagonal_abs_sum) for rho in states])
    rel = np.array([_finalize(rho.dephased_entropy_bits - rho.entropy_bits) for rho in states])
    table = _answer_table(l1[::2] - l1[1::2], rel[::2] - rel[1::2])
    block = [_Pair(pair, rows) for pair, rows in zip(pairs, table)]
    _block_rungs([pair for pair in block if pair.decision is None])
    return [pair.decide for pair in block]
