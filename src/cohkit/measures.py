"""Coherence quantifiers in the computational basis.

Three measures are provided:

* l1-norm of coherence: sum of off-diagonal entry moduli.
* relative entropy of coherence: S(dephased rho) - S(rho), in bits.
* robustness of coherence: least admixture weight of any state that makes
  the mixture incoherent. ``roc`` tries, in order: the closed form (single
  qubit), the l1 identity (pure states), the certified primal/dual pairs
  that one helper builds without a solve (a rank-one phase witness that
  certifies RoC = l1 for states whose off-diagonal phases factor as
  u_i conj(u_j), and, when asked for no tolerance, a solve-free bracket),
  and the certified SDP. Witness and SDP pairs become values by one rule.
  ``ROC_METHOD_COUNTS`` counts the values each path has returned in this
  process.

Also here: the change in each measure when an ancilla is appended, the
sub-additivity gap over qubit marginals, the closed-form robustness
candidate for the sigma family, the measure-ordering test on value
differences, and :func:`ordering_decision`, which decides that test for a
pair of states from RoC brackets tightened only as far as needed: the
solve-free bracket ``roc`` returns, then, for a pair it leaves open, a
certified phase-ascent bracket (not a ``roc`` value, so not counted in
``ROC_METHOD_COUNTS``), then one SDP solve per state that stops at the first
certified iterate that settles the pair (counted as an SDP value).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import sdp
from .states import DensityMatrix, check_sigma_params

log = logging.getLogger(__name__)

# Values in [-HARD_NEGATIVE_FLOOR, 0) are numerical noise and clamp to zero;
# anything below is a genuine failure.
HARD_NEGATIVE_FLOOR = -1e-6
# Rank-1 detection for the pure-state shortcut.
PURE_EIG_TOL = 1e-9
# |difference| at or below this counts as a tie when comparing orderings. The
# tie is a property of the true difference: ordering_decision settles which
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


def roc(rho: DensityMatrix, tol: float | None = DEFAULT_ROC_TOL) -> MeasureValue:
    """Robustness of coherence.

    Dispatch, first match wins:

    1. single qubits: the closed form 2|rho_01|;
    2. states that are rank one within PURE_EIG_TOL: the pure-state identity
       with the l1-norm, which the state computes once for this and for
       :func:`l1_coherence`;
    3. a certified pair built without a solve by :func:`_solve_free_roc`: a
       PHASE_WITNESS value for states whose off-diagonal phases factor as
       u_i conj(u_j), and, with ``tol=None`` only, a SOLVE_FREE_BRACKET value
       for every other state;
    4. otherwise the SDP at ``tol``. Raises :class:`cohkit.sdp.SolverFailure`,
       carrying ``rho`` as its ``state``, if the SDP does not certify.

    PHASE_WITNESS and SDP pairs become values by one rule, :func:`_pair_value`:
    the dual objective minus one, with the pair's gap; a shortfall below zero
    that the gap covers reads zero, and a larger one raises ArithmeticError
    below HARD_NEGATIVE_FLOOR. Every value is counted in ROC_METHOD_COUNTS
    under its method's value.

    Resolution: every value other than the closed forms is a certified lower
    bound, and the robustness lies in ``[value, value + gap]``. At a given
    ``tol`` the gap of a PHASE_WITNESS or SDP value is at most
    ``tol * max(1, primal)``; on the witness path it is rounding (the two
    objectives agree exactly for such states), so the value is RoC = l1 to
    rounding, while an SDP value at the default ``tol`` may sit up to about
    2e-8 low. A SOLVE_FREE_BRACKET gap has no such bound; a caller that
    needs less tightens it, as :func:`ordering_decision` does: first with
    the phase-ascent bracket of :func:`_ascent_bracket`, which is not a
    ``roc`` value and so is not counted in ROC_METHOD_COUNTS, then with a
    solve that stops once the pair is settled.
    """
    d = rho.dim
    if d == 2:
        mv = MeasureValue(_finalize(2.0 * float(np.abs(rho.mat[0, 1]))), Method.CLOSED_FORM_QUBIT)
    elif d == 1 or rho.eigenvalues[-2] < PURE_EIG_TOL:
        mv = MeasureValue(_finalize(rho.offdiagonal_abs_sum), Method.PURE_STATE_L1)
    else:
        mv = _solve_free_roc(rho, tol) or _sdp_roc(rho, tol)
    ROC_METHOD_COUNTS[mv.method.value] += 1
    return mv


def _solve_free_roc(rho: DensityMatrix, tol: float | None) -> MeasureValue | None:
    """A certified robustness value built without a solve, or None when the
    state needs the SDP.

    The candidates, in the order of docs/roc-sdp.md ("Certified pairs without
    a solve"):

    1. primal: Gershgorin, d_i = rho_ii + sum_{j != i} |rho_ij|, objective 1 + l1;
    2. dual: Y = u u^dag with u the phases of the column of the largest
       diagonal entry. If the pair passes the solver's own gap rule,
       ``primal - dual <= tol * max(1, primal)`` (DEFAULT_ROC_TOL when ``tol``
       is None), it is a PHASE_WITNESS value. Otherwise a given ``tol``
       returns None, and ``tol=None`` goes on to
    3. dual: the phases of the top eigenvector of O = rho - Diag(rho), from
       the ``eigh`` the state keeps (``offdiagonal_eigh``);
    4. primal: d_i = rho_ii + lambda_max(O) + BRACKET_SLACK_SHIFT, accepted
       once a Cholesky factorization of its slack, lambda_max(O) +
       BRACKET_SLACK_SHIFT on the diagonal and -rho_ij off it, succeeds.

    The better point of each kind so far then makes a SOLVE_FREE_BRACKET value
    ``[max(0, dual - 1), primal - 1]``.
    """
    m = rho.mat
    u = _unit_phases(m[:, int(np.argmax(m.diagonal().real))])
    dual = float(np.vdot(u, m @ u).real)
    primal = float(np.abs(m).sum())
    if primal - dual <= (DEFAULT_ROC_TOL if tol is None else tol) * max(1.0, primal):
        return _pair_value(Method.PHASE_WITNESS, dual, primal)
    if tol is not None:
        return None
    w, v = rho.offdiagonal_eigh
    u = _unit_phases(v[:, -1])
    dual = max(dual, float(np.vdot(u, m @ u).real))
    shift = float(w[-1]) + BRACKET_SLACK_SHIFT
    slack = -m
    np.fill_diagonal(slack, shift)
    primal = min(primal, _certified_primal(slack, float(np.sum(m.diagonal().real + shift))))
    # the upper end primal - 1 is tighter than lo + (primal - dual) for dual < 1
    lo = max(0.0, dual - 1.0)
    return MeasureValue(lo, Method.SOLVE_FREE_BRACKET, certificate_gap=max(0.0, primal - 1.0 - lo))


def _ascent_bracket(rho: DensityMatrix) -> tuple[float, float]:
    """A certified bracket ``[lo, hi]`` on the robustness of a state whose
    solve-free bracket left an ordering decision open (docs/roc-sdp.md,
    candidates 5 and 6).

    Dual: from the phases u of the top eigenvector of O = rho - Diag(rho)
    (the ``eigh`` the state keeps, which :func:`_solve_free_roc` took
    already), ASCENT_STEPS minorize-maximize steps u <- phases(rho u); none
    can lower u^dag rho u, which is convex in u. The best value seen is the
    lower end.
    Primal: the complementary-slackness point d_i = |(rho u)_i| + c for the
    last u, with c = max(0, -lambda_min(Diag|rho u| - rho)) +
    BRACKET_SLACK_SHIFT, used only once a Cholesky factorization of its slack
    succeeds; otherwise ``hi`` is infinite.
    """
    m = rho.mat
    u = _unit_phases(rho.offdiagonal_eigh[1][:, -1])
    r = m @ u
    dual = float(np.vdot(u, r).real)
    for _ in range(ASCENT_STEPS):
        u = _unit_phases(r)
        r = m @ u
        dual = max(dual, float(np.vdot(u, r).real))
    mod = np.abs(r)
    d = mod + max(0.0, -float(np.linalg.eigvalsh(np.diag(mod) - m)[0])) + BRACKET_SLACK_SHIFT
    return max(0.0, dual - 1.0), _certified_primal(np.diag(d) - m, float(d.sum())) - 1.0


def _certified_primal(slack: np.ndarray, objective: float) -> float:
    """``objective`` when a Cholesky factorization of the primal point's
    ``slack`` succeeds, so the point is feasible; infinity otherwise."""
    try:
        np.linalg.cholesky(slack)
    except np.linalg.LinAlgError:
        return np.inf
    return objective


def _sdp_roc(rho: DensityMatrix, tol: float, accept=None) -> MeasureValue:
    """The SDP value of ``rho`` at ``tol``, or at the iterate ``accept`` took
    (see :func:`cohkit.sdp.solve`); raises SolverFailure otherwise."""
    sol = sdp.solve(sdp.build(rho), tol=tol, accept=accept)
    if sol.status not in (sdp.SolveStatus.OPTIMAL, sdp.SolveStatus.ACCEPTED):
        raise sdp.SolverFailure(
            f"robustness SDP ended with status {sol.status.value} "
            f"(gap {sol.gap:.3e} after {sol.iterations} iterations)",
            state=rho,
        )
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


def subadditivity_gap(rho: DensityMatrix) -> float:
    """Robustness of the joint state minus the sum over its qubit marginals.

    Negative values mean the joint state is sub-additive. Requires an
    all-qubit factorization.
    """
    if not rho.dims or any(d != 2 for d in rho.dims):
        raise ValueError(f"sub-additivity gap needs an all-qubit factorization, got dims={rho.dims}")
    total = roc(rho).value
    marginal_sum = sum(roc(rho.marginal(i)).value for i in range(len(rho.dims)))
    return total - marginal_sum


def theorem1_closed_form(n: int, k: float) -> float:
    """Tabulated closed-form robustness candidate k(1 - 2^-n) for the sigma family.

    The ``theorem1`` experiment compares the certified SDP value against this
    expression and reports the difference; see docs/roc-sdp.md, which derives
    the optimum of the program for this family (the two do not agree).
    """
    check_sigma_params(n, k)
    return k * (1.0 - 2.0 ** (-n))


def values_ordering_violated(d1: float, d2: float) -> bool:
    """True when measure differences d1 = m1(a) - m1(b) and d2 = m2(a) - m2(b)
    rank the pair (a, b) in opposite orders.

    Differences of magnitude at most ORDERING_TIE_TOL under either measure
    count as ties, never as violations. Given d1, the answer depends only on
    the category of d2 (above ORDERING_TIE_TOL, below -ORDERING_TIE_TOL, or
    a tie), which is what lets :func:`ordering_decision` settle it from a
    bracket on d2.
    """
    if abs(d1) <= ORDERING_TIE_TOL or abs(d2) <= ORDERING_TIE_TOL:
        return False
    return d1 * d2 < -(ORDERING_TIE_TOL**2)


class DecisionStage(Enum):
    """Where :func:`ordering_decision` settled a pair."""

    SOLVE_FREE = "solve_free"
    ASCENT = "ascent"
    SOLVE = "solve"
    UNDECIDED = "undecided"


@dataclass(frozen=True, slots=True)
class OrderingDecision:
    """Per measure pair, whether it ranks (a, b) oppositely; the stage that
    settled it; and the final bracket on RoC(a) - RoC(b) (infinite when the
    robustness was not needed)."""

    violated: tuple[bool, ...]
    stage: DecisionStage
    roc_difference: tuple[float, float]


def ordering_decision(a: DensityMatrix, b: DensityMatrix, staged: bool = True) -> OrderingDecision:
    """``values_ordering_violated`` for every pair in MEASURE_PAIRS, with the RoC
    difference known only as far as the answer needs.

    The l1 and relative-entropy differences are computed outright. When no
    measure pair needs the robustness (its partner difference is a tie), the
    pair is settled at SOLVE_FREE without one. Otherwise each state's RoC is
    bracketed, first by ``roc(tol=None)``, and the difference by ``[lo_a -
    hi_b, hi_a - lo_b]``; the pair is settled once every category of the
    difference (``> t``, ``< -t``, tie, with t = ORDERING_TIE_TOL) that the
    bracket allows gives the same answers.

    The states whose first value is a SOLVE_FREE_BRACKET then climb two
    rungs, the widest bracket first at each, re-deciding after each step:
    the phase-ascent bracket of :func:`_ascent_bracket` (ASCENT), then one
    solve at DEFAULT_ROC_TOL (SOLVE) whose ``accept`` hook intersects each
    certified iterate's ``[dual - 1, primal - 1]`` into the state's bracket
    and ends the solve as soon as the pair is settled. A bracket never
    widens, and each state reaches the solver at most once. A solve that
    fails to certify keeps what its certified iterates gave; its
    :class:`cohkit.sdp.SolverFailure` is raised, as solving outright would
    raise it, only if the pair is still open once both states were solved.
    Each staged solve that certifies counts as an SDP value in
    ROC_METHOD_COUNTS. A pair still open after both full solves is UNDECIDED
    and answered by ``values_ordering_violated`` on the DEFAULT_ROC_TOL
    values, exactly as if every value had been solved outright.

    With ``staged=False`` the robustness values, when they matter, are
    solved outright at DEFAULT_ROC_TOL, so no state climbs a rung and the
    pair is SOLVE or UNDECIDED. The sweeps decide a redrawn pair this way,
    so that a draw whose solve failed is never replaced by one that needs no
    solve.
    """
    diff = {
        kind: compute_measure(kind, a).value - compute_measure(kind, b).value
        for kind in (MeasureKind.L1, MeasureKind.REL_ENTROPY)
    }
    # per pair, the two known differences, with None for the RoC difference
    known = [(diff.get(m), diff.get(w)) for m, w in MEASURE_PAIRS]

    def answers(d_roc: float) -> tuple[bool, ...]:
        return tuple(
            values_ordering_violated(d_roc if d1 is None else d1, d_roc if d2 is None else d2)
            for d1, d2 in known
        )

    t = ORDERING_TIE_TOL
    # a pair compares the RoC difference with a known one, which, if a tie,
    # makes the pair a tie whatever the RoC difference is
    partners = [d2 if d1 is None else d1 for d1, d2 in known if None in (d1, d2)]
    if all(d is None or abs(d) <= t for d in partners):
        return OrderingDecision(answers(0.0), DecisionStage.SOLVE_FREE, (-np.inf, np.inf))

    states = (a, b)
    values = [roc(rho, tol=None if staged else DEFAULT_ROC_TOL) for rho in states]
    lo = [mv.value for mv in values]
    hi = [mv.upper for mv in values]
    first = DecisionStage.SOLVE_FREE if staged else DecisionStage.SOLVE
    if lo == hi:  # both values exact, e.g. pure states: the difference is known
        return OrderingDecision(answers(lo[0] - lo[1]), first, (lo[0] - hi[1], hi[0] - lo[1]))

    # the answers for an RoC difference in each category: above t, below -t, tie
    above, below, tie = answers(1.0), answers(-1.0), answers(0.0)

    def decided(stage: DecisionStage) -> OrderingDecision | None:
        low, high = lo[0] - hi[1], hi[0] - lo[1]
        allowed = ((above, high > t), (below, low < -t), (tie, low <= t and high >= -t))
        found = {answer for answer, ok in allowed if ok}
        return OrderingDecision(found.pop(), stage, (low, high)) if len(found) == 1 else None

    def tighten(i: int, low: float, high: float, stage: DecisionStage) -> OrderingDecision | None:
        lo[i], hi[i] = max(lo[i], low), min(hi[i], high)
        return decided(stage)

    if decision := decided(first):
        return decision
    climbing = [i for i in (0, 1) if values[i].method is Method.SOLVE_FREE_BRACKET]
    for i in sorted(climbing, key=lambda i: lo[i] - hi[i]):
        if decision := tighten(i, *_ascent_bracket(states[i]), DecisionStage.ASCENT):
            return decision
    failure = None
    for i in sorted(climbing, key=lambda i: lo[i] - hi[i]):
        def accept(mu: float, primal: float, dual: float, i: int = i) -> bool:
            return tighten(i, dual - 1.0, primal - 1.0, DecisionStage.SOLVE) is not None

        try:
            values[i] = _sdp_roc(states[i], DEFAULT_ROC_TOL, accept)
        except sdp.SolverFailure as exc:
            failure = failure or exc
        else:
            ROC_METHOD_COUNTS[Method.SDP.value] += 1
        if decision := decided(DecisionStage.SOLVE):
            return decision
    if failure is not None:
        raise failure
    d_roc = values[0].value - values[1].value
    return OrderingDecision(answers(d_roc), DecisionStage.UNDECIDED, (lo[0] - hi[1], hi[0] - lo[1]))
