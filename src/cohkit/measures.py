"""Coherence quantifiers in the computational basis.

Three measures are provided:

* l1-norm of coherence: sum of off-diagonal entry moduli.
* relative entropy of coherence: S(dephased rho) - S(rho), in bits.
* robustness of coherence: least admixture weight of any state that makes
  the mixture incoherent. Every RoC value and bracket comes from one
  certified-bracket ladder (docs/roc-sdp.md, "The rung table"). Rung 0 is
  ``roc``'s closed forms, for single qubits and pure states. The other
  states of a block then take, as one numpy stack, the stacked rungs in
  cost order: a rank-one phase witness that certifies RoC = l1 for states
  whose off-diagonal phases factor as u_i conj(u_j), an eigenvector
  bracket and a rank-r ascent over duals Y = V V^dag with unit-row V
  (Burer-Monteiro), whose r and step count are fixed functions of the
  dimension (:func:`_ascent_plan`). The certified SDP, per state, comes
  last.
  :meth:`_Ladder.run` runs one stacked rung on the states it is given and
  intersects the brackets it certifies, and each mode calls the rungs it
  needs in turn. A stacked rung's primal is certified by one rule,
  :func:`_primal`, a Cholesky factorization of its slack, except the
  witness's, which is feasible by diagonal dominance. Value mode (``roc``,
  :func:`subadditivity_gap`) runs the witness, then the SDP on each state
  whose witness fails the solver's gap rule. Decision mode
  (:func:`ordering_decisions`) runs the witness, the eigen bracket on the
  states the witness left open, the ascent on the states of the pairs
  still open, and the SDP on a pair still open, up to the iterate that
  settles it; the eigen bracket and the ascent give brackets, not values.
  A block's brackets are two float arrays, intersected with each rung's
  certified bounds in one pass, and one settle rule, :func:`_settle`,
  decides pairs on arrays: a pair is settled where every category of its
  RoC difference that the bracket allows has the same answers.
  ``ROC_METHOD_COUNTS`` counts the values each rung has given in this
  process, each once, where it is made: the closed forms in ``roc``, the
  rest in :class:`_Ladder`, which also counts each state the eigen bracket
  runs on once as SOLVE_FREE_BRACKET. The ascent counts nothing.

Also here: the change in each measure when an ancilla is appended, the
robustness and sub-additivity gap over qubit marginals of each state of a
block (whose marginals and their closed forms are computed on numpy
stacks), the closed-form robustness candidate for the sigma family, the
measure-ordering test on value differences (elementwise on arrays), and
:func:`ordering_decisions`, which decides that test for a block of pairs of
states by one rule, from RoC brackets tightened only as far as needed.
Every pair is decided as part of a block, also one that a sweep draws
again after a failed solve, as a block of one.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Callable, Sequence
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
# Minorize-maximize steps V <- rows(rho V) of the rank-r ascent bracket at
# d <= 10, the paper's range, where r = 2. Chosen on seeds 7 and 8, which no
# pin uses: on fig2 (d = 2..10, 1000 samples), 6, 8, 10, 12, 16 and 20 steps
# left 117, 80, 57, 36, 20 and 14 pairs to the SDP, and 12 ran fastest.
ASCENT_STEPS = 12


def _ascent_plan(d: int) -> tuple[int, int]:
    """The ascent bracket's rank r and step count at dimension ``d``: rank 2
    and ASCENT_STEPS steps up to d = 10; rank ceil(sqrt(2d)) and 40 steps
    above, where a solve costs far more than a step. Some optimal dual of a
    real state has a rank r with r(r + 1)/2 <= d (docs/roc-sdp.md,
    candidate 5), so ceil(sqrt(2d)) always suffices there."""
    return (2, ASCENT_STEPS) if d <= 10 else (int(np.ceil(np.sqrt(2 * d))), 40)


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
    # a ROC_METHOD_COUNTS key only: the eigen bracket gives brackets, not values
    SOLVE_FREE_BRACKET = "solve_free_bracket"
    SDP = "sdp"
    DIRECT = "direct"


# Methods whose value carries a certificate_gap: it lies in [value, value + gap].
_CERTIFIED = (Method.PHASE_WITNESS, Method.SDP)


# RoC values returned in this process, per Method value; a run reports the change.
ROC_METHOD_COUNTS: Counter[str] = Counter()


class _MeasureFields(NamedTuple):
    value: float
    method: Method
    certificate_gap: float | None = None


class MeasureValue(_MeasureFields):
    """A nonnegative measure value plus how it was obtained.

    ``certificate_gap`` is the nonnegative duality gap of the primal/dual
    pair that brackets the value: the measure lies in ``[value, value + gap]``.
    It is present exactly when the method is PHASE_WITNESS or SDP;
    construction raises ValueError otherwise.

    A named tuple, so immutable and compared by value, whose ``__new__``
    checks that rule: it costs about what a plain tuple does, and ``roc``
    makes one per state.
    """

    __slots__ = ()

    def __new__(cls, value: float, method: Method, certificate_gap: float | None = None):
        if (certificate_gap is not None) != (method in _CERTIFIED):
            raise ValueError("certificate_gap is present iff the method is PHASE_WITNESS or SDP")
        return tuple.__new__(cls, (value, method, certificate_gap))

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


def _unit_rows(r: np.ndarray) -> np.ndarray:
    """Each row r_i / |r_i| of a stack of complex matrices, and e_1 where
    r_i = 0, so that every row is a unit vector. |r_i|^2 sums the squares of
    the real and imaginary parts of r_i in order (one ``einsum``)."""
    norm = np.sqrt(np.einsum("...k,...k->...", r.view(float), r.view(float)))[..., None]
    return np.where(norm > 0, r, np.eye(r.shape[-1])[0]) / np.where(norm > 0, norm, 1.0)


def roc(rho: DensityMatrix, tol: float = DEFAULT_ROC_TOL) -> MeasureValue:
    """Robustness of coherence: the certified-bracket ladder (docs/roc-sdp.md,
    "The rung table") on the state as a block of one, in value mode
    (:class:`_Ladder`). First match wins:

    1. single qubits: the closed form 2|rho_01|;
    2. states that are rank one within PURE_EIG_TOL: the pure-state identity
       with the l1-norm, which the state computes once for this and for
       :func:`l1_coherence`;
    3. the PHASE_WITNESS value of the witness rung, for states whose
       off-diagonal phases factor as u_i conj(u_j), once its pair of
       objectives passes the solver's gap rule at ``tol``;
    4. otherwise the SDP at ``tol``. Raises :class:`cohkit.sdp.SolverFailure`,
       carrying ``rho`` as its ``state``, if the SDP does not certify.

    PHASE_WITNESS and SDP pairs become values by one rule, :func:`_pair_value`:
    the dual objective minus one, with the pair's gap; a shortfall below zero
    that the gap covers reads zero, and a larger one raises ArithmeticError
    below HARD_NEGATIVE_FLOOR. Each value is counted once in
    ROC_METHOD_COUNTS under its method's value, where it is made: the closed
    forms here, the others by :class:`_Ladder`.

    Resolution: every value other than the closed forms is a certified lower
    bound, and the robustness lies in ``[value, value + gap]``, with the gap
    at most ``tol * max(1, primal)``. On the witness path it is rounding (the
    two objectives agree exactly for such states), so the value is RoC = l1
    to rounding, while an SDP value at the default ``tol`` may sit up to
    about 2e-8 low. A caller that needs less than a value runs the ladder
    in decision mode, as :func:`ordering_decisions` does.

    Raises ValueError for a ``tol`` outside (0, 1), whatever the state
    (:func:`cohkit.sdp.check_tol`).
    """
    sdp.check_tol(tol)
    if rho.dim == 2:
        mv = MeasureValue(_finalize(2.0 * float(np.abs(rho.mat[0, 1]))), Method.CLOSED_FORM_QUBIT)
    elif not _bracketed(rho):
        mv = MeasureValue(_finalize(rho.offdiagonal_abs_sum), Method.PURE_STATE_L1)
    else:
        ladder = _Ladder([rho], tol)
        return ladder.values[0] or ladder.solve(0)
    # the member's _value_, as the value property is a Python call and roc runs once per state
    ROC_METHOD_COUNTS[mv.method._value_] += 1
    return mv


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


def _witness(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates 1 and 2 on a stack: the Gershgorin primal, objective
    1 + l1, and the dual Y = u u^dag with u the phases of the column of the
    largest diagonal entry, returned as column 0 of a ``v``-shaped stack
    that is zero elsewhere. Reads no phases."""
    column = np.argmax(m.diagonal(axis1=-2, axis2=-1).real, axis=-1)
    u = _unit_phases(m[np.arange(len(m)), :, column])
    return (np.vecdot(u, _matvec(m, u)).real, np.abs(m).sum(axis=(-2, -1)),
            u[..., None] * np.eye(v.shape[-1])[0])


def _eigen_bracket(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates 3 and 4 on a stack, from one ``eigh`` of O = rho - Diag(rho):
    the dual from the phases u of O's top eigenvector; the primal
    (:func:`_primal`) at d_i = rho_ii + lambda_max(O) + BRACKET_SLACK_SHIFT.
    Returns the ascent's start, shaped as ``v``: O's top eigenvectors,
    largest first, with u in column 0 and each row made a unit vector
    (:func:`_unit_rows`). Reads no phases."""
    idx = np.arange(m.shape[-1])
    off = m.copy()
    off[:, idx, idx] = 0.0
    w, vecs = np.linalg.eigh(off)
    start = vecs[..., ::-1][..., :v.shape[-1]].copy()  # the top r, largest first
    u = start[..., 0] = _unit_phases(vecs[..., -1])
    d = m.diagonal(axis1=-2, axis2=-1).real + (w[:, -1] + BRACKET_SLACK_SHIFT)[:, None]
    return np.vecdot(u, _matvec(m, u)).real, _primal(m, d), _unit_rows(start)


def _ascent(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates 5 and 6 on a stack, from the unit-row ``v`` (n, d, r) the
    eigen rung left.

    Dual: ``_ascent_plan(d)``'s steps of the minorize-maximize step V <-
    rows(rho V) (:func:`_unit_rows`), each one batched product over the
    stack; none can lower tr(V^dag rho V), which is convex in V, and every
    V gives the feasible Y = V V^dag. The best objective seen is the dual;
    the last V is returned. Primal (:func:`_primal`): the
    complementary-slackness point d_i = |(rho V)_i| + c for the last V, with
    c = max(0, -lambda_min(Diag|(rho V)_i| - rho)) + BRACKET_SLACK_SHIFT.
    """
    flat = len(m), -1  # tr(V^dag R) as one dot product per matrix
    r = m @ v
    dual = np.vecdot(v.reshape(flat), r.reshape(flat)).real
    for _ in range(_ascent_plan(m.shape[-1])[1]):
        v = _unit_rows(r)
        r = m @ v
        dual = np.maximum(dual, np.vecdot(v.reshape(flat), r.reshape(flat)).real)
    mod = np.linalg.norm(r, axis=-1)
    c = np.maximum(0.0, -np.linalg.eigvalsh(_diagonal_minus(mod, m))[:, 0])
    d = (mod + c[:, None]) + BRACKET_SLACK_SHIFT
    return dual, _primal(m, d), v


def _primal(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The one certificate rule for a stacked rung's primal point ``d``: per
    matrix of the stack, the objective ``sum_i d_i`` where a Cholesky
    factorization of the slack ``Diag(d) - rho`` succeeds, so that the point
    is feasible, and ``inf`` where it fails.

    One stacked call decides the whole stack unless it raises; the stack is
    then checked one matrix at a time, so each matrix keeps the verdict it
    gets alone.
    """
    try:
        np.linalg.cholesky(_diagonal_minus(d, m))
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.array([np.inf])
        return np.concatenate([_primal(m[k:k + 1], d[k:k + 1]) for k in range(len(m))])
    # summed as C-ordered rows, so each row's sum is its single-matrix sum
    return d.sum(-1)


class _Ladder:
    """A block of states sharing one dimension on the ladder.

    Per state ``k``: ``values[k]``, its value once it has one (a closed
    form, a PHASE_WITNESS value or its SDP value), and its bracket
    ``[lo[k], hi[k]]`` on the robustness, held for the block in the float
    arrays ``lo`` and ``hi``.
    The bracket starts at ``[0, inf)``. Each rung intersects the certified
    ``[dual - 1, primal - 1]`` of every state it runs on into that state's
    bracket, with one ``np.fmax`` and one ``np.fmin`` over the rung's rows,
    which drop a NaN end as ``max`` and ``min`` do; a value a rung gives
    resets the bracket to the value's own ``[value, upper]``. The eigen
    bracket and the ascent give brackets, not values. ``tol`` is the gap
    rule's, for the witness and the SDP.

    Construction runs both modes' common start, which is all of value mode:
    rung 0 gives each qubit or pure state :func:`roc`'s closed form, one
    state at a time; the others, ``stacked`` (their indices, ascending; the
    i-th is row i of the stack ``m`` and of ``u``, the stack of unit-row
    d x r matrices each rung leaves for the next, r from
    :func:`_ascent_plan`), run the
    witness as one stack, which gives a PHASE_WITNESS value to each whose
    two objectives pass the gap rule. Where rung 0 values every state,
    nothing is stacked: ``m`` and ``u`` are None, and neither the witness
    nor the gap rule runs. In value mode a state the witness leaves open
    then takes the SDP (:meth:`solve`); decision mode calls
    :meth:`bracket`, the ascent through :meth:`run`, then :meth:`solve`;
    on no state, :meth:`bracket` and :meth:`run` return at once.
    """

    def __init__(self, states: list[DensityMatrix], tol: float):
        self.states, self.tol = states, tol
        self.values = [None if _bracketed(rho) else roc(rho) for rho in states]
        unvalued = np.array([mv is None for mv in self.values], dtype=bool)
        # a closed form is exact: its bracket is the point [value, value]
        self.lo = np.array([0.0 if mv is None else mv.value for mv in self.values])
        self.hi = np.where(unvalued, np.inf, self.lo)
        self.stacked = np.flatnonzero(unvalued)
        self.m = self.u = None
        if not self.stacked.size:
            return
        self.m = np.array([states[k].mat for k in self.stacked.tolist()])
        self.u = np.zeros((*self.m.shape[:2], _ascent_plan(self.m.shape[-1])[0]), dtype=complex)
        dual, primal = self.run(_witness, self.stacked)
        passed = sdp.passes_gap_rule(primal, dual, tol)
        for k, dl, pr in zip(self.stacked[passed].tolist(), dual[passed].tolist(),
                             primal[passed].tolist()):
            self.give(k, _pair_value(Method.PHASE_WITNESS, dl, pr))

    def run(self, rung: Callable, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the stacked ``rung`` (:func:`_witness`, :func:`_eigen_bracket`
        or :func:`_ascent`) on the stack of the states ``at``, some of
        ``stacked`` in the caller's order, from the unit-row ``u`` the rung
        before left them; intersect the certified ``[dual - 1, primal - 1]``
        into their brackets and return ``(dual, primal)``. An empty ``at`` runs
        nothing and is returned as both."""
        if not at.size:
            return at, at
        rows = np.searchsorted(self.stacked, at)
        dual, primal, self.u[rows] = rung(self.m[rows], self.u[rows])
        self.tighten(at, dual, primal)
        return dual, primal

    def bracket(self) -> None:
        """The eigen-bracket rung on every state the witness left open, in
        order: each keeps the rung's bracket, not a value, and counts once
        under SOLVE_FREE_BRACKET in ROC_METHOD_COUNTS."""
        at = np.array([k for k in self.stacked.tolist() if self.values[k] is None], dtype=int)
        self.run(_eigen_bracket, at)
        ROC_METHOD_COUNTS[Method.SOLVE_FREE_BRACKET.value] += len(at)

    def tighten(self, k: int | np.ndarray, dual: float | np.ndarray,
                primal: float | np.ndarray) -> None:
        """Intersect the certified ``[dual - 1, primal - 1]`` into the bracket
        of state ``k``, or of each state of an index array ``k``."""
        self.lo[k] = np.fmax(self.lo[k], dual - 1.0)
        self.hi[k] = np.fmin(self.hi[k], primal - 1.0)

    def give(self, k: int, mv: MeasureValue) -> None:
        """Make ``mv`` state ``k``'s value and bracket, counted in ROC_METHOD_COUNTS."""
        self.values[k], self.lo[k], self.hi[k] = mv, mv.value, mv.upper
        ROC_METHOD_COUNTS[mv.method.value] += 1

    def widest_first(self, pairs: np.ndarray) -> np.ndarray:
        """Per pair ``j`` of ``pairs``, in order, those of its states ``2j``
        and ``2j + 1`` that have no value yet, widest bracket first, the
        first state on a tie: the states, in order, of decision mode's later
        rungs. An empty ``pairs``, as on every rank-1 block, is returned at
        once."""
        if not pairs.size:
            return pairs
        a = 2 * pairs
        swap = self.lo[a + 1] - self.hi[a + 1] < self.lo[a] - self.hi[a]
        ks = np.stack([a + swap, a + 1 - swap], -1).ravel()
        return ks[[self.values[k] is None for k in ks.tolist()]]

    def solve(self, k: int, settled: Callable[[], bool] | None = None) -> MeasureValue:
        """The SDP rung: state ``k``'s value at ``tol``, counted in
        ROC_METHOD_COUNTS; raises SolverFailure if the solve does not certify.
        Given the caller's ``settled``, each certified iterate's bracket is
        intersected into the state's, and the solve ends at the first after
        which ``settled()`` holds (see :func:`cohkit.sdp.solve`)."""
        rho = self.states[k]
        accept = settled and (lambda mu, primal, dual: self.tighten(k, dual, primal) or settled())
        sol = sdp.solve(sdp.build(rho), tol=self.tol, accept=accept)
        if sol.status not in (sdp.SolveStatus.OPTIMAL, sdp.SolveStatus.ACCEPTED):
            raise sdp.SolverFailure(f"robustness SDP ended with status {sol.status.value} (gap "
                                    f"{sol.gap:.3e} after {sol.iterations} iterations)", state=rho)
        ROC_METHOD_COUNTS[Method.SDP.value] += 1
        self.values[k] = _pair_value(Method.SDP, sol.dual_value, sol.primal_value)
        return self.values[k]


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
    :meth:`DensityMatrix.stack`), its closed form 2|rho_01|, and the
    block's ladder in value mode at DEFAULT_ROC_TOL (:class:`_Ladder`):
    the closed form or phase witness ``roc`` would return. A state's
    function takes that value, or else the SDP at DEFAULT_ROC_TOL, raising
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
    ladder = _Ladder(states, DEFAULT_ROC_TOL)

    def value_and_gap(k: int) -> tuple[float, float]:
        total = ladder.values[k] or ladder.solve(k)
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


# The positions in MeasureKind of the two measures of each pair of MEASURE_PAIRS.
_PAIR_KINDS = np.array([[list(MeasureKind).index(m) for m in pair] for pair in MEASURE_PAIRS]).T
# Per answer code, the answers it stands for: bit i of the code is the
# answer for MEASURE_PAIRS[i].
_ANSWERS = tuple(tuple(bool(code >> i & 1) for i in range(len(MEASURE_PAIRS)))
                 for code in range(2 ** len(MEASURE_PAIRS)))


def _answer_table(d_l1: np.ndarray, d_rel: np.ndarray) -> np.ndarray:
    """Per pair of l1 and relative-entropy differences, per category of the
    RoC difference (above ORDERING_TIE_TOL, below -ORDERING_TIE_TOL, a tie,
    which 1, -1 and 0 stand for), the code of the answers of
    :func:`values_ordering_violated` for the measure pairs in MEASURE_PAIRS,
    taken elementwise on arrays: an integer array of shape ``(n, 3)``, whose
    codes :data:`_ANSWERS` reads."""
    diff = np.empty((len(MeasureKind), len(d_l1), 3))  # per measure, in MeasureKind order
    diff[0], diff[1], diff[2] = d_l1[:, None], d_rel[:, None], (1.0, -1.0, 0.0)
    violated = values_ordering_violated(diff[_PAIR_KINDS[0]], diff[_PAIR_KINDS[1]])
    bits = 1 << np.arange(len(MEASURE_PAIRS))
    return (bits @ violated.reshape(len(MEASURE_PAIRS), -1)).reshape(len(d_l1), 3)


def _settle(codes: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The settle rule, elementwise over pairs: given each pair's answer
    codes per category (a row of :func:`_answer_table`) and a bracket
    ``[low, high]`` on its RoC difference, the categories the bracket allows
    are ``high > t``, ``low < -t`` and the tie, ``low <= t`` and ``high >=
    -t``, with t = ORDERING_TIE_TOL. A pair is settled where at least one
    category is allowed and every allowed one has the same code; the result
    is that code, or -1 where the pair stays open."""
    t = ORDERING_TIE_TOL
    allowed = np.array([high > t, low < -t, (low <= t) & (high >= -t)]).T
    # the least and the greatest allowed code, which meet only where one code is allowed
    least = np.where(allowed, codes, len(_ANSWERS)).min(-1)
    most = np.where(allowed, codes, -1).max(-1)
    return np.where(least == most, most, -1)


class DecisionStage(Enum):
    """Where :func:`ordering_decisions` settled a pair.

    Hashed by identity, which agrees with the members' equality: a sweep
    counts one stage per sample, and Enum's own hash is a Python call."""

    __hash__ = object.__hash__

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


def _finalized(values: np.ndarray) -> np.ndarray:
    """:func:`_finalize` elementwise: ``values`` with each entry in
    [HARD_NEGATIVE_FLOOR, 0) clamped to zero; raises ArithmeticError for an
    entry below the floor."""
    noisy = values < 0.0
    for value in values[noisy].tolist():
        _finalize(value)
    return np.where(noisy, 0.0, values)


def ordering_decisions(
    pairs: list[tuple[DensityMatrix, DensityMatrix]]
) -> list[Callable[[], OrderingDecision]]:
    """``values_ordering_violated`` for every measure pair in MEASURE_PAIRS,
    for each pair of states ``(a, b)`` of a block, with the RoC difference
    known only as far as the answer needs. Returns, per pair, a function
    that returns its decision: the stacked rungs have run on the whole
    block, and the function runs the pair's SDP rung, if it is still open,
    raising :class:`cohkit.sdp.SolverFailure` there. A single pair is
    decided as a block of one. Every state of a block has one dimension;
    a block that mixes dimensions raises ValueError.

    The l1 and relative-entropy differences come from the values each state
    keeps, read as arrays with :func:`_finalize`'s floor and clamp applied
    elementwise; given them, the answers depend only on the category of the
    RoC difference (``> t``, ``< -t``, tie, with t = ORDERING_TIE_TOL), so
    :func:`_answer_table` gives each pair one answer code per category, once
    for the block. One rule, :func:`_settle`, settles pairs, on arrays:
    each state's RoC is bracketed, the difference by ``low = lo_a - hi_b``
    and ``high = hi_a - lo_b``, and a pair is settled where every category
    the bracket allows has the same code. It runs once over the block's
    open pairs at each stacked stage and on one pair inside the SDP rung. A
    pair whose codes are all the same needs no robustness: it is settled at
    SOLVE_FREE on the bracket ``(-inf, inf)``, and its states are never
    measured.

    The states of the other pairs make one :class:`_Ladder`, whose rung 0
    and witness give the closed forms and phase-witness values. Decision
    mode is then four calls: :meth:`_Ladder.bracket` gives every state the
    witness leaves open, by the gap rule at DEFAULT_ROC_TOL, its eigen
    bracket, not a value; each pair is settled on these brackets
    (SOLVE_FREE); :meth:`_Ladder.run` runs the rank-r ascent, as one stack,
    on the states that have no value and whose pair is still open, widest
    bracket first within each pair (:meth:`_Ladder.widest_first`); and
    the pairs still open are settled again (ASCENT). Running both states'
    ascents at once settles the same pairs as running the wider one first,
    since a bracket never widens.

    A pair still open takes the SDP rung when its function is called: one
    solve per such state at DEFAULT_ROC_TOL, widest bracket first, whose
    ``accept`` hook intersects each certified iterate's ``[dual - 1, primal -
    1]`` into the state's bracket and ends the solve as soon as the pair is
    settled. Each state reaches the solver at most once. A solve that fails
    to certify keeps what its certified iterates gave; its SolverFailure is
    raised, as solving outright would raise it, only if the pair is still
    open once both states were solved. Each solve that certifies counts as
    an SDP value in ROC_METHOD_COUNTS. A pair still open after both full
    solves is UNDECIDED and takes the code of the category of its
    DEFAULT_ROC_TOL values' difference, exactly as if every value had been
    solved outright, with its bracket as it stands.
    """
    states = [rho for pair in pairs for rho in pair]
    dims = {rho.dim for rho in states}
    if len(dims) > 1:
        raise ValueError(f"ordering decisions need one dimension per block, got {sorted(dims)}")
    # each state's l1 and relative entropy of coherence, a row per measure
    measured = _finalized(np.array([
        [rho.offdiagonal_abs_sum for rho in states],
        [rho.dephased_entropy_bits - rho.entropy_bits for rho in states]]))
    table = _answer_table(*(measured[:, ::2] - measured[:, 1::2]))
    # a pair with the same answers in every category needs no robustness
    open_ = (table != table[:, :1]).any(-1)
    needed = np.flatnonzero(open_)
    decisions = [None if j else OrderingDecision(_ANSWERS[c], DecisionStage.SOLVE_FREE,
                                                 (-np.inf, np.inf))
                 for j, c in zip(open_.tolist(), table[:, 0].tolist())]
    ladder = _Ladder([rho for j in needed.tolist() for rho in pairs[j]], DEFAULT_ROC_TOL)
    codes = table[needed]

    def settle(at: np.ndarray, stage: DecisionStage, point: np.ndarray | None = None) -> np.ndarray:
        """Settle the open pairs ``at`` of the ladder (pair i is its states
        2i and 2i + 1) by :func:`_settle` at ``stage``, on their brackets or,
        given ``point``, on the RoC differences ``point`` with the brackets
        recorded; the pairs of ``at`` still open."""
        if not at.size:
            return at
        a = 2 * at
        low, high = ladder.lo[a] - ladder.hi[a + 1], ladder.hi[a] - ladder.lo[a + 1]
        code = _settle(codes[at], *((low, high) if point is None else (point, point)))
        done = code >= 0
        for j, c, bracket in zip(needed[at[done]].tolist(), code[done].tolist(),
                                 zip(low[done].tolist(), high[done].tolist())):
            decisions[j] = OrderingDecision(_ANSWERS[c], stage, bracket)
        return at[~done]

    ladder.bracket()
    unsettled = settle(np.arange(len(needed)), DecisionStage.SOLVE_FREE)
    ladder.run(_ascent, ladder.widest_first(unsettled))
    settle(unsettled, DecisionStage.ASCENT)

    def decide(j: int, i: int) -> OrderingDecision:
        """Pair ``j`` of the block, pair ``i`` of the ladder: its decision,
        after its SDP rung if the stacked rungs left it open."""
        if decisions[j] is not None:
            return decisions[j]
        at = np.array([i])
        failure = None
        for k in ladder.widest_first(at).tolist():
            try:
                ladder.solve(k, lambda: not settle(at, DecisionStage.SOLVE).size)
            except sdp.SolverFailure as exc:
                failure = failure or exc
            if decisions[j] is not None:
                return decisions[j]
        if failure is not None:
            raise failure
        a, b = (ladder.values[k].value for k in (2 * i, 2 * i + 1))
        settle(at, DecisionStage.UNDECIDED, np.array([a - b]))
        return decisions[j]

    # each needed pair's position among the ladder's pairs (unread for the others)
    position = np.cumsum(open_) - 1
    return [partial(decide, j, i) for j, i in enumerate(position.tolist())]
