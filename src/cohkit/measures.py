"""Coherence quantifiers in the computational basis.

Three measures are provided:

* l1-norm of coherence: sum of off-diagonal entry moduli.
* relative entropy of coherence: S(dephased rho) - S(rho), in bits.
* robustness of coherence: least admixture weight of any state that makes
  the mixture incoherent; computed by closed form (single qubit), the
  l1 identity (pure states), or the certified SDP otherwise.

Also here: the sub-additivity gap over qubit marginals, the closed-form
robustness candidate for the sigma family, and the measure-ordering test on
value differences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import sdp
from .states import DensityMatrix

log = logging.getLogger(__name__)

# Values in [-HARD_NEGATIVE_FLOOR, 0) are numerical noise and clamp to zero;
# anything below is a genuine failure.
HARD_NEGATIVE_FLOOR = -1e-6
# Eigenvalues at or below this contribute nothing to entropies.
ENTROPY_EIG_FLOOR = 1e-12
# Rank-1 detection for the pure-state shortcut.
PURE_EIG_TOL = 1e-9
# |difference| at or below this counts as a tie when comparing orderings,
# chosen above the SDP gap tolerance so solver noise cannot create violations.
ORDERING_TIE_TOL = 1e-7


class MeasureKind(Enum):
    L1 = "l1"
    REL_ENTROPY = "rel_entropy"
    ROC = "roc"


class Method(Enum):
    CLOSED_FORM_QUBIT = "closed_form_qubit"
    PURE_STATE_L1 = "pure_state_l1"
    SDP = "sdp"
    DIRECT = "direct"


@dataclass(frozen=True)
class MeasureValue:
    """A nonnegative measure value plus how it was obtained.

    ``certificate_gap`` is the solver's duality gap and is present exactly
    when the value came from the SDP.
    """

    value: float
    method: Method
    certificate_gap: float | None = None

    def __post_init__(self):
        if (self.certificate_gap is not None) != (self.method is Method.SDP):
            raise ValueError("certificate_gap is present iff the method is SDP")


def _finalize(value: float) -> float:
    if value < HARD_NEGATIVE_FLOOR:
        raise ArithmeticError(f"measure value {value} below the numerical-noise floor")
    if value < 0.0:
        log.debug("clamping tiny negative measure value %.3e to zero", value)
        return 0.0
    return value


def l1_coherence(rho: DensityMatrix) -> MeasureValue:
    """Sum of |rho_ij| over i != j."""
    m = rho.mat
    total = float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))
    return MeasureValue(_finalize(total), Method.DIRECT)


def _entropy_bits(eigs: np.ndarray) -> float:
    w = eigs[eigs > ENTROPY_EIG_FLOOR]
    return float(-np.sum(w * np.log2(w)))


def rel_entropy_coherence(rho: DensityMatrix) -> MeasureValue:
    """S(diag(rho)) - S(rho) with base-2 logarithms."""
    diag = np.real(np.diag(rho.mat)).copy()
    s_dephased = _entropy_bits(diag)
    s_rho = _entropy_bits(rho.eigenvalues)
    return MeasureValue(_finalize(s_dephased - s_rho), Method.DIRECT)


def roc(rho: DensityMatrix, tol: float = 1e-8) -> MeasureValue:
    """Robustness of coherence.

    Dispatch: single qubits use the closed form 2|rho_01|; states that are
    rank one within PURE_EIG_TOL use the pure-state identity with the
    l1-norm; everything else goes through the SDP, reporting the dual
    (lower-bound) objective minus one together with the duality gap.
    Raises :class:`cohkit.sdp.SolverFailure`, carrying ``rho`` as its
    ``state``, if the SDP does not certify.

    Resolution: an SDP value is a certified lower bound on the robustness,
    short of it by at most the gap, which is at most ``tol * max(1, primal)``
    with ``primal = value + 1 + gap``. A difference of two such values is
    therefore off by at most twice that, which at the default ``tol`` stays
    below ORDERING_TIE_TOL = 1e-7 while the robustness is below 4.
    """
    d = rho.dim
    if d == 2:
        return MeasureValue(_finalize(2.0 * float(np.abs(rho.mat[0, 1]))), Method.CLOSED_FORM_QUBIT)
    if d == 1 or rho.eigenvalues[-2] < PURE_EIG_TOL:
        return MeasureValue(l1_coherence(rho).value, Method.PURE_STATE_L1)
    sol = sdp.solve(sdp.build(rho), tol=tol)
    if sol.status is not sdp.SolveStatus.OPTIMAL:
        raise sdp.SolverFailure(
            f"robustness SDP ended with status {sol.status.value} "
            f"(gap {sol.gap:.3e} after {sol.iterations} iterations)",
            solution=sol,
            state=rho,
        )
    return MeasureValue(_finalize(sol.dual_value - 1.0), Method.SDP, certificate_gap=sol.gap)


def compute_measure(kind: MeasureKind, rho: DensityMatrix, tol: float = 1e-8) -> MeasureValue:
    if kind is MeasureKind.L1:
        return l1_coherence(rho)
    if kind is MeasureKind.REL_ENTROPY:
        return rel_entropy_coherence(rho)
    return roc(rho, tol=tol)


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
    if int(n) != n or n < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n}")
    kmax = 1.0 / (2**n - 1)
    if not -1e-12 <= k <= kmax + 1e-12:
        raise ValueError(f"mixing parameter k={k} outside [0, {kmax}]")
    return k * (1.0 - 2.0 ** (-n))


def values_ordering_violated(d1: float, d2: float) -> bool:
    """True when measure differences d1 = m1(a) - m1(b) and d2 = m2(a) - m2(b)
    rank the pair (a, b) in opposite orders.

    Differences of magnitude at most ORDERING_TIE_TOL under either measure
    count as ties, never as violations.
    """
    if abs(d1) <= ORDERING_TIE_TOL or abs(d2) <= ORDERING_TIE_TOL:
        return False
    return d1 * d2 < -(ORDERING_TIE_TOL**2)
