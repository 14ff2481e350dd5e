"""Certified interior-point solver for the robustness-of-coherence program.

The robustness of a state rho is the least s >= 0 such that some state tau
makes (rho + s*tau)/(1+s) diagonal. Writing the diagonal target as D/(1+s)
with D = diag(d) >= rho and tr(D) = 1+s turns this into a semidefinite
program over the d real diagonal entries:

    primal:  minimize  sum_i d_i   subject to  diag(d) - rho >= 0,

with robustness = optimum - 1. Lagrangian duality (multiplier Y >= 0 for the
matrix inequality; stationarity forces unit diagonal on Y) gives

    dual:    maximize  tr(rho Y)   subject to  Y >= 0, diag(Y) = 1,

again with robustness = optimum - 1. Any feasible primal/dual pair sandwiches
the optimum, so the gap between the two objectives is a correctness
certificate. See docs/roc-sdp.md for the full derivation and worked examples.

The solver follows the central path of the primal log-det barrier

    f_mu(d) = sum_i d_i - mu * logdet(diag(d) - rho),

driving mu -> 0 with damped Newton steps. The gradient and Hessian are
available in closed form from W = (diag(d) - rho)^{-1}:

    grad_i = 1 - mu * W_ii,      hess_ij = mu * |W_ij|^2,

and the Hessian is positive semidefinite (Schur product of W with its
conjugate). At a mu-centered point, mu*W is nearly unit-diagonal and PSD;
rescaling it to exact unit diagonal yields a strictly feasible dual matrix,
whose objective certifies the current gap (~ mu * dimension).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import linalg
from .states import DensityMatrix

_POTRF_R, _POTRI_R = get_lapack_funcs(("potrf", "potri"), (np.empty((1, 1)),))
_POTRF_C, _POTRI_C = get_lapack_funcs(("potrf", "potri"), (np.empty((1, 1), dtype=complex),))

# Strictly feasible start: d0 = diag(rho) + ||rho||_2 keeps diag(d0) - rho
# positive definite for any density matrix with nonsingular diagonal.
MU_INITIAL = 1.0
MU_SHRINK = 0.2
# Newton decrement^2 (relative to mu) below which a point counts as centered;
# loose along the path, tight once the certificate could close the gap.
CENTER_TOL_PATH = 0.25
CENTER_TOL_FINAL = 5e-3


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    NUMERICAL_FAILURE = "numerical_failure"


class SolverFailure(RuntimeError):
    """A solve ended without an optimality certificate."""

    def __init__(self, message: str, solution: "RocSolution | None" = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class RocSdp:
    """Problem data for one robustness computation."""

    rho: DensityMatrix


@dataclass(frozen=True)
class RocSolution:
    """Primal/dual iterate pair with its self-certified duality gap.

    ``primal_value - 1`` upper-bounds the robustness, ``dual_value - 1``
    lower-bounds it; ``gap`` is their difference. ``dual_witness`` is the
    unit-diagonal PSD matrix achieving ``dual_value`` (the optimal one acts
    as a coherence witness).
    """

    primal_diag: np.ndarray
    dual_witness: np.ndarray | None
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    status: SolveStatus


@dataclass(frozen=True)
class CertificateReport:
    """Independently recomputed feasibility residuals for a solution."""

    primal_feasibility_violation: float
    dual_feasibility_violation: float
    gap: float


def build(rho: DensityMatrix) -> RocSdp:
    """Assemble the robustness program for a density matrix."""
    return RocSdp(rho=rho)


def _slack(neg_rho: np.ndarray, dvec: np.ndarray, step: int) -> np.ndarray:
    s = neg_rho.copy()
    s.flat[::step] += dvec
    return s


def solve(
    problem: RocSdp,
    tol: float = 1e-8,
    max_iter: int = 200,
    verbose: bool = False,
    trace_to: TextIO | None = None,
) -> RocSolution:
    """Run the barrier method until the relative duality gap is below ``tol``.

    Returns a solution whose status is OPTIMAL on convergence, MAX_ITER with
    the best iterate when the Newton budget runs out, or NUMERICAL_FAILURE if
    a factorization breaks down. When ``verbose`` (or an explicit
    ``trace_to`` stream) is set, one CSV row ``mu,primal,dual,gap`` is
    emitted per outer iteration.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    trace = trace_to if trace_to is not None else (sys.stderr if verbose else None)
    if trace is not None:
        trace.write("mu,primal,dual,gap\n")

    rho = problem.rho.mat
    if np.max(np.abs(rho.imag)) == 0.0:
        rho = np.ascontiguousarray(rho.real)
        potrf, potri = _POTRF_R, _POTRI_R
        complex_input = False
    else:
        potrf, potri = _POTRF_C, _POTRI_C
        complex_input = True
    d = problem.rho.dim
    step = d + 1
    neg_rho = -rho
    diag_rho = np.real(np.diag(rho)).copy()

    spectral = float(problem.rho.eigenvalues[-1])
    dvec = diag_rho + spectral
    chol, info = potrf(_slack(neg_rho, dvec, step), lower=1, clean=0)
    bump = max(spectral, 1.0) * 1e-12
    while info != 0:
        dvec = dvec + bump
        bump *= 8
        chol, info = potrf(_slack(neg_rho, dvec, step), lower=1, clean=0)
    logdet = 2.0 * float(np.sum(np.log(np.real(chol.flat[::step]))))

    mu = MU_INITIAL
    iters = 0
    primal = float(dvec.sum())
    dual = -np.inf
    gap = np.inf
    witness: np.ndarray | None = None
    status = SolveStatus.MAX_ITER
    last_W: np.ndarray | None = None
    last_diag_W: np.ndarray | None = None

    def certificate(W: np.ndarray, diag_W: np.ndarray) -> tuple[np.ndarray, float]:
        # mu cancels in the rescale; written out to mirror Y = mu * slack^-1
        scale = 1.0 / np.sqrt(mu * diag_W)
        Y = (mu * W) * np.outer(scale, scale)
        return Y, float(np.real(np.vdot(Y, rho)))

    while iters < max_iter and mu > 1e-300:
        w, info = potri(chol, lower=1)
        if info != 0:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        if complex_input:
            W = w + w.conj().T
        else:
            W = w + w.T
        W.flat[::step] -= np.real(w.flat[::step])
        diag_W = np.real(W.flat[::step]).copy()
        last_W, last_diag_W = W, diag_W

        grad = 1.0 - mu * diag_W
        hess = np.abs(W)
        np.multiply(hess, hess, out=hess)
        try:
            dx = np.linalg.solve(hess, grad / mu)
        except np.linalg.LinAlgError:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        dec2 = float(grad @ dx)

        primal = float(dvec.sum())
        near_target = mu * d <= 50.0 * tol * max(1.0, primal)
        center_tol = CENTER_TOL_FINAL if near_target else CENTER_TOL_PATH
        if dec2 <= center_tol * mu:
            # centered for the current mu: certify, then continue down the path
            if near_target or trace is not None:
                witness, dual = certificate(W, diag_W)
                gap = primal - dual
                if trace is not None:
                    trace.write(f"{mu!r},{primal!r},{dual!r},{gap!r}\n")
                if gap <= tol * max(1.0, primal):
                    status = SolveStatus.OPTIMAL
                    break
            mu *= MU_SHRINK
            continue

        f0 = primal - mu * logdet
        t = 1.0
        accepted = False
        while t > 1e-14:
            cand = dvec - t * dx
            chol2, info = potrf(_slack(neg_rho, cand, step), lower=1, clean=0)
            if info == 0:
                logdet2 = 2.0 * float(np.sum(np.log(np.real(chol2.flat[::step]))))
                if float(cand.sum()) - mu * logdet2 <= f0 - 0.25 * t * dec2:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        dvec, chol, logdet = cand, chol2, logdet2
        iters += 1

    primal = float(dvec.sum())
    if status is not SolveStatus.OPTIMAL and witness is None and last_W is not None:
        witness, dual = certificate(last_W, last_diag_W)
        gap = primal - dual
    return RocSolution(
        primal_diag=dvec,
        dual_witness=witness,
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        iterations=iters,
        status=status,
    )


def verify_certificates(sol: RocSolution, rho: DensityMatrix) -> CertificateReport:
    """Recompute feasibility residuals and the gap from scratch.

    Uses only eigendecompositions, independently of the solver internals:
    primal violation is the negative part of the smallest slack eigenvalue,
    dual violation the larger of the witness's negative-eigenvalue part and
    its worst diagonal deviation from 1.
    """
    if sol.dual_witness is None:
        raise ValueError("solution carries no dual witness to verify")
    slack = np.diag(sol.primal_diag).astype(complex) - rho.mat
    primal_violation = max(0.0, -float(linalg.hermitian_eig(slack).eigenvalues[0]))
    w_eigs = linalg.hermitian_eig(sol.dual_witness).eigenvalues
    diag_dev = float(np.max(np.abs(np.real(np.diag(sol.dual_witness)) - 1.0)))
    dual_violation = max(max(0.0, -float(w_eigs[0])), diag_dev)
    gap = float(np.sum(sol.primal_diag)) - float(np.real(np.vdot(sol.dual_witness, rho.mat)))
    return CertificateReport(
        primal_feasibility_violation=primal_violation,
        dual_feasibility_violation=dual_violation,
        gap=gap,
    )
