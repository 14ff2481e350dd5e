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

The solver is the infeasible-start primal-dual interior-point method of
Helmberg, Rendl, Vanderbei and Wolkowicz (SIAM J. Optim. 6, 1996) on the pair
S = diag(d) - rho >= 0, Y >= 0 with diag(Y) = 1. Each iteration solves the
linearized central-path condition S Y = sigma*mu*I (mu = tr(SY)/d) in the
HRVW/XZ direction: with dS = diag(dd),

    M dd = Re diag(S^-1 (sigma*mu*I - dS_aff dY_aff)) - 1,   M = Re(S^-1 o Y^T),
    dY   = Herm(S^-1 (sigma*mu*I - dS_aff dY_aff - dS Y)) - Y,

so that diag(Y + dY) = 1 even when rounding has moved diag(Y) off 1. M is
d x d positive definite (Schur product of two PD matrices), and the
second-order term dS_aff dY_aff is zero in the predictor. Mehrotra's
predictor-corrector sets sigma = (mu_aff/mu)^3 from the predictor's step;
one Cholesky factorization of M serves both solves. Each step goes
STEP_TO_BOUNDARY of the way to the PSD boundary, found from the smallest
eigenvalue of L^-1 dX L^-H with X = L L^H.

The start d0 = diag(rho) + lambda_max + 1/d, Y0 = I is strictly feasible:
diag(rho) + lambda_max I - rho >= 0 for every density matrix, so S0 >= I/d.
Every iterate is certified: Y rescaled to unit diagonal is dual feasible, and
the solve stops once primal - dual <= tol * max(1, primal).
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


def _lapack(dtype) -> tuple:
    proto = np.empty((1, 1), dtype=dtype)
    pencil_eig = "hegv" if proto.dtype.kind == "c" else "sygv"
    return get_lapack_funcs(("potrf", "trtri", pencil_eig), (proto,))


_REAL, _COMPLEX = _lapack(float), _lapack(complex)
_POTRF_M, _POTRS_M = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))

# Fraction of the way to the PSD boundary that each step may go.
STEP_TO_BOUNDARY = 0.95


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    NUMERICAL_FAILURE = "numerical_failure"


class SolverFailure(RuntimeError):
    """A solve ended without an optimality certificate for the input ``state``."""

    def __init__(
        self, message: str, solution: RocSolution | None = None, state: DensityMatrix | None = None
    ):
        super().__init__(message)
        self.solution = solution
        self.state = state


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


def solve(
    problem: RocSdp,
    tol: float = 1e-8,
    max_iter: int = 200,
    verbose: bool = False,
    trace_to: TextIO | None = None,
) -> RocSolution:
    """Run the primal-dual method until the relative duality gap is below ``tol``.

    Returns a solution whose status is OPTIMAL on convergence, MAX_ITER with
    the last iterate when ``max_iter`` Schur factorizations are spent, or
    NUMERICAL_FAILURE (with the last certified iterate) if a Cholesky
    factorization of S, Y or M breaks down. ``iterations`` counts Schur
    factorizations. When ``verbose`` (or an explicit ``trace_to`` stream) is
    set, one CSV row ``mu,primal,dual,gap`` is emitted per iterate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    trace = trace_to if trace_to is not None else (sys.stderr if verbose else None)
    if trace is not None:
        trace.write("mu,primal,dual,gap\n")

    rho = problem.rho.mat
    if np.max(np.abs(rho.imag)) == 0.0:
        rho = np.ascontiguousarray(rho.real)
        potrf, trtri, pencil_eig = _REAL
    else:
        potrf, trtri, pencil_eig = _COMPLEX
    d = problem.rho.dim
    neg_rho = -rho

    def max_step(x: np.ndarray, dx: np.ndarray) -> float:
        # X + a*dX >= 0 iff 1 + a*lam >= 0 for every eigenvalue lam of L^-1 dX L^-H,
        # i.e. of the pencil dX v = lam X v. A failed eigensolve cannot break the
        # certificate: the next iterate is factorized before it is used.
        lam = pencil_eig(dx, x, jobz="N")[0][0]
        return 1.0 if lam >= -STEP_TO_BOUNDARY else -STEP_TO_BOUNDARY / lam

    eye = np.eye(d)
    dvec = np.real(np.diag(rho)) + float(problem.rho.eigenvalues[-1]) + 1.0 / d
    Y = eye.astype(rho.dtype)
    minus_ones = -np.ones(d)
    iters = 0
    status = SolveStatus.MAX_ITER
    best = (dvec, None, float(dvec.sum()), -np.inf)

    while True:
        S = neg_rho + eye * dvec
        ls, info_s = potrf(S, lower=1, clean=1)
        _, info_y = potrf(Y, lower=1, clean=0)
        if info_s != 0 or info_y != 0:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        # S and Y are positive definite, so Y rescaled to unit diagonal is a dual
        # feasible point: its objective sum_ij Re(conj(Y_ij) rho_ij) / sqrt(y_i y_j)
        y = Y.diagonal().real
        scale = 1.0 / np.sqrt(y)
        primal = float(dvec.sum())
        dual = float(scale @ np.real(Y.conj() * rho) @ scale)
        best = (dvec, Y, primal, dual)
        mu = float(np.real(np.vdot(S, Y))) / d
        if trace is not None:
            trace.write(f"{mu!r},{primal!r},{dual!r},{primal - dual!r}\n")
        if primal - dual <= tol * max(1.0, primal):
            status = SolveStatus.OPTIMAL
            break
        if iters >= max_iter:
            break

        li_s, _ = trtri(ls, lower=1)
        s_inv = li_s.conj().T @ li_s
        lm, info = _POTRF_M(np.real(s_inv * Y.T), lower=1)
        if info != 0:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        iters += 1

        # predictor (sigma = 0)
        dd_aff = _POTRS_M(lm, minus_ones, lower=1)[0]
        g = s_inv @ (dd_aff[:, None] * Y)
        dy_aff = -0.5 * (g + g.conj().T) - Y
        a_p = max_step(S, eye * dd_aff)
        a_d = max_step(Y, dy_aff)
        # mu after the predictor step, from tr(S dY_aff) = -dd_aff.y - d*mu
        # and diag(dY_aff) = 1 - y
        dd_y = float(dd_aff @ y)
        mu_aff = mu + (a_p * dd_y - a_d * (dd_y + d * mu) + a_p * a_d * float(dd_aff @ (1.0 - y))) / d
        sigma_mu = (mu_aff / mu) ** 3 * mu

        # corrector: same Schur factor, second-order term dS_aff dY_aff added
        rhs = sigma_mu * s_inv.diagonal().real - np.real(s_inv * dy_aff.T) @ dd_aff - 1.0
        dd = _POTRS_M(lm, rhs, lower=1)[0]
        g = s_inv @ (dd_aff[:, None] * dy_aff + dd[:, None] * Y)
        dy = sigma_mu * s_inv - 0.5 * (g + g.conj().T) - Y
        dvec = dvec + max_step(S, eye * dd) * dd
        Y = Y + max_step(Y, dy) * dy

    dvec, Y, primal, dual = best
    witness = None
    if Y is not None:
        scale = 1.0 / np.sqrt(Y.diagonal().real)
        witness = Y * np.outer(scale, scale)
    return RocSolution(
        primal_diag=dvec,
        dual_witness=witness,
        primal_value=primal,
        dual_value=dual,
        gap=primal - dual,
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
