"""Sampled checks that the three quantifiers behave like coherence measures.

Each check draws random instances and reports the worst violation it saw
against a fixed tolerance. Covered: vanishing on incoherent states,
invariance under incoherent unitaries (permutations composed with diagonal
phases), convexity under mixing, additivity over direct sums weighted by
their probabilities, super-additivity of robustness on two-qubit pure
states, invariance under appending an incoherent ancilla, the robustness
<= l1 bound, and sub-additivity of robustness across the sigma family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (
    MeasureKind,
    compute_measure,
    l1_coherence,
    roc,
    subadditivity_gap,
)
from .states import (
    DensityMatrix,
    dephase,
    haar_random_pure,
    pure_density,
    random_density,
    sigma_family,
    sigma_kmax,
)

ALL_KINDS = (MeasureKind.L1, MeasureKind.REL_ENTROPY, MeasureKind.ROC)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checked: int
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


def _rand_dim(rng: np.random.Generator, lo: int = 2, hi: int = 8) -> int:
    return int(rng.integers(lo, hi + 1))


def check_vanishes_on_incoherent(samples: int = 100, seed: int = 0) -> PropertyResult:
    """All measures are zero on dephased states."""
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(samples):
        d = _rand_dim(rng)
        rho = dephase(random_density(d, d, rng))
        for kind in ALL_KINDS:
            worst = max(worst, compute_measure(kind, rho).value)
    return PropertyResult("vanishes_on_incoherent", samples, worst, 1e-9)


def check_incoherent_unitary_invariance(samples: int = 100, seed: int = 0) -> PropertyResult:
    """Permutation + diagonal-phase conjugation leaves every measure unchanged."""
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(samples):
        d = _rand_dim(rng)
        rho = random_density(d, d, rng)
        perm = np.eye(d)[rng.permutation(d)]
        phases = np.exp(2j * np.pi * rng.uniform(size=d))
        u = perm @ np.diag(phases)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        for kind in ALL_KINDS:
            worst = max(
                worst,
                abs(compute_measure(kind, rotated).value - compute_measure(kind, rho).value),
            )
    return PropertyResult("incoherent_unitary_invariance", samples, worst, 1e-8)


def check_convexity(samples: int = 100, seed: int = 0) -> PropertyResult:
    """C(sum_i p_i rho_i) <= sum_i p_i C(rho_i) on random 3-state mixtures."""
    rng = np.random.default_rng([seed, 3])
    worst = -np.inf
    for _ in range(samples):
        d = _rand_dim(rng, 2, 6)
        parts = [random_density(d, d, rng) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        mixed = DensityMatrix(sum(p * r.mat for p, r in zip(weights, parts)))
        for kind in ALL_KINDS:
            lhs = compute_measure(kind, mixed).value
            rhs = sum(p * compute_measure(kind, r).value for p, r in zip(weights, parts))
            worst = max(worst, lhs - rhs)
    return PropertyResult("convexity", samples, worst, 1e-8)


def check_block_additivity(samples: int = 100, seed: int = 0) -> PropertyResult:
    """C(p1 rho1 (+) p2 rho2) = p1 C(rho1) + p2 C(rho2) for l1 and robustness."""
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for _ in range(samples):
        d1, d2 = _rand_dim(rng, 2, 4), _rand_dim(rng, 2, 4)
        rho1 = random_density(d1, d1, rng)
        rho2 = random_density(d2, d2, rng)
        p1 = rng.uniform(0.2, 0.8)
        block = np.zeros((d1 + d2, d1 + d2), dtype=complex)
        block[:d1, :d1] = p1 * rho1.mat
        block[d1:, d1:] = (1 - p1) * rho2.mat
        combined = DensityMatrix(block)
        for kind in (MeasureKind.L1, MeasureKind.ROC):
            lhs = compute_measure(kind, combined).value
            rhs = p1 * compute_measure(kind, rho1).value
            rhs += (1 - p1) * compute_measure(kind, rho2).value
            worst = max(worst, abs(lhs - rhs))
    return PropertyResult("block_additivity", samples, worst, 1e-7)


def check_pure_state_superadditivity(samples: int = 1000, seed: int = 0) -> PropertyResult:
    """Robustness of a two-qubit pure state is at least the sum over marginals."""
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    for _ in range(samples):
        psi = haar_random_pure(4, rng)
        gap = subadditivity_gap(pure_density(psi, (2, 2)))
        worst = max(worst, -gap)
    return PropertyResult("pure_state_superadditivity", samples, worst, 1e-7)


def check_incoherent_ancilla(samples: int = 100, seed: int = 0) -> PropertyResult:
    """Appending a diagonal ancilla changes no measure: C(rho (x) sigma) = C(rho)."""
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    for _ in range(samples):
        da, db = _rand_dim(rng, 2, 4), _rand_dim(rng, 2, 4)
        rho = random_density(da, da, rng)
        ancilla = dephase(random_density(db, db, rng))
        product = DensityMatrix(np.kron(rho.mat, ancilla.mat), (da, db))
        for kind in ALL_KINDS:
            worst = max(
                worst,
                abs(compute_measure(kind, product).value - compute_measure(kind, rho).value),
            )
    return PropertyResult("incoherent_ancilla_invariance", samples, worst, 1e-6)


def check_roc_within_l1(samples: int = 100, seed: int = 0) -> PropertyResult:
    """Robustness never exceeds the l1-norm of coherence."""
    rng = np.random.default_rng([seed, 7])
    worst = -np.inf
    for _ in range(samples):
        d = _rand_dim(rng)
        rank = int(rng.integers(1, d + 1))
        rho = random_density(d, rank, rng)
        worst = max(worst, roc(rho).value - l1_coherence(rho).value)
    return PropertyResult("roc_within_l1", samples, worst, 1e-7)


def check_sigma_subadditivity(samples: int = 100, seed: int = 0) -> PropertyResult:
    """Every sigma-family state is sub-additive for robustness."""
    rng = np.random.default_rng([seed, 8])
    worst = -np.inf
    for _ in range(samples):
        n = int(rng.integers(1, 5))
        k = rng.uniform(0.0, sigma_kmax(n))
        worst = max(worst, subadditivity_gap(sigma_family(n, k)))
    return PropertyResult("sigma_family_subadditivity", samples, worst, 1e-9)


def run_all(samples: int = 100, seed: int = 0) -> list[PropertyResult]:
    """Run the whole suite with a common per-check sample count."""
    return [
        check_vanishes_on_incoherent(samples, seed),
        check_incoherent_unitary_invariance(samples, seed),
        check_convexity(samples, seed),
        check_block_additivity(samples, seed),
        check_pure_state_superadditivity(max(samples, 1000), seed),
        check_incoherent_ancilla(samples, seed),
        check_roc_within_l1(samples, seed),
        check_sigma_subadditivity(samples, seed),
    ]
