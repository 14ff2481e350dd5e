"""Sampled checks that the three quantifiers behave like coherence measures.

Each check is a row of ``CHECKS``: a name; a function that draws one random
instance from a generator and returns its violations, each positive when
the property fails there; the tolerance the worst violation must stay
within; and the least number of instances to draw. :func:`run_all` runs
every row through one sampling loop: row i (counting from 1) draws from
``default_rng([seed, i])`` and reports the largest violation it saw.

Covered: vanishing on incoherent states, invariance under incoherent
unitaries (permutations composed with diagonal phases), convexity under
mixing, additivity over direct sums weighted by their probabilities,
super-additivity of robustness on two-qubit pure states, invariance under
appending an incoherent ancilla, the robustness <= l1 bound, and
sub-additivity of robustness across the sigma family.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .measures import MeasureKind, ancilla_deviations, compute_measure
from .states import (
    DensityMatrix,
    dephase,
    haar_random_pure,
    pure_density,
    random_density,
    sigma_family,
    sigma_kmax,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checked: int
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.worst <= self.tol)


@dataclass(frozen=True)
class Check:
    """One property: ``violations(rng)`` draws an instance and returns its violations."""

    name: str
    violations: Callable[[np.random.Generator], Sequence[float]]
    tol: float
    min_samples: int = 1


def _rand_dim(rng: np.random.Generator, lo: int = 2, hi: int = 8) -> int:
    return int(rng.integers(lo, hi + 1))


def _values(rho: DensityMatrix, kinds: tuple[MeasureKind, ...] = tuple(MeasureKind)) -> list[float]:
    return [compute_measure(kind, rho).value for kind in kinds]


def _vanishes_on_incoherent(rng: np.random.Generator) -> list[float]:
    """All measures are zero on dephased states."""
    d = _rand_dim(rng)
    return _values(dephase(random_density(d, d, rng)))


def _incoherent_unitary_invariance(rng: np.random.Generator) -> list[float]:
    """Permutation + diagonal-phase conjugation leaves every measure unchanged."""
    d = _rand_dim(rng)
    rho = random_density(d, d, rng)
    # a permutation matrix times diagonal phases: its columns scaled by the phases
    u = np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.uniform(size=d))
    rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
    return [abs(a - b) for a, b in zip(_values(rotated), _values(rho))]


def _convexity(rng: np.random.Generator) -> list[float]:
    """C(sum_i p_i rho_i) <= sum_i p_i C(rho_i) on random 3-state mixtures."""
    d = _rand_dim(rng, 2, 6)
    parts = [random_density(d, d, rng) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    mixed = DensityMatrix(sum(p * r.mat for p, r in zip(weights, parts)))
    values = [_values(r) for r in (mixed, *parts)]
    return [lhs - sum(p * v for p, v in zip(weights, rhs)) for lhs, *rhs in zip(*values)]


def _block_additivity(rng: np.random.Generator) -> list[float]:
    """C(p1 rho1 (+) p2 rho2) = p1 C(rho1) + p2 C(rho2) for l1 and robustness."""
    d1, d2 = _rand_dim(rng, 2, 4), _rand_dim(rng, 2, 4)
    rho1 = random_density(d1, d1, rng)
    rho2 = random_density(d2, d2, rng)
    p1 = rng.uniform(0.2, 0.8)
    m1, m2 = p1 * rho1.mat, (1 - p1) * rho2.mat
    combined = DensityMatrix(np.block([[m1, np.zeros((d1, d2))], [np.zeros((d2, d1)), m2]]))
    values = [_values(r, (MeasureKind.L1, MeasureKind.ROC)) for r in (combined, rho1, rho2)]
    return [abs(c - (p1 * a + (1 - p1) * b)) for c, a, b in zip(*values)]


def _subadditivity_gap(rho: DensityMatrix) -> float:
    """Robustness of ``rho`` minus the sum of its qubit marginals' robustness."""
    kind = MeasureKind.ROC
    return compute_measure(kind, rho).value - sum(
        compute_measure(kind, rho.marginal(i)).value for i in range(len(rho.dims)))


def _pure_state_superadditivity(rng: np.random.Generator) -> list[float]:
    """Robustness of a two-qubit pure state is at least the sum over marginals."""
    gap = _subadditivity_gap(pure_density(haar_random_pure(4, rng), (2, 2)))
    return [0.0 if gap >= 0.0 else -gap]  # a NaN gap stays NaN


def _incoherent_ancilla(rng: np.random.Generator) -> tuple[float, ...]:
    """Appending a diagonal ancilla changes no measure: C(rho (x) sigma) = C(rho)."""
    da, db = _rand_dim(rng, 2, 4), _rand_dim(rng, 2, 4)
    rho = random_density(da, da, rng)
    return ancilla_deviations(rho, dephase(random_density(db, db, rng)))


def _roc_within_l1(rng: np.random.Generator) -> list[float]:
    """Robustness never exceeds the l1-norm of coherence."""
    d = _rand_dim(rng)
    rho = random_density(d, int(rng.integers(1, d + 1)), rng)
    roc, l1 = _values(rho, (MeasureKind.ROC, MeasureKind.L1))
    return [roc - l1]


def _sigma_subadditivity(rng: np.random.Generator) -> list[float]:
    """Every sigma-family state is sub-additive for robustness."""
    n = int(rng.integers(1, 5))
    return [_subadditivity_gap(sigma_family(n, rng.uniform(0.0, sigma_kmax(n))))]


# In stream order: row i draws from default_rng([seed, i]), i counting from 1.
CHECKS: tuple[Check, ...] = (
    Check("vanishes_on_incoherent", _vanishes_on_incoherent, 1e-9),
    Check("incoherent_unitary_invariance", _incoherent_unitary_invariance, 1e-8),
    Check("convexity", _convexity, 1e-8),
    Check("block_additivity", _block_additivity, 1e-7),
    Check("pure_state_superadditivity", _pure_state_superadditivity, 1e-7, min_samples=1000),
    Check("incoherent_ancilla_invariance", _incoherent_ancilla, 1e-6),
    Check("roc_within_l1", _roc_within_l1, 1e-7),
    Check("sigma_family_subadditivity", _sigma_subadditivity, 1e-9),
)


def run_all(samples: int, seed: int) -> list[PropertyResult]:
    """Run every row of ``CHECKS`` on ``max(samples, row.min_samples)`` instances.

    A non-finite violation counts as infinite and fails its row (``max``
    would pass over a NaN).
    """
    results = []
    for stream, check in enumerate(CHECKS, start=1):
        rng = np.random.default_rng([seed, stream])
        checked = max(samples, check.min_samples)
        worst = -np.inf
        for _ in range(checked):
            violations = check.violations(rng)
            worst = max(worst, *(v if np.isfinite(v) else np.inf for v in violations))
        results.append(PropertyResult(check.name, checked, worst, check.tol))
    return results
