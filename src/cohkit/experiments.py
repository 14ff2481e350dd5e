"""Monte-Carlo harnesses with reproducible, schedule-independent sampling.

Five experiments:

* ``subadditivity_sweep`` -- mix sigma-family states with a fixed pure state
  at weight p and count how often robustness stays sub-additive, per p.
* ``ordering_vs_dimension`` / ``ordering_vs_rank`` -- draw random state pairs
  and count opposite orderings for each pair of measures, per dimension or
  per rank (at fixed dimension).
* ``theorem1_check`` -- certified robustness of sigma-family states vs. the
  tabulated closed form, with the sub-additivity gap recorded.
* ``result2_check`` -- worst deviation of C(rho (x) diagonal ancilla) from
  C(rho) per measure.

Every sample derives its own generator from (seed, point index, sample
index), so at a fixed BLAS thread count results are byte-identical
regardless of worker count or scheduling. The BLAS thread count can change
the last bits of solver values, and with them the value columns of
``theorem1_check``. Runners emit CSV plus a JSON metadata sidecar.
"""

from __future__ import annotations

import csv
import json
import logging
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from enum import Enum
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .measures import (
    MeasureKind,
    compute_measure,
    roc,
    subadditivity_gap,
    theorem1_closed_form,
    values_ordering_violated,
)
from .sdp import SolverFailure
from .states import (
    DensityMatrix,
    dephase,
    maximally_coherent,
    maximally_entangled_two_qubit,
    mix_with_pure,
    random_density,
    sigma_family,
)

log = logging.getLogger(__name__)

# A state counts as sub-additive when its gap is at most this; keeps solver
# noise from flipping boundary states.
SUBADDITIVITY_COUNT_TOL = 1e-9
# Sweeps abort once failed solves exceed 0.1% of planned samples (min 1).
FAILURE_ABORT_FRACTION = 1e-3
_MAX_REDRAWS = 50

MEASURE_PAIRS: tuple[tuple[MeasureKind, MeasureKind], ...] = (
    (MeasureKind.L1, MeasureKind.REL_ENTROPY),
    (MeasureKind.L1, MeasureKind.ROC),
    (MeasureKind.REL_ENTROPY, MeasureKind.ROC),
)

DEFAULT_P_GRID = tuple(round(i * 0.02, 2) for i in range(51))
DEFAULT_DIM_GRID = tuple(range(2, 11))
DEFAULT_RANK_GRID = tuple(range(1, 11))
DEFAULT_N_GRID = (1, 2, 3, 4)
DEFAULT_ANCILLA_DIM_GRID = (2, 3, 4)


class Experiment(Enum):
    SUBADDITIVITY_SWEEP = "subadditivity_sweep"
    ORDERING_VS_DIMENSION = "ordering_vs_dimension"
    ORDERING_VS_RANK = "ordering_vs_rank"
    THEOREM1_CHECK = "theorem1_check"
    RESULT2_CHECK = "result2_check"


class PhiChoice(Enum):
    MAXIMALLY_COHERENT = "coherent"
    MAXIMALLY_ENTANGLED = "entangled"


class SweepAborted(RuntimeError):
    """Raised when too many solver failures poison a sweep."""

    def __init__(self, message: str, failures: list[dict]):
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class SweepConfig:
    """Full parameterization of one experiment run."""

    experiment: Experiment
    samples: int
    seed: int
    grid: tuple[float | int, ...]
    pure_state_choice: PhiChoice = PhiChoice.MAXIMALLY_COHERENT
    n_qubits: int = 2
    dim: int = 10  # ambient dimension for the rank sweep

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        exp = self.experiment
        if exp is Experiment.SUBADDITIVITY_SWEEP:
            if self.n_qubits < 1:
                raise ValueError("n_qubits must be positive")
            if any(not 0.0 <= p <= 1.0 for p in self.grid):
                raise ValueError("mixing weights must lie in [0, 1]")
            if self.pure_state_choice is PhiChoice.MAXIMALLY_ENTANGLED and self.n_qubits != 2:
                raise ValueError("the entangled reference state is two-qubit only")
        elif exp is Experiment.ORDERING_VS_DIMENSION:
            if any(int(d) != d or d < 2 for d in self.grid):
                raise ValueError("dimension grid entries must be integers >= 2")
        elif exp is Experiment.ORDERING_VS_RANK:
            if self.dim < 2:
                raise ValueError("dim must be at least 2")
            if any(int(r) != r or not 1 <= r <= self.dim for r in self.grid):
                raise ValueError(f"rank grid entries must be integers in [1, {self.dim}]")
        elif exp is Experiment.THEOREM1_CHECK:
            if any(int(n) != n or n < 1 for n in self.grid):
                raise ValueError("qubit-count grid entries must be positive integers")
        elif exp is Experiment.RESULT2_CHECK:
            if any(int(d) != d or d < 2 for d in self.grid):
                raise ValueError("ancilla/state dimension grid entries must be integers >= 2")

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment.value,
            "samples": self.samples,
            "seed": self.seed,
            "grid": list(self.grid),
            "pure_state_choice": self.pure_state_choice.value,
            "n_qubits": self.n_qubits,
            "dim": self.dim,
        }


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's counts; ``measure_pair`` set only for ordering sweeps."""

    sweep_point: float | int
    count_total: int
    count_positive: int
    fraction: float
    stderr: float
    measure_pair: str | None = None


@dataclass(frozen=True)
class Theorem1Row:
    n: int
    k: float
    sdp_value: float
    closed_form: float
    abs_difference: float
    subadditivity_gap: float


@dataclass(frozen=True)
class Result2Row:
    measure: str
    d_a: int
    d_b: int
    max_abs_deviation: float


def _rng(seed: int, point_idx: int, sample_idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, point_idx, sample_idx])


def _record(point, total: int, positive: int, pair: str | None = None) -> SweepRecord:
    fraction = positive / total
    return SweepRecord(
        sweep_point=point,
        count_total=total,
        count_positive=positive,
        fraction=fraction,
        stderr=float(np.sqrt(fraction * (1.0 - fraction) / total)),
        measure_pair=pair,
    )


def _failure_entry(rho: DensityMatrix, context: dict, exc: Exception) -> dict:
    entry = {"state": rho.to_json_dict(), "error": str(exc), **context}
    log.warning("solver failure (%s); sample redrawn", context)
    return entry


def _pair_label(pair: tuple[MeasureKind, MeasureKind]) -> str:
    return f"{pair[0].value}:{pair[1].value}"


# ---------------------------------------------------------------------------
# per-chunk workers (top level so they can cross process boundaries)


def _phi_vector(choice: PhiChoice, n_qubits: int) -> np.ndarray:
    if choice is PhiChoice.MAXIMALLY_ENTANGLED:
        return maximally_entangled_two_qubit()
    return maximally_coherent(2**n_qubits)


def _subadd_chunk(args) -> tuple[int, list[dict]]:
    seed, point_idx, p, n_qubits, phi_value, start, stop = args
    phi = _phi_vector(PhiChoice(phi_value), n_qubits)
    kmax = 1.0 / (2**n_qubits - 1)
    count = 0
    failures: list[dict] = []
    for sample_idx in range(start, stop):
        rng = _rng(seed, point_idx, sample_idx)
        for _ in range(_MAX_REDRAWS):
            chi = mix_with_pure(sigma_family(n_qubits, rng.uniform(0.0, kmax)), phi, p)
            try:
                count += subadditivity_gap(chi) <= SUBADDITIVITY_COUNT_TOL
                break
            except SolverFailure as exc:
                failures.append(_failure_entry(chi, {"p": p, "sample": sample_idx}, exc))
        else:
            raise SweepAborted(f"sample {sample_idx} failed {_MAX_REDRAWS} redraws", failures)
    return count, failures


def _ordering_chunk(args) -> tuple[tuple[int, ...], list[dict]]:
    seed, point_idx, d, rank, start, stop = args
    counts = [0] * len(MEASURE_PAIRS)
    failures: list[dict] = []
    for sample_idx in range(start, stop):
        rng = _rng(seed, point_idx, sample_idx)
        for _ in range(_MAX_REDRAWS):
            a = random_density(d, rank, rng)
            b = random_density(d, rank, rng)
            try:
                va = {kind: compute_measure(kind, a).value for kind in MeasureKind}
                vb = {kind: compute_measure(kind, b).value for kind in MeasureKind}
                for j, (m1, m2) in enumerate(MEASURE_PAIRS):
                    counts[j] += values_ordering_violated(va[m1] - vb[m1], va[m2] - vb[m2])
                break
            except SolverFailure as exc:
                failures.append(
                    _failure_entry(a, {"d": d, "rank": rank, "sample": sample_idx}, exc)
                )
        else:
            raise SweepAborted(f"sample {sample_idx} failed {_MAX_REDRAWS} redraws", failures)
    return tuple(counts), failures


def _chunks(samples: int, workers: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(workers * 4, samples))
    bounds = np.linspace(0, samples, n_chunks + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _run_chunks(worker, jobs: list, workers: int) -> list:
    if workers <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, jobs))


class _FailureBudget:
    def __init__(self, planned_samples: int):
        self.limit = max(1.0, FAILURE_ABORT_FRACTION * planned_samples)
        self.entries: list[dict] = []

    def add(self, new: list[dict]) -> None:
        self.entries.extend(new)
        if len(self.entries) > self.limit:
            raise SweepAborted(
                f"{len(self.entries)} solver failures exceed the abort threshold "
                f"({self.limit:.0f}); first offending state: "
                f"{json.dumps(self.entries[0])}",
                self.entries,
            )


# ---------------------------------------------------------------------------
# runners


def run_subadditivity_sweep(cfg: SweepConfig, workers: int = 1) -> list[SweepRecord]:
    """Fraction of mixed states that stay sub-additive, per mixing weight."""
    if cfg.experiment is not Experiment.SUBADDITIVITY_SWEEP:
        raise ValueError(f"config is for {cfg.experiment}, not the sub-additivity sweep")
    budget = _FailureBudget(cfg.samples * len(cfg.grid))
    records = []
    for point_idx, p in enumerate(cfg.grid):
        jobs = [
            (cfg.seed, point_idx, p, cfg.n_qubits, cfg.pure_state_choice.value, a, b)
            for a, b in _chunks(cfg.samples, workers)
        ]
        count = 0
        for chunk_count, chunk_failures in _run_chunks(_subadd_chunk, jobs, workers):
            count += chunk_count
            budget.add(chunk_failures)
        records.append(_record(p, cfg.samples, count))
        log.info("p=%g: %d/%d sub-additive", p, count, cfg.samples)
    return records


def _run_ordering(cfg: SweepConfig, workers: int, rank_for) -> list[SweepRecord]:
    budget = _FailureBudget(cfg.samples * len(cfg.grid))
    records = []
    for point_idx, point in enumerate(cfg.grid):
        d, rank = rank_for(int(point))
        jobs = [
            (cfg.seed, point_idx, d, rank, a, b) for a, b in _chunks(cfg.samples, workers)
        ]
        totals = np.zeros(len(MEASURE_PAIRS), dtype=int)
        for chunk_counts, chunk_failures in _run_chunks(_ordering_chunk, jobs, workers):
            totals += np.asarray(chunk_counts)
            budget.add(chunk_failures)
        for pair, count in zip(MEASURE_PAIRS, totals):
            records.append(_record(int(point), cfg.samples, int(count), _pair_label(pair)))
        log.info("point=%s: violations per pair %s", point, totals.tolist())
    return records


def run_ordering_vs_dimension(cfg: SweepConfig, workers: int = 1) -> list[SweepRecord]:
    """Ordering-violation fractions for full-rank state pairs, per dimension."""
    if cfg.experiment is not Experiment.ORDERING_VS_DIMENSION:
        raise ValueError(f"config is for {cfg.experiment}, not the dimension sweep")
    return _run_ordering(cfg, workers, lambda d: (d, d))


def run_ordering_vs_rank(cfg: SweepConfig, workers: int = 1) -> list[SweepRecord]:
    """Ordering-violation fractions at fixed dimension, per state rank."""
    if cfg.experiment is not Experiment.ORDERING_VS_RANK:
        raise ValueError(f"config is for {cfg.experiment}, not the rank sweep")
    return _run_ordering(cfg, workers, lambda r: (cfg.dim, r))


def run_theorem1_check(cfg: SweepConfig) -> list[Theorem1Row]:
    """Certified robustness of sigma-family states vs. the tabulated closed form.

    The robustness comes from the same ``roc`` dispatch as every other
    experiment: the qubit closed form at n=1, one SDP solve otherwise. The
    sub-additivity gap subtracts the marginals' robustness from that value
    and must be nonpositive (up to SUBADDITIVITY_COUNT_TOL).
    """
    if cfg.experiment is not Experiment.THEOREM1_CHECK:
        raise ValueError(f"config is for {cfg.experiment}, not the closed-form check")
    rows = []
    for point_idx, n in enumerate(cfg.grid):
        n = int(n)
        kmax = 1.0 / (2**n - 1)
        for sample_idx in range(cfg.samples):
            rng = _rng(cfg.seed, point_idx, sample_idx)
            k = rng.uniform(0.0, kmax)
            rho = sigma_family(n, k)
            sdp_value = roc(rho).value
            closed = theorem1_closed_form(n, k)
            gap = sdp_value - sum(roc(rho.marginal(i)).value for i in range(n))
            if gap > SUBADDITIVITY_COUNT_TOL:
                raise RuntimeError(
                    f"sigma family violated sub-additivity: n={n}, k={k}, gap={gap:.3e}"
                )
            rows.append(
                Theorem1Row(
                    n=n,
                    k=k,
                    sdp_value=sdp_value,
                    closed_form=closed,
                    abs_difference=abs(sdp_value - closed),
                    subadditivity_gap=gap,
                )
            )
    return rows


def run_result2_check(cfg: SweepConfig) -> list[Result2Row]:
    """Worst per-measure deviation of C(rho (x) diagonal sigma) from C(rho)."""
    if cfg.experiment is not Experiment.RESULT2_CHECK:
        raise ValueError(f"config is for {cfg.experiment}, not the ancilla check")
    dims = [int(d) for d in cfg.grid]
    worst = {kind: (0.0, dims[0], dims[0]) for kind in MeasureKind}
    for sample_idx in range(cfg.samples):
        rng = _rng(cfg.seed, 0, sample_idx)
        d_a = dims[rng.integers(len(dims))]
        d_b = dims[rng.integers(len(dims))]
        rho = random_density(d_a, d_a, rng)
        ancilla = dephase(random_density(d_b, d_b, rng))
        product = DensityMatrix(np.kron(rho.mat, ancilla.mat), (d_a, d_b))
        for kind in MeasureKind:
            dev = abs(compute_measure(kind, product).value - compute_measure(kind, rho).value)
            if dev > worst[kind][0]:
                worst[kind] = (dev, d_a, d_b)
    return [
        Result2Row(measure=kind.value, d_a=da, d_b=db, max_abs_deviation=dev)
        for kind, (dev, da, db) in worst.items()
    ]


def estimate_transition(records: list[SweepRecord]) -> float | None:
    """Smallest grid point whose fraction drops below one half."""
    for rec in sorted(records, key=lambda r: r.sweep_point):
        if rec.fraction < 0.5:
            return float(rec.sweep_point)
    return None


# ---------------------------------------------------------------------------
# persistence

SWEEP_CSV_COLUMNS = (
    "experiment",
    "sweep_point",
    "measure_pair",
    "count_total",
    "count_positive",
    "fraction",
    "stderr",
    "seed",
)


def write_sweep_csv(cfg: SweepConfig, records: list[SweepRecord], path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    cfg.experiment.value,
                    repr(rec.sweep_point),
                    rec.measure_pair or "",
                    rec.count_total,
                    rec.count_positive,
                    repr(rec.fraction),
                    repr(rec.stderr),
                    cfg.seed,
                ]
            )


def write_rows_csv(rows: list[Theorem1Row] | list[Result2Row], path: Path) -> None:
    """One CSV line per row, under a header of the row dataclass's field names.

    Floats are written with ``repr``, so values round-trip exactly.
    """
    names = [f.name for f in fields(rows[0])]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([getattr(row, name) for name in names])


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def _package_version() -> str:
    try:
        return version("cohkit")
    except PackageNotFoundError:
        # Running from source. Looked up at call time: the package assigns
        # __version__ only after it has imported this module.
        from . import __version__

        return __version__


def write_metadata(cfg: SweepConfig, path: Path, wall_time_s: float, extra: dict | None = None) -> None:
    meta = {
        "config": cfg.to_json_dict(),
        "git_revision": _git_revision(),
        "wall_time_s": wall_time_s,
        "package_version": _package_version(),
    }
    if extra:
        meta.update(extra)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def run_and_save(cfg: SweepConfig, out_dir: str | Path, workers: int = 1) -> tuple[Path, Path]:
    """Run the configured experiment; write `<name>.csv` and `<name>_meta.json`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    suffix = ""
    if cfg.experiment is Experiment.SUBADDITIVITY_SWEEP:
        suffix = f"_{cfg.pure_state_choice.value}"
    csv_path = out / f"{cfg.experiment.value}{suffix}.csv"
    meta_path = out / f"{cfg.experiment.value}{suffix}_meta.json"

    start = time.perf_counter()
    extra: dict = {}
    if cfg.experiment is Experiment.SUBADDITIVITY_SWEEP:
        records = run_subadditivity_sweep(cfg, workers)
        transition = estimate_transition(records)
        extra["transition_estimate"] = transition
        write_sweep_csv(cfg, records, csv_path)
    elif cfg.experiment is Experiment.ORDERING_VS_DIMENSION:
        write_sweep_csv(cfg, run_ordering_vs_dimension(cfg, workers), csv_path)
    elif cfg.experiment is Experiment.ORDERING_VS_RANK:
        write_sweep_csv(cfg, run_ordering_vs_rank(cfg, workers), csv_path)
    elif cfg.experiment is Experiment.THEOREM1_CHECK:
        write_rows_csv(run_theorem1_check(cfg), csv_path)
    else:
        write_rows_csv(run_result2_check(cfg), csv_path)
    write_metadata(cfg, meta_path, wall_time_s=time.perf_counter() - start, extra=extra)
    return csv_path, meta_path
