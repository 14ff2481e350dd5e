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

All five run on one harness, :func:`run_experiment`, on any number of
worker processes. An experiment is a per-sample function and a reduction of
one grid point's values to CSV records or rows (result2 has one grid point,
its whole dimension grid). A draw whose SDP fails to certify is drawn again
and reported; too many failures abort the run.

Every sample derives its own generator from (seed, point index, sample
index), so at a fixed BLAS thread count results are byte-identical
regardless of worker count or scheduling. The BLAS thread count can change
the last bits of solver values, and with them the value columns of
``theorem1_check``. :func:`run_and_save` writes CSV plus a JSON metadata
sidecar that lists every redrawn draw.
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

    def __reduce__(self):
        # A sweep can abort inside a pool worker; the parent must rebuild it whole.
        return type(self), (str(self), self.failures)


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


# ---------------------------------------------------------------------------
# per-sample functions (cfg, grid point, generator) -> value, top level so they
# can cross process boundaries; a redraw after a solver failure calls one again


def _subadd_sample(cfg: SweepConfig, p: float, rng: np.random.Generator) -> bool:
    n = cfg.n_qubits
    if cfg.pure_state_choice is PhiChoice.MAXIMALLY_ENTANGLED:
        phi = maximally_entangled_two_qubit()
    else:
        phi = maximally_coherent(2**n)
    chi = mix_with_pure(sigma_family(n, rng.uniform(0.0, 1.0 / (2**n - 1))), phi, p)
    return subadditivity_gap(chi) <= SUBADDITIVITY_COUNT_TOL


def _ordering_sample(cfg: SweepConfig, point: int, rng: np.random.Generator) -> tuple[bool, ...]:
    """Per measure pair, whether it ranks two random states oppositely.

    The point is the dimension (full rank) or, for the rank sweep, the rank at ``cfg.dim``.
    """
    rank = int(point)
    d = cfg.dim if cfg.experiment is Experiment.ORDERING_VS_RANK else rank
    a = random_density(d, rank, rng)
    b = random_density(d, rank, rng)
    va = {kind: compute_measure(kind, a).value for kind in MeasureKind}
    vb = {kind: compute_measure(kind, b).value for kind in MeasureKind}
    return tuple(values_ordering_violated(va[m] - vb[m], va[w] - vb[w]) for m, w in MEASURE_PAIRS)


def _theorem1_sample(cfg: SweepConfig, n: int, rng: np.random.Generator) -> Theorem1Row:
    """Certified robustness of one sigma-family state vs. the tabulated closed form.

    The robustness comes from the same ``roc`` dispatch as every other
    experiment: the qubit closed form at n=1, one SDP solve otherwise. The
    sub-additivity gap subtracts the marginals' robustness from that value
    and must be nonpositive (up to SUBADDITIVITY_COUNT_TOL).
    """
    n = int(n)
    k = rng.uniform(0.0, 1.0 / (2**n - 1))
    rho = sigma_family(n, k)
    value = roc(rho).value
    closed = theorem1_closed_form(n, k)
    gap = value - sum(roc(rho.marginal(i)).value for i in range(n))
    if gap > SUBADDITIVITY_COUNT_TOL:
        raise RuntimeError(
            f"sigma family violated sub-additivity: n={n}, k={k}, gap={gap:.3e}"
        )
    return Theorem1Row(n, k, value, closed, abs(value - closed), gap)


def _result2_sample(cfg: SweepConfig, dims: tuple[int, ...], rng: np.random.Generator) -> tuple:
    """Per measure, |C(rho (x) diagonal sigma) - C(rho)|, then the two dimensions."""
    d_a = dims[rng.integers(len(dims))]
    d_b = dims[rng.integers(len(dims))]
    rho = random_density(d_a, d_a, rng)
    ancilla = dephase(random_density(d_b, d_b, rng))
    product = DensityMatrix(np.kron(rho.mat, ancilla.mat), (d_a, d_b))
    return tuple(
        abs(compute_measure(kind, product).value - compute_measure(kind, rho).value)
        for kind in MeasureKind
    ), d_a, d_b


def _result2_rows(cfg: SweepConfig, dims: tuple[int, ...], values: list) -> list[Result2Row]:
    worst = {kind: (0.0, dims[0], dims[0]) for kind in MeasureKind}
    for devs, d_a, d_b in values:
        for kind, dev in zip(MeasureKind, devs):
            if dev > worst[kind][0]:
                worst[kind] = (dev, d_a, d_b)
    return [Result2Row(kind.value, da, db, dev) for kind, (dev, da, db) in worst.items()]


def _pair_records(cfg: SweepConfig, point: int, values: list) -> list[SweepRecord]:
    return [
        _record(int(point), cfg.samples, sum(v[j] for v in values), f"{m.value}:{w.value}")
        for j, (m, w) in enumerate(MEASURE_PAIRS)
    ]


# Per experiment: the per-sample function, and the reduction of one grid
# point's values (in sample order) to CSV records or rows.
_HARNESS = {
    Experiment.SUBADDITIVITY_SWEEP: (
        _subadd_sample,
        lambda cfg, p, values: [_record(p, cfg.samples, sum(values))],
    ),
    Experiment.ORDERING_VS_DIMENSION: (_ordering_sample, _pair_records),
    Experiment.ORDERING_VS_RANK: (_ordering_sample, _pair_records),
    Experiment.THEOREM1_CHECK: (_theorem1_sample, lambda cfg, n, rows: rows),
    Experiment.RESULT2_CHECK: (_result2_sample, _result2_rows),
}


def _chunk(args) -> tuple[list, list[dict]]:
    """Values of samples [start, stop) at one grid point, and the draws that failed.

    A draw whose SDP fails to certify is replaced by the next draw from the
    same generator; a sample gets at most _MAX_REDRAWS draws.
    """
    cfg, point_idx, point, start, stop = args
    sample = _HARNESS[cfg.experiment][0]
    values: list = []
    failures: list[dict] = []
    for sample_idx in range(start, stop):
        rng = _rng(cfg.seed, point_idx, sample_idx)
        for _ in range(_MAX_REDRAWS):
            try:
                values.append(sample(cfg, point, rng))
                break
            except SolverFailure as exc:
                failures.append({"state": exc.state.to_json_dict(), "error": str(exc),
                                 "point": point, "sample": sample_idx})
                log.warning("point %s, sample %d: solve failed; sample redrawn", point, sample_idx)
        else:
            raise SweepAborted(f"sample {sample_idx} failed {_MAX_REDRAWS} redraws", failures)
    return values, failures


def _chunks(samples: int, workers: int) -> list[tuple[int, int]]:
    n_chunks = max(1, min(workers * 4, samples))
    bounds = np.linspace(0, samples, n_chunks + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def run_experiment(cfg: SweepConfig, workers: int = 1) -> tuple[list, list[dict]]:
    """Records (sweeps) or rows (theorem1, result2) of the run, and its redrawn draws.

    Each redrawn draw is reported with its state, error, grid point and
    sample index. With ``workers > 1`` each grid point runs on a fresh
    process pool. Raises :class:`SweepAborted` once failures exceed
    FAILURE_ABORT_FRACTION of the planned samples, or when one sample
    exhausts its redraws.
    """
    reduce = _HARNESS[cfg.experiment][1]
    one_point = cfg.experiment is Experiment.RESULT2_CHECK
    points = (tuple(map(int, cfg.grid)),) if one_point else cfg.grid
    limit = max(1.0, FAILURE_ABORT_FRACTION * cfg.samples * len(points))
    results: list = []
    failures: list[dict] = []
    for point_idx, point in enumerate(points):
        jobs = [(cfg, point_idx, point, a, b) for a, b in _chunks(cfg.samples, workers)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunks = list(pool.map(_chunk, jobs))
        else:
            chunks = [_chunk(job) for job in jobs]
        values: list = []
        for chunk_values, chunk_failures in chunks:
            values += chunk_values
            failures += chunk_failures
            if len(failures) > limit:
                raise SweepAborted(
                    f"{len(failures)} solver failures exceed the abort threshold "
                    f"({limit:.0f}); first offending state: {json.dumps(failures[0])}",
                    failures,
                )
        results += reduce(cfg, point, values)
        log.info("point %s done, %d redraws so far", point, len(failures))
    return results, failures


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


def write_metadata(cfg: SweepConfig, path: Path, wall_time_s: float, extra: dict) -> None:
    meta = {
        "config": cfg.to_json_dict(),
        "git_revision": _git_revision(),
        "wall_time_s": wall_time_s,
        "package_version": _package_version(),
        **extra,
    }
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def run_and_save(cfg: SweepConfig, out_dir: str | Path, workers: int = 1) -> tuple[Path, Path]:
    """Run the configured experiment; write `<name>.csv` and `<name>_meta.json`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results, failures = run_experiment(cfg, workers)
    name = cfg.experiment.value
    extra: dict = {"failures": failures}
    if cfg.experiment is Experiment.SUBADDITIVITY_SWEEP:
        name += f"_{cfg.pure_state_choice.value}"
        extra["transition_estimate"] = estimate_transition(results)
    csv_path, meta_path = out / f"{name}.csv", out / f"{name}_meta.json"
    if isinstance(results[0], SweepRecord):
        write_sweep_csv(cfg, results, csv_path)
    else:
        write_rows_csv(results, csv_path)
    write_metadata(cfg, meta_path, wall_time_s=time.perf_counter() - start, extra=extra)
    return csv_path, meta_path
