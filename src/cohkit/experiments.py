"""Monte-Carlo harnesses with reproducible, schedule-independent sampling.

Five experiments:

* ``subadditivity_sweep`` -- mix two-qubit sigma-family states with a fixed
  pure state at weight p and count how often robustness stays sub-additive,
  per p.
* ``ordering_vs_dimension`` / ``ordering_vs_rank`` -- draw random state pairs
  and count opposite orderings for each pair of measures, per dimension or
  per rank (at fixed dimension).
* ``theorem1_check`` -- certified robustness of sigma-family states vs. the
  tabulated closed form, with the sub-additivity gap recorded (and required
  to be nonpositive).
* ``result2_check`` -- worst deviation of C(rho (x) diagonal ancilla) from
  C(rho) per measure.

All five run on one harness, :func:`run_experiment`, on any number of
worker processes. An experiment is a draw function, a fold of a block's
values into its chunk's tally and a reduction of one grid point's merged
tally to CSV records or rows and metadata notes (result2 has one grid
point, its whole dimension grid). A chunk of samples goes in
blocks of BLOCK_SAMPLES: the draw function makes the block's draws, one per
sample generator, each a function of no arguments that finishes its
sample's value, and the chunk then calls each in turn. The ordering sweeps
draw a block's state pairs with :func:`~cohkit.states.random_densities`, so
the block is validated and its l1 sums, spectra and entropies computed as
one numpy stack, and bracket the block's pairs with
:func:`~cohkit.measures.ordering_decisions`, so the solve-free and
phase-ascent RoC brackets also run once per block; only the solve of a pair
those leave open runs per sample. The sub-additivity sweep
and theorem1 take one k per generator and build the block's sigma-family
states (and, for the sweep, their mixtures) as numpy stacks, with the block
forms of :func:`~cohkit.states.sigma_family` and
:func:`~cohkit.states.mix_with_pure`; :func:`~cohkit.measures.subadditivity_gap`
then takes the marginals, their closed forms and the phase witness once per
block, and only the solve of a state the witness leaves open runs per
sample. The sweep's fold counts the gaps at most
SUBADDITIVITY_COUNT_TOL; a theorem1 row raises if its gap exceeds it.
result2 draws nothing ahead: each sample's function draws from its
generator when called. A draw whose SDP fails to certify is drawn again
from the same generator by the same draw function, as a block of one, so
it is decided exactly like a first draw, and reported. A run has one
failure budget, FAILURE_ABORT_FRACTION of its planned samples (at least
1): once its failures exceed it, no chunk draws more, and the run aborts.
Each grid point is split into one contiguous chunk of samples per worker
(fewer if the point has fewer samples than workers). A chunk folds each
finished block's values into its tally, and returns that tally with its
redrawn draws and its RoC values per dispatch method. The sweeps fold to
counts: fig1 counts its sub-additive samples, and the ordering sweeps count
each (answers, stage) and list, by sample index, the pairs no stage
settled; so on the sweeps no sample's value outlives its block, and a pool
worker sends back counts. theorem1 and result2 keep their rows and
deviations. The point's reduction turns the merged tally into its records
or rows and its notes: the ordering sweeps' reduction counts the pairs
settled at each stage; the others note nothing. The run merges chunk
tallies and notes by one rule: lists extend and counts add.

Every sample has its own generator, equal to
``np.random.default_rng([seed, point index, sample index])``: a chunk runs
numpy's SeedSequence hash over its samples as one numpy pass per SEED_SPAN
samples (:func:`_sample_seed_words`) and seeds each sample's PCG64 from its
row. So at a fixed BLAS thread count results are byte-identical regardless
of worker count, scheduling or block size. The BLAS thread count can change
the last bits of solver values, and with them the value columns of
``theorem1_check``; importing :mod:`cohkit.cli` pins it to one unless the
environment sets it. :func:`run_and_save` writes CSV plus a JSON metadata
sidecar holding the run's tally: every redrawn draw (``failures``), the RoC
values per dispatch method (``roc_methods``, counting each solve of
:func:`~cohkit.measures.ordering_decisions` as one ``sdp`` value, also one it
stopped early, and under ``solve_free_bracket`` the states its eigen rung
bracketed, though that rung gives brackets, not values) and, for the
ordering sweeps, the samples settled at each stage of that function
(``ordering_decisions``) and those no stage settled (``undecided``). A run
that aborts writes only the sidecar, with its config, revision, wall time
and every failed draw.
Every experiment's records or rows are dataclasses whose fields are the CSV
columns, in order, so one writer, :func:`write_sweep_csv`, serves them all.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import subprocess
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import __version__
from .measures import (
    MEASURE_PAIRS,
    ROC_METHOD_COUNTS,
    DecisionStage,
    MeasureKind,
    ancilla_deviations,
    ordering_decisions,
    subadditivity_gap,
    theorem1_closed_form,
)
from .sdp import SolverFailure
from .states import (
    dephase,
    maximally_coherent,
    maximally_entangled_two_qubit,
    mix_with_pure,
    random_densities,
    random_density,
    sigma_family,
    sigma_kmax,
)

log = logging.getLogger(__name__)

# A state counts as sub-additive when its gap is at most this. It absorbs
# rounding in the closed-form, pure-state and phase-witness values, which are
# exact to rounding. It is not the resolution of an SDP value, which may sit
# up to tol * max(1, primal) (about 2e-8 at the default tol) below the truth,
# so an SDP-bound state within that of the boundary can count either way.
# Kept at 1e-9 because the seed-0 counts of the fig1 sweep depend on it.
SUBADDITIVITY_COUNT_TOL = 1e-9
# A run's failure budget: it aborts once its failed solves exceed this share
# of its planned samples, or 1 if that is more, and draws nothing after that.
FAILURE_ABORT_FRACTION = 1e-3
# Samples a chunk draws, validates and measures as one numpy stack.
BLOCK_SAMPLES = 64
# Samples whose seed words a chunk hashes in one numpy pass. A pass holds
# about 180 bytes per sample at its peak, so one over a chunk of 5e7 samples
# would need 9 GB, and one over 4096 samples 0.7 MB. From about 1000 samples
# on, a pass costs about 0.1 us per sample (2-vCPU x86 VM), so spans of 4096
# hash as fast as one pass over the whole chunk.
SEED_SPAN = 64 * BLOCK_SAMPLES


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
    """Raised by :func:`run_experiment` when a run's solver failures exceed its
    budget. ``failures`` lists every failed draw; ``meta_path`` is the
    sidecar :func:`run_and_save` wrote them to, None until it has."""

    def __init__(self, message: str, failures: list[dict]):
        super().__init__(message)
        self.failures = failures
        self.meta_path: Path | None = None


@dataclass(frozen=True)
class SweepConfig:
    """Full parameterization of one experiment run."""

    experiment: Experiment
    samples: int
    seed: int
    grid: tuple[float | int, ...]
    pure_state_choice: PhiChoice = PhiChoice.MAXIMALLY_COHERENT
    dim: int = 10  # ambient dimension for the rank sweep

    def __post_init__(self):
        # numpy scalars become the equal Python ones, which the seed hash and the sidecar's JSON read
        for name in ("samples", "seed", "dim"):
            value = np.asarray(getattr(self, name)).item()
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "grid", tuple(np.asarray(v).item() for v in self.grid))
        if not 1 <= self.samples <= 2**32:
            raise ValueError("samples must lie in [1, 2**32], so a sample index is one seed word")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        exp = self.experiment
        if exp is Experiment.SUBADDITIVITY_SWEEP:
            if any(not 0.0 <= p <= 1.0 for p in self.grid):
                raise ValueError("mixing weights must lie in [0, 1]")
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


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's counts, fields in CSV column order; ``measure_pair`` is
    set only for ordering sweeps."""

    experiment: str
    sweep_point: float | int
    measure_pair: str | None
    count_total: int
    count_positive: int
    fraction: float
    stderr: float
    seed: int


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


def _record(cfg: SweepConfig, point, positive: int, pair: str | None = None) -> SweepRecord:
    fraction = positive / cfg.samples
    stderr = float(np.sqrt(fraction * (1.0 - fraction) / cfg.samples))
    return SweepRecord(
        cfg.experiment.value, point, pair, cfg.samples, positive, fraction, stderr, cfg.seed
    )


# ---------------------------------------------------------------------------
# draw functions (cfg, grid point, generators) -> per generator, the
# zero-argument function that finishes that sample's value: its robustness
# and gap (sub-additivity sweep), the decision of its pair (ordering sweeps),
# its theorem1 row, or its result2 deviations, drawn inside the function. A
# redraw after a solver failure calls the same function on the same
# generator alone, a block of one.


def _subadd_gaps(cfg: SweepConfig, p: float, rngs: list) -> list:
    """Each generator's two-qubit sigma-family state, at one uniform k, mixed
    at weight p with the reference state: the block's states built as one
    stack, and their robustness values and gaps taken as one block by
    :func:`~cohkit.measures.subadditivity_gap`. Per sample, the function that
    finishes its robustness and gap."""
    if cfg.pure_state_choice is PhiChoice.MAXIMALLY_ENTANGLED:
        phi = maximally_entangled_two_qubit()
    else:
        phi = maximally_coherent(4)
    sigmas = sigma_family(2, [rng.uniform(0.0, sigma_kmax(2)) for rng in rngs])
    return subadditivity_gap(mix_with_pure(sigmas, phi, p))


def _ordering_pairs(cfg: SweepConfig, point: int, rngs: list) -> list:
    """Each generator's pair of random states, the block built as one stack
    and its pairs bracketed as one block by
    :func:`~cohkit.measures.ordering_decisions`: per sample, the function
    that finishes the decision of its pair. A redrawn pair is a block of one,
    decided by the same rungs.

    The point is the dimension (full rank) or, for the rank sweep, the rank at
    ``cfg.dim``.
    """
    rank = int(point)
    d = cfg.dim if cfg.experiment is Experiment.ORDERING_VS_RANK else rank
    states = random_densities(d, rank, rngs, count=2)
    return ordering_decisions(list(zip(states[::2], states[1::2])))


def _theorem1_rows(cfg: SweepConfig, n: int, rngs: list) -> list:
    """Each generator's n-qubit sigma-family state, at one uniform k, the
    block built as one stack and its robustness values and gaps taken as one
    block by :func:`~cohkit.measures.subadditivity_gap`, as for fig1: the
    qubit closed form at n=1, else the phase witness or one SDP solve. Per
    sample, the function that finishes its row."""
    n = int(n)
    ks = [rng.uniform(0.0, sigma_kmax(n)) for rng in rngs]
    return [partial(_theorem1_row, n, k, value_and_gap)
            for k, value_and_gap in zip(ks, subadditivity_gap(sigma_family(n, ks)))]


def _theorem1_row(n: int, k: float, value_and_gap: Callable) -> Theorem1Row:
    """Certified robustness of one sigma-family state vs. the tabulated closed
    form, with its sub-additivity gap, which must be nonpositive (up to
    SUBADDITIVITY_COUNT_TOL)."""
    value, gap = value_and_gap()
    if gap > SUBADDITIVITY_COUNT_TOL:
        raise RuntimeError(
            f"sigma family violated sub-additivity: n={n}, k={k}, gap={gap:.3e}"
        )
    closed = theorem1_closed_form(n, k)
    return Theorem1Row(n, k, value, closed, abs(value - closed), gap)


def _result2_sample(dims: tuple[int, ...], rng: np.random.Generator) -> tuple:
    """Per measure, |C(rho (x) diagonal sigma) - C(rho)|, then the two dimensions."""
    d_a = dims[rng.integers(len(dims))]
    d_b = dims[rng.integers(len(dims))]
    rho = random_density(d_a, d_a, rng)
    return ancilla_deviations(rho, dephase(random_density(d_b, d_b, rng))), d_a, d_b


def _result2_rows(cfg: SweepConfig, dims: tuple[int, ...], values: list) -> tuple[list, dict]:
    worst = {kind: (0.0, dims[0], dims[0]) for kind in MeasureKind}
    for devs, d_a, d_b in values:
        for kind, dev in zip(MeasureKind, devs):
            if dev > worst[kind][0]:
                worst[kind] = (dev, d_a, d_b)
    return [Result2Row(kind.value, da, db, dev) for kind, (dev, da, db) in worst.items()], {}


def _fold_decisions(point, start: int, decisions: list) -> dict:
    """A block's :class:`~cohkit.measures.OrderingDecision` values, those of
    samples ``start``, ``start + 1``, ..., folded: the count of each
    (answers, stage), and the point, sample index and RoC-difference bracket
    of each pair no stage settled. One pass splits the decisions into their
    answers, stages and brackets."""
    violated, stages, brackets = zip(*decisions)
    undecided = DecisionStage.UNDECIDED
    return {
        "values": Counter(zip(violated, stages)),
        "undecided": [{"point": point, "sample": start + i, "roc_difference_bracket": list(bracket)}
                      for i, (stage, bracket) in enumerate(zip(stages, brackets))
                      if stage is undecided] if undecided in stages else [],
    }


def _keep(point, start: int, values: list) -> dict:
    """The fold that keeps a block's values as they are."""
    return {"values": values}


def _pair_records(cfg: SweepConfig, point: int, counts: Counter) -> tuple[list, dict]:
    """The point's records from the count of each (answers, stage) of its
    pairs, and its notes: the pairs settled at each :class:`DecisionStage`."""
    records = [_record(cfg, int(point), sum(n for (answers, _), n in counts.items() if answers[j]),
                       f"{m.value}:{w.value}") for j, (m, w) in enumerate(MEASURE_PAIRS)]
    stages = Counter({s.value: sum(n for (_, stage), n in counts.items() if stage is s)
                      for s in DecisionStage})
    return records, {"ordering_decisions": stages}


# Per experiment: the draw function (cfg, grid point, generators) ->
# per generator, the function that finishes its sample's value; the fold of a
# block's values (grid point, index of the block's first sample, values in
# sample order) to the part of the chunk's tally they add, by _merge, with the
# folded values under "values": the count of sub-additive samples (fig1), the
# count of each (answers, stage) plus the undecided pairs (fig2, fig3), the
# rows or deviations themselves (theorem1, result2); and the reduction of one
# grid point's merged "values" to its CSV records or rows and its notes
# (counts as Counters, entries as lists, under metadata keys).
_HARNESS = {
    Experiment.SUBADDITIVITY_SWEEP: (
        _subadd_gaps,
        lambda p, start, values: {"values": Counter(
            subadditive=sum(gap <= SUBADDITIVITY_COUNT_TOL for _, gap in values))},
        lambda cfg, p, counts: ([_record(cfg, p, counts["subadditive"])], {}),
    ),
    Experiment.ORDERING_VS_DIMENSION: (_ordering_pairs, _fold_decisions, _pair_records),
    Experiment.ORDERING_VS_RANK: (_ordering_pairs, _fold_decisions, _pair_records),
    Experiment.THEOREM1_CHECK: (_theorem1_rows, _keep, lambda cfg, n, rows: (rows, {})),
    Experiment.RESULT2_CHECK: (
        lambda cfg, dims, rngs: [partial(_result2_sample, dims, rng) for rng in rngs],
        _keep,
        _result2_rows,
    ),
}


class _SampleSeed(ISeedSequence):
    """The seed sequence of one sample's PCG64: it returns the sample's row of
    :func:`_sample_seed_words`, a C-contiguous uint64 array, since PCG64
    reads the data pointer of the words it asks for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64), "only PCG64's seeding is precomputed"
        return self.words


def _hash_constants(init: int, mult: int, length: int) -> np.ndarray:
    """Column of the uint32 constants init * mult**k mod 2**32, k < length."""
    out = [init]
    while len(out) < length:
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, np.uint32)[:, None]


def _sample_seed_words(seed: int, point_idx: int, start: int, stop: int) -> np.ndarray:
    """Per sample i in [start, stop), one row of the four uint64 words that
    ``np.random.SeedSequence([seed, point_idx, i]).generate_state(4, np.uint64)``
    returns: numpy's SeedSequence hash, with a pool of four uint32 words, run
    on uint32 arrays over the samples.

    The entropy is the 32-bit words of seed and point_idx (least significant
    first, one word for 0) and then i, which must be below 2**32. The hash
    constants are masked Python ints, so only arrays wrap: numpy warns when a
    uint32 scalar overflows.
    """
    entropy = [n >> s & 0xFFFFFFFF for n in (seed, point_idx)
               for s in range(0, max(n.bit_length(), 1), 32)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    # 4 hashes fill the pool, 12 mix it and 4 take each word past it
    hash_a = _hash_constants(0x43B0D7E5, 0x931E8875, 17 + 4 * max(0, len(entropy) - 4))

    def hashmix(value, k: int, m: int) -> np.ndarray:  # hash steps k .. k + m - 1, a row each
        value = (value ^ hash_a[k:k + m]) * hash_a[k + 1:k + m + 1]
        return value ^ value >> 16

    def mix(x, y) -> np.ndarray:
        value = x * 0xCA01F9DD - y * 0x4973F715
        return value ^ value >> 16

    pool = np.zeros((4, stop - start), np.uint32)
    for j, word in enumerate(entropy[:4]):
        pool[j] = word
    pool = hashmix(pool, 0, 4)
    for src in range(4):  # each pool word mixed into the other three
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for j, word in enumerate(entropy[4:]):  # each word past the pool mixed into all four
        pool = mix(pool, hashmix(word, 16 + 4 * j, 4))
    hash_b = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ hash_b[:8]) * hash_b[1:]
    out ^= out >> 16
    low, high = out[::2].astype(np.uint64), out[1::2].astype(np.uint64)
    return np.ascontiguousarray((low | high << 32).T)  # little-endian pairs, a row per sample


def _chunk(args) -> dict:
    """The tally of samples [start, stop) at one grid point: each block's
    values folded into it by the experiment's fold (``"values"``, and the
    ordering sweeps' ``"undecided"``), the draws that failed
    (``"failures"``) and the RoC values returned per method meanwhile
    (``"roc_methods"``).

    The seed words of the samples are hashed by :func:`_sample_seed_words`,
    SEED_SPAN samples at a time. The samples go in blocks of BLOCK_SAMPLES:
    each sample of a block gets a PCG64 generator seeded from its row, equal
    to ``np.random.default_rng([cfg.seed, point_idx, i])`` for sample i, the
    draw function makes the whole block's draws at once, one function per
    sample generator, and each sample's function is then called, in order,
    for its value. A draw whose SDP fails to certify is replaced by the next
    draw from the same generator, made by the same draw function as a block
    of one. Once the block's samples all have values, the fold turns them
    into their part of the tally, which :func:`_merge` adds in; on the
    sweeps no sample's value outlives its block. ``budget`` is the failures
    the run may still have: once the chunk's own exceed it, the run is over
    its budget, and the chunk draws nothing more and returns its failures
    alone.
    """
    cfg, point_idx, point, start, stop, budget = args
    draw, fold, _ = _HARNESS[cfg.experiment]
    tally: dict = {}
    failures: list[dict] = []
    methods_before = ROC_METHOD_COUNTS.copy()
    rows = (row for span in range(start, stop, SEED_SPAN)
            for row in _sample_seed_words(cfg.seed, point_idx, span, min(span + SEED_SPAN, stop)))
    for block_start in range(start, stop, BLOCK_SAMPLES):
        indices = range(block_start, min(block_start + BLOCK_SAMPLES, stop))
        rngs = [np.random.Generator(np.random.PCG64(_SampleSeed(next(rows)))) for _ in indices]
        values = []
        for sample_idx, rng, drawn in zip(indices, rngs, draw(cfg, point, rngs)):
            while True:
                try:
                    values.append(drawn())
                    break
                except SolverFailure as exc:
                    failures.append({"state": exc.state.to_json_dict(), "error": str(exc),
                                     "point": point, "sample": sample_idx})
                if len(failures) > budget:  # the run aborts, on its failures alone
                    return {"failures": failures}
                log.warning("point %s, sample %d: solve failed; sample redrawn", point, sample_idx)
                (drawn,) = draw(cfg, point, [rng])
        _merge(tally, fold(point, block_start, values))
    return {**tally, "failures": failures, "roc_methods": ROC_METHOD_COUNTS - methods_before}


def _chunks(samples: int, workers: int) -> list[tuple[int, int]]:
    """Sample ranges [start, stop) of one grid point: one contiguous range
    per worker, at most one per sample."""
    n = max(1, min(workers, samples))
    return [(i * samples // n, (i + 1) * samples // n) for i in range(n)]


def _merge(tally: dict, part: dict) -> None:
    """Merge ``part`` into ``tally`` by one rule: lists extend, counts add."""
    for key, item in part.items():
        if isinstance(item, list):
            tally.setdefault(key, []).extend(item)
        else:
            tally.setdefault(key, Counter()).update(item)


def run_experiment(cfg: SweepConfig, workers: int = 1) -> tuple[list, dict]:
    """Records (sweeps) or rows (theorem1, result2) of the run, and its tally.

    The chunks' tallies and the reductions' notes merge into the tally by
    :func:`_merge`, in sample order. Each grid point's folded ``"values"``,
    merged over its chunks, go to its reduction; the rest is returned.
    ``"failures"`` lists each redrawn draw with its state, error, grid point
    and sample index. ``"roc_methods"`` counts the RoC values returned per
    dispatch method, over all workers, including those computed for draws
    that were later redrawn. Only the ordering sweeps add more:
    ``"undecided"``, from their chunks (point, sample and RoC-difference
    bracket of each sample no stage could settle), and their reduction's
    note ``"ordering_decisions"`` (samples per :class:`DecisionStage`).

    With ``workers > 1`` each grid point runs on a fresh process pool of one
    worker per chunk. The run's failure budget is FAILURE_ABORT_FRACTION of
    its planned samples, at least 1. Each chunk is handed what is left of it
    after the earlier grid points, and stops drawing once its own failures
    exceed that; the run raises :class:`SweepAborted` once its merged
    failures exceed the budget. A chunk stops only when the run is already
    over budget, so whether a run aborts does not depend on the worker
    count, and a run under budget draws exactly what it would with no
    budget.
    """
    reduce = _HARNESS[cfg.experiment][2]
    points = [tuple(map(int, cfg.grid))] if cfg.experiment is Experiment.RESULT2_CHECK else cfg.grid
    limit = max(1.0, FAILURE_ABORT_FRACTION * cfg.samples * len(points))
    results: list = []
    failures: list[dict] = []
    tally: dict = {"failures": failures, "roc_methods": Counter()}
    for point_idx, point in enumerate(points):
        jobs = [(cfg, point_idx, point, a, b, limit - len(failures))
                for a, b in _chunks(cfg.samples, workers)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
                chunks = list(pool.map(_chunk, jobs))
        else:
            chunks = [_chunk(job) for job in jobs]
        for chunk in chunks:
            _merge(tally, chunk)
            if len(failures) > limit:
                raise SweepAborted(
                    f"{len(failures)} solver failures exceed the abort threshold "
                    f"({limit:.0f}); first offending state: {json.dumps(failures[0])}",
                    failures,
                )
        rows, notes = reduce(cfg, point, tally.pop("values"))
        results += rows
        _merge(tally, notes)
        log.info("point %s done, %d redraws so far", point, len(failures))
    return results, tally


def estimate_transition(records: list[SweepRecord]) -> float | None:
    """Smallest grid point whose fraction drops below one half."""
    for rec in sorted(records, key=lambda r: r.sweep_point):
        if rec.fraction < 0.5:
            return float(rec.sweep_point)
    return None


# ---------------------------------------------------------------------------
# persistence


def write_sweep_csv(rows: list, path: Path) -> None:
    """One CSV line per record or row, under a header of its dataclass's field names.

    Floats are written with ``str``, which equals ``repr``, so values round-trip exactly.
    """
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(rows[0])])
        writer.writerows(astuple(row) for row in rows)


@contextmanager
def _git_revision(root: Path = Path(__file__).resolve().parents[2]):
    """Starts ``git describe`` on the checkout rooted at ``root`` (by default
    the one whose ``src/`` holds this package, whatever the working
    directory; git never looks above ``root``, so a package installed inside
    another checkout does not read its revision) and yields a function that
    returns its HEAD, with ``-dirty`` appended when tracked files differ from
    it, or ``"unknown"`` without git or a checkout, or if git has not
    finished 10 s after the function is called. Git runs meanwhile; however
    the block is left, a git still running is then killed, and the process
    is reaped."""
    cmd = ["git", "-C", str(root), "describe", "--always", "--dirty", "--abbrev=40",
           "--exclude=*"]
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except OSError:
        yield lambda: "unknown"
        return

    def revision() -> str:
        with suppress(subprocess.TimeoutExpired):
            # its one line of output fits the pipe, so waiting before reading cannot block
            if proc.wait(10) == 0:
                return proc.communicate()[0].strip()
        return "unknown"

    with proc:
        try:
            yield revision
        finally:
            proc.kill()


def write_metadata(cfg: SweepConfig, path: Path, wall_time_s: float, extra: dict,
                   git_revision: str) -> None:
    meta = {
        "config": asdict(cfg),
        "git_revision": git_revision,
        "wall_time_s": wall_time_s,
        "package_version": __version__,
        **extra,
    }
    # the config's enums are written as their values
    path.write_text(json.dumps(meta, indent=2, sort_keys=True, default=lambda v: v.value) + "\n")


def run_and_save(cfg: SweepConfig, out_dir: str | Path, workers: int = 1) -> tuple[Path, Path]:
    """Run the configured experiment; write `<name>.csv` and `<name>_meta.json`,
    whose extras are the run's tally (plus ``transition_estimate`` for fig1).

    A run that aborts writes no CSV, and deletes one an earlier run left at
    ``<name>.csv``, so the directory never pairs a CSV with the sidecar of
    another run. Its sidecar holds the config, revision, wall time and every
    failed draw (``failures``), and the :class:`SweepAborted` it raises names
    that sidecar as ``meta_path``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = cfg.experiment.value
    if cfg.experiment is Experiment.SUBADDITIVITY_SWEEP:
        name += f"_{cfg.pure_state_choice.value}"
    csv_path, meta_path = out / f"{name}.csv", out / f"{name}_meta.json"
    start = time.perf_counter()
    with _git_revision() as git_revision:  # git describe runs alongside the sweep
        try:
            results, extra = run_experiment(cfg, workers)
        except SweepAborted as exc:
            csv_path.unlink(missing_ok=True)
            write_metadata(cfg, meta_path, wall_time_s=time.perf_counter() - start,
                           extra={"failures": exc.failures}, git_revision=git_revision())
            exc.meta_path = meta_path
            raise
        if cfg.experiment is Experiment.SUBADDITIVITY_SWEEP:
            extra["transition_estimate"] = estimate_transition(results)
        write_sweep_csv(results, csv_path)
        write_metadata(cfg, meta_path, wall_time_s=time.perf_counter() - start, extra=extra,
                       git_revision=git_revision())
    return csv_path, meta_path
