"""Span tracer for the cohkit layers, kept entirely in the benchmark's files.

``Tracer.install()`` replaces each layer's public functions, at the name
where their callers look them up, with wrappers that record a span
``[name, start, end, parent]`` in memory. ``uninstall()`` restores the
originals. Spans are written out only when the run ends.

Every solution the wrapped ``sdp.solve`` returns is audited with
``sdp.verify_certificates`` while tracing is paused. The audit is recorded as
an ``AUDIT`` span, so its time is not charged to any layer's self time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import statistics
import time
from collections import Counter, defaultdict

AUDIT = "trace.audit"
# Percentiles tried for the solve-time tail, highest first, in tenths of a percent.
TAIL_PERMILLE = (999, 990, 900, 750, 500)
# At least this many solves must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10
LADDER_DIMS = (3, 4, 8, 10, 16, 32, 64)
LADDER_REPEATS = 5
LADDER_SEED = 1705
SOLVE_STATUSES = ("optimal", "max_iter", "numerical_failure")
ROC_METHODS = ("closed_form_qubit", "pure_state_l1", "sdp")


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_MIN_BEYOND values above it.

    Nearest-rank percentiles; (0, 0) when there are too few values.
    """
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = max(1, -(-n * permille // 1000))
        if n - rank >= TAIL_MIN_BEYOND:
            return permille / 10.0, ordered[rank - 1]
    return 0.0, 0.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solves: list[dict] = []
        self.pool_ms: Counter = Counter()
        self._solve_keys: set[bytes] = set()
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self) -> None:
        """Wrap each layer's public functions where their callers look them up."""
        from cohkit import cli, experiments, linalg, measures, sdp, states

        self._sdp = sdp
        for attr in ("random_density", "sigma_family", "mix_with_pure"):
            self._patch(experiments, attr, "states.sample")
        self._patch(states.DensityMatrix, "__post_init__", "states.validate")
        self._patch(linalg, "hermitian_eig", "linalg.eig")
        self._patch(linalg, "partial_trace", "linalg.partial_trace")
        self._patch(measures, "roc", "measures.roc", self._after_roc)
        self._patch(measures, "l1_coherence", "measures.l1")
        self._patch(measures, "rel_entropy_coherence", "measures.rel_entropy")
        self._patch(experiments, "subadditivity_gap", "measures.subadditivity_gap")
        self._patch(sdp, "solve", "sdp.solve", self._after_solve)
        self._patch(cli, "run_and_save", "experiments.run")
        self._patch(experiments, "write_sweep_csv", "experiments.write")
        self._patch(experiments, "write_metadata", "experiments.write")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_roc(self, idx: int, args, value) -> None:
        self.counts[f"measures.roc.{value.method.value}"] += 1

    def _after_solve(self, idx: int, args, sol) -> None:
        self._paused = True
        start = time.perf_counter()
        try:
            rho = args[0].rho
            self._solve_keys.add(hashlib.blake2b(rho.mat.tobytes(), digest_size=16).digest())
            record = {
                "ms": (self.spans[idx][2] - self.spans[idx][1]) * 1e3,
                "iters": sol.iterations,
                "status": sol.status.value,
                "gap": 0.0,
                "residual": 0.0,
            }
            if sol.dual_witness is not None:
                report = self._sdp.verify_certificates(sol, rho)
                record["gap"] = report.gap
                record["residual"] = max(
                    report.primal_feasibility_violation, report.dual_feasibility_violation
                )
            self.solves.append(record)
        finally:
            self._paused = False
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([AUDIT, start, time.perf_counter(), parent])

    @contextlib.contextmanager
    def counting_pools(self):
        """Count the process pools the experiments start, and time their set-up and teardown.

        Counted in the parent process: construction plus every ``submit``
        (which forks the workers) is set-up; ``shutdown`` is teardown.
        """
        from cohkit import experiments

        base = experiments.ProcessPoolExecutor
        counts, pool_ms = self.counts, self.pool_ms

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                self._opened = time.perf_counter()
                super().__init__(*args, **kwargs)
                counts["experiments.pools_started"] += 1
                pool_ms["setup"] += (time.perf_counter() - self._opened) * 1e3

            def submit(self, *args, **kwargs):
                start = time.perf_counter()
                future = super().submit(*args, **kwargs)
                counts["experiments.chunks"] += 1
                pool_ms["setup"] += (time.perf_counter() - start) * 1e3
                return future

            def shutdown(self, *args, **kwargs):
                start = time.perf_counter()
                super().shutdown(*args, **kwargs)
                end = time.perf_counter()
                pool_ms["teardown"] += (end - start) * 1e3
                pool_ms["lifetime"] += (end - self._opened) * 1e3

        experiments.ProcessPoolExecutor = CountingPool
        try:
            yield
        finally:
            experiments.ProcessPoolExecutor = base

    # -- reporting ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["idx", "name", "start_s", "end_s", "parent"])
            for idx, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([idx, name, repr(start), repr(end), parent])

    def layer_metrics(self, traced_s: float, untraced_s: float, redraws: int) -> dict:
        selfs = self_times(self.spans)
        calls: Counter = Counter()
        total_ms: Counter = Counter()
        self_ms: Counter = Counter()
        durations: dict[str, list[float]] = defaultdict(list)
        eig_in_roc = 0
        for (name, start, end, parent), own in zip(self.spans, selfs):
            calls[name] += 1
            total_ms[name] += (end - start) * 1e3
            self_ms[name] += own * 1e3
            durations[name].append((end - start) * 1e6)
            if name == "linalg.eig" and parent >= 0 and self.spans[parent][0] == "measures.roc":
                eig_in_roc += 1

        roc_calls = calls["measures.roc"]
        solve_ms = sorted(s["ms"] for s in self.solves)
        iters = sorted(s["iters"] for s in self.solves)
        statuses = Counter(s["status"] for s in self.solves)
        tail_pct, tail_ms = tail(solve_ms)
        m = {
            "states.sample_calls": calls["states.sample"],
            "states.sample_self_ms": self_ms["states.sample"],
            "states.validate_calls": calls["states.validate"],
            "states.validate_ms": total_ms["states.validate"],
            "states.validate_us_p50": _median(durations["states.validate"]),
            "linalg.eig_calls": calls["linalg.eig"],
            "linalg.eig_ms": total_ms["linalg.eig"],
            "linalg.partial_trace_calls": calls["linalg.partial_trace"],
            "linalg.partial_trace_ms": total_ms["linalg.partial_trace"],
            "measures.roc_calls": roc_calls,
            "measures.roc_self_ms": self_ms["measures.roc"],
            "measures.eig_per_roc": eig_in_roc / roc_calls if roc_calls else 0.0,
            "measures.rel_entropy_ms": total_ms["measures.rel_entropy"],
            "measures.l1_ms": total_ms["measures.l1"],
            "sdp.solve_calls": len(self.solves),
            "sdp.solve_unique_ratio": len(self._solve_keys) / len(self.solves) if self.solves else 0.0,
            "sdp.solve_ms_p50": _median(solve_ms),
            "sdp.solve_ms_tail": tail_ms,
            "sdp.solve_tail_pct": tail_pct,
            "sdp.newton_iters_total": sum(iters),
            "sdp.newton_iters_p50": _median(iters),
            "sdp.newton_iters_max": max(iters, default=0),
            "sdp.us_per_iter": sum(solve_ms) * 1e3 / sum(iters) if sum(iters) else 0.0,
            "sdp.gap_max": max((s["gap"] for s in self.solves), default=0.0),
            "sdp.cert_residual_max": max((s["residual"] for s in self.solves), default=0.0),
            "experiments.self_ms": self_ms["experiments.run"],
            "experiments.write_ms": total_ms["experiments.write"],
            "experiments.pools_started": self.counts["experiments.pools_started"],
            "experiments.pool_ms": self.pool_ms["lifetime"],
            "experiments.pool_setup_ms": self.pool_ms["setup"],
            "experiments.pool_teardown_ms": self.pool_ms["teardown"],
            "experiments.chunks": self.counts["experiments.chunks"],
            "experiments.redraws": redraws,
            "trace.spans": len(self.spans),
            "trace.audit_ms": total_ms[AUDIT],
            "trace.traced_wall_ms": traced_s * 1e3,
            "trace.untraced_wall_ms": untraced_s * 1e3,
            "trace.overhead_ratio": (traced_s - total_ms[AUDIT] / 1e3) / untraced_s,
        }
        for method in ROC_METHODS:
            m[f"measures.roc.{method}"] = self.counts[f"measures.roc.{method}"]
        for status in SOLVE_STATUSES:
            m[f"sdp.status.{status}"] = statuses[status]
        return m


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def solver_ladder() -> tuple[dict, bool]:
    """Time ``sdp.solve`` directly on fixed-seed full-rank states, real and complex.

    Covers dimensions no workload reaches. Returns the ladder rows and whether
    every solve ended optimal with a certificate.
    """
    import numpy as np

    from cohkit import sdp
    from cohkit.states import DensityMatrix, random_density

    rows: dict = {}
    all_certified = True
    for kind_idx, kind in enumerate(("real", "complex")):
        for d in LADDER_DIMS:
            rng = np.random.default_rng([LADDER_SEED, kind_idx, d])
            if kind == "complex":
                rho = random_density(d, d, rng)
            else:
                g = rng.standard_normal((d, d))
                m = g @ g.T
                rho = DensityMatrix(m / np.trace(m))
            times = []
            for _ in range(LADDER_REPEATS):
                start = time.perf_counter()
                sol = sdp.solve(sdp.build(rho))
                times.append((time.perf_counter() - start) * 1e3)
            all_certified &= sol.status is sdp.SolveStatus.OPTIMAL and sol.dual_witness is not None
            rows[f"sdp.ladder.{kind}.d{d}.ms_p50"] = _median(times)
            rows[f"sdp.ladder.{kind}.d{d}.iters"] = sol.iterations
    return rows, all_certified
