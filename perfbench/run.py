"""Benchmark of the cohkit CLI: Monte-Carlo throughput, set-up time, memory and failures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ordering-dim --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn. The metric names and units
come from ``BENCHMARK.json``; ``perfbench/README.md`` says why each workload
exists and which layer metric should move which end-to-end metric.

``--trace 0`` measures end to end: calls follow one another until
``--seconds`` have passed. Every call is a fresh interpreter started here; it
times ``import cohkit.cli`` (``setup_s``), then one ``cohkit.cli.main([...])``
call, and each call must write the first call's CSV byte for byte. Times are
rescaled to a reference machine speed measured around every call (see
``end_to_end_metrics``).
``--trace 1`` starts one traced interpreter instead (see ``child.py``) and
reports the per-layer metrics.

Every CSV is checked against properties that hold for any seed (and, at seed
0, against pinned counts). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Results, the
environment and the spans of a traced run are written under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A run must end within 180 s; children are killed once this much has passed.
RUN_BUDGET_S = 170.0
# Median time of child.calibrate() on the development machine (2-vCPU Intel Xeon)
# in its faster state; end-to-end times are rescaled to this machine speed.
REFERENCE_CALIBRATION_S = 0.085


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# output checks: properties of the coherence measures, valid for any seed


def _rows_at(rows: list[dict], point: float) -> dict[str, dict]:
    return {r["measure_pair"]: r for r in rows if float(r["sweep_point"]) == point}


def check_ordering_dim(rows: list[dict]) -> list[str]:
    # A qubit's robustness equals its l1 norm, so l1 and RoC never disagree at d=2.
    row = _rows_at(rows, 2)["l1:roc"]
    return [] if int(row["count_positive"]) == 0 else ["d=2 l1:roc has ordering violations"]


def check_ordering_pure(rows: list[dict]) -> list[str]:
    # A pure state's robustness equals its l1 norm.
    at = _rows_at(rows, 1)
    problems = []
    if int(at["l1:roc"]["count_positive"]) != 0:
        problems.append("rank-1 l1:roc has ordering violations")
    if at["l1:rel_entropy"]["count_positive"] != at["rel_entropy:roc"]["count_positive"]:
        problems.append("rank-1 l1:rel_entropy differs from rel_entropy:roc")
    return problems


def check_subadd_sweep(rows: list[dict]) -> list[str]:
    # The sigma family is sub-additive (docs/roc-sdp.md); RoC(|+>|+>) = 3 > 1 + 1.
    p0, p1 = _rows_at(rows, 0.0)[""], _rows_at(rows, 1.0)[""]
    problems = []
    if p0["count_positive"] != p0["count_total"]:
        problems.append("p=0 is not always sub-additive")
    if int(p1["count_positive"]) != 0:
        problems.append("p=1 is sub-additive")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    samples: int  # per grid point, in every call
    points: int
    rows: int
    pooled: bool  # timed calls use nproc workers
    check: Callable[[list[dict]], list[str]]
    pins: tuple[int, ...]  # count_positive of every row at seed 0

    def argv(self, seed: int, samples: int) -> list[str]:
        return [*self.args, "--samples", str(samples), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ordering-dim", ("fig2",), samples=100, points=9, rows=27, pooled=False,
            check=check_ordering_dim,
            pins=(5, 0, 5, 11, 5, 14, 12, 14, 24, 13, 14, 15, 12, 18, 22, 10, 20, 30, 16, 24, 26,
                  16, 18, 20, 12, 18, 18),
        ),
        Workload(
            "subadd-sweep", ("fig1", "--phi", "coherent"), samples=60, points=51, rows=51,
            pooled=True, check=check_subadd_sweep,
            pins=(60, 54, 46, 48, 48, 33, 39, 35, 26, 17, 11, 10, 3) + (0,) * 38,
        ),
        Workload(
            "ordering-pure", ("fig3", "--dim", "10", "--grid", "1"), samples=8000, points=1,
            rows=3, pooled=False, check=check_ordering_pure, pins=(484, 0, 484),
        ),
    )
}


def check_csv(wl: Workload, text: str, seed: int, samples: int) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != wl.rows:
        return [f"{len(rows)} rows, expected {wl.rows}"]
    problems = []
    for r in rows:
        total, positive = int(r["count_total"]), int(r["count_positive"])
        if total != samples or not 0 <= positive <= total or int(r["seed"]) != seed:
            problems.append(f"bad row {r}")
    if problems:
        return problems
    problems = wl.check(rows)
    if seed == 0 and samples == wl.samples:
        if tuple(int(r["count_positive"]) for r in rows) != wl.pins:
            problems.append("count_positive differs from the seed-0 pins")
    return problems


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts the child interpreters of one benchmark run inside a scratch directory."""

    def __init__(self, workload: Workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        self.n = 0
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, stem: str) -> str:
        self.n += 1
        return str(self.dir / f"{self.n:03d}-{stem}")

    def spawn(self, spec: dict) -> dict | None:
        spec = {**spec, "src": str(SRC), "report": self.path("report.json")}
        spec_path = self.path("spec.json")
        Path(spec_path).write_text(json.dumps(spec))
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
        }
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), spec_path],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            self.problems.append(f"child {spec_path} timed out")
            return None
        finally:
            try:  # pool workers left behind by a crashed child
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"child exited {proc.returncode}: {tail}")
            return None
        report = json.loads(Path(spec["report"]).read_text())
        report["setup_s"] = report["imported_at"] - spawned_at
        return report

    def csv_of(self, out: str, rc: int, samples: int) -> str | None:
        """The checked CSV of one CLI call, or None after recording why it failed."""
        found = sorted(Path(out).glob("*.csv"))
        if rc != 0 or len(found) != 1:
            self.problems.append(f"call into {out} exited {rc} with {len(found)} CSV files")
            return None
        text = found[0].read_text()
        problems = check_csv(self.wl, text, self.seed, samples)
        self.problems.extend(f"{Path(out).name}: {p}" for p in problems)
        return None if problems else text


def _redraws(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def run_end_to_end(runner: Runner, seconds: float, samples: int) -> dict:
    wl = runner.wl
    per_call = samples * wl.points
    threads = nproc() if wl.pooled else 1
    redraw_file = runner.path("redraws")
    attempted = failed = 0
    environment = reference = None
    calls = []
    start = time.monotonic()
    while time.monotonic() - start < seconds and time.monotonic() < runner.deadline:
        out = runner.path("out")
        report = runner.spawn({
            "mode": "call",
            "argv": wl.argv(runner.seed, samples) + ["--threads", str(threads), "--out", out],
            "workers": threads,
            "redraw_file": redraw_file,
            "environment": environment is None,
        })
        text = runner.csv_of(out, report["rc"], samples) if report else None
        shutil.rmtree(out, ignore_errors=True)
        attempted += per_call
        if report and environment is None:
            environment = report["environment"]
        reference = reference or text
        if text is None or text != reference:
            if text is not None:
                runner.problems.append("a call wrote a CSV that differs from the first call's")
            failed += per_call
            continue
        calls.append({
            "setup_s": report["setup_s"],
            "main_s": report["main_s"],
            "samples_per_s": per_call / report["main_s"],
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            "calibration_s": report["calibration_s"],
        })
    redraws = _redraws(redraw_file)
    return {
        "environment": environment,
        "csv_sha256": hashlib.sha256(reference.encode()).hexdigest() if reference else None,
        "threads": threads,
        "calls": calls,
        "attempted": attempted + redraws,
        "failed": failed + redraws,
        "redraws": redraws,
        "metrics": end_to_end_metrics(calls) if calls else None,
    }


def end_to_end_metrics(calls: list[dict]) -> dict:
    """Medians over the calls of a run, with each call's times rescaled to the reference
    machine speed.

    The CPUs of the shared machine run up to twice as slowly for seconds to
    minutes at a time. A call's ``machine_speed`` is REFERENCE_CALIBRATION_S
    over the time ``child.calibrate_capacity()`` took around that call; it
    divides throughput and multiplies set-up time, so that drift cancels. The
    raw medians are kept alongside.
    """
    speeds = [REFERENCE_CALIBRATION_S / c["calibration_s"] for c in calls]
    median = statistics.median
    return {
        "samples_per_s": median(c["samples_per_s"] / v for c, v in zip(calls, speeds)),
        "setup_s": median(c["setup_s"] * v for c, v in zip(calls, speeds)),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in calls),
        "raw_samples_per_s": median(c["samples_per_s"] for c in calls),
        "raw_setup_s": median(c["setup_s"] for c in calls),
        "machine_speed": median(speeds),
    }


def run_traced(runner: Runner, samples: int) -> dict:
    wl = runner.wl
    threads = nproc() if wl.pooled else 1
    passes = ("warmup", "untraced", "traced", "untraced_again") + (("pooled",) if threads > 1 else ())
    spans_file = str(WORK / f"spans-{wl.name}-seed{runner.seed}.csv")
    report = runner.spawn({
        "mode": "trace",
        "argv": [*wl.args, "--seed", str(runner.seed)],
        "samples": samples,
        "threads": threads,
        "out": {p: runner.path(p) for p in passes},
        "redraw_file": runner.path("redraws"),
        "spans_file": spans_file,
        "environment": True,
    })
    attempted = sum(wl.points * (1 if p == "warmup" else samples) for p in passes)
    if report is None:
        return {"attempted": attempted, "failed": attempted, "metrics": None, "environment": None}
    failed = report["redraws_total"]
    texts = {}
    for p in passes:
        n = 1 if p == "warmup" else samples
        texts[p] = runner.csv_of(report["passes"][p]["out"], report["passes"][p]["rc"], n)
        if texts[p] is None:
            failed += n * wl.points
    full = [texts[p] for p in passes if p != "warmup" and texts[p] is not None]
    if len(set(full)) > 1:
        runner.problems.append("the passes of the traced run wrote different CSVs")
    if not report["ladder_ok"]:
        runner.problems.append("a solver ladder solve did not certify")
    return {
        "environment": report.get("environment"),
        "passes": {p: report["passes"][p]["wall_s"] for p in passes},
        "spans_file": os.path.relpath(spans_file, ROOT),
        "attempted": attempted + report["redraws_total"],
        "failed": failed,
        "metrics": report["metrics"],
    }


# ---------------------------------------------------------------------------
# entry point


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 samples: int | None = None) -> dict | None:
    """One benchmark run; returns its record (the result object is ``record["result"]``),
    or None if nothing could be measured."""
    wl = WORKLOADS[name]
    samples = samples or wl.samples
    spec = benchmark_spec()
    runner = Runner(wl, seed)
    try:
        body = run_traced(runner, samples) if trace else run_end_to_end(runner, seconds, samples)
    finally:
        runner.close()
    for problem in runner.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    if body["metrics"] is None:
        return None
    if not trace:
        body["metrics"]["completed_fraction"] = 1.0 - body["failed"] / body["attempted"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": body["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": not runner.problems,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples_per_point": samples,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "git_revision": _git_revision(),
        "problems": runner.problems,
        **body,
        "result": result,
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return record


def _print_summary(record: dict) -> None:
    name, result = record["workload"], record["result"]
    rows = [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
    rows.append(("failed_fraction", result["failed"] / result["attempted"], "fraction"))
    if not record["trace"]:
        rows += [(metric, record["metrics"][metric], unit) for metric, unit in
                 (("raw_samples_per_s", "1/s"), ("raw_setup_s", "s"), ("machine_speed", "ratio"))]
    for metric, value, unit in rows:
        print(f"{name:14s} {metric:36s} {value:.6g} {unit}")
    print(f"{name:14s} {'correct':36s} {result['correct']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "cohkit" / "cli.py").is_file():
        print(f"error: no cohkit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if record is None:
            status = 1
            continue
        _print_summary(record)
        print(json.dumps(record["result"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
