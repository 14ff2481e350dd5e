"""One fresh interpreter of the benchmark.

``run.py`` starts this script as ``python3 child.py SPEC.json`` with the
checkout's ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread. It times
``import cohkit.cli`` first thing, then does what the spec asks and writes a
JSON report to ``spec["report"]``:

* ``mode = "call"``: one timed ``cohkit.cli.main(argv)``, with the machine
  speed calibrated just before and just after it.
* ``mode = "trace"``: a warm-up call, then an untraced, a traced and again an
  untraced pass, for a pooled workload a pass at ``threads`` workers that
  counts process pools, then the solver ladder; reports the per-layer metrics.
"""

import time

import cohkit.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class RedrawCounter(logging.Handler):
    """Appends one byte to a file for each sample a sweep redraws after a solver failure.

    Forked pool workers inherit the handler, so the file counts redraws made
    in every process of the run.
    """

    def __init__(self, path: str):
        super().__init__(logging.WARNING)
        self.path = path

    def emit(self, record: logging.LogRecord) -> None:
        if "redrawn" in record.getMessage():
            with open(self.path, "ab") as fh:
                fh.write(b".")


def redraws(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def timed_main(argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    rc = cohkit.cli.main(argv)
    return rc, time.perf_counter() - start


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALIBRATION_ROUNDS = 5000


def environment() -> dict:
    """Library versions and BLAS set-up of this interpreter."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_runtime": _openblas_threads(np),
    }


def _openblas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_kb() -> int:
    """Largest peak resident set of this process and any child it has waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed mix of interpreter work and
    small dense linear algebra like the solver's.

    Nothing in it comes from cohkit, so no change to the program can move it;
    it moves only with the speed the shared machine gives this process.
    """
    import numpy as np

    a = np.eye(8) * 8.0 + np.arange(64.0).reshape(8, 8) % 3 / 10.0
    a = a + a.T
    b = np.ones(8)
    start = time.perf_counter()
    total = 0.0
    for i in range(CALIBRATION_ROUNDS):
        c = np.linalg.cholesky(a)
        h = np.abs(c @ c.T)
        total += float(np.linalg.solve(a, b) @ b) + float(np.sum(h * h)) + (i % 7) * 0.5
    return time.perf_counter() - start


def calibrate_capacity(workers: int) -> float:
    """Calibration time for the CPU capacity that ``workers`` workers get.

    One worker runs where the scheduler put this process, so it is measured
    there. The CPUs of a shared machine slow down one at a time, so for a
    pool each CPU is measured in turn and their speeds are added up.
    """
    if workers == 1:
        return calibrate()
    cpus = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return len(speeds) / sum(speeds)


def run_call(spec: dict) -> dict:
    logging.getLogger("cohkit").addHandler(RedrawCounter(spec["redraw_file"]))
    before = calibrate_capacity(spec["workers"])
    rc, main_s = timed_main(spec["argv"])
    calibration_s = (before + calibrate_capacity(spec["workers"])) / 2
    return {"rc": rc, "main_s": main_s, "calibration_s": calibration_s,
            "peak_rss_kb": _peak_rss_kb()}


def run_trace(spec: dict) -> dict:
    import tracing

    argv = spec["argv"]
    logging.getLogger("cohkit").addHandler(RedrawCounter(spec["redraw_file"]))
    report: dict = {"passes": {}}

    def call(name: str, threads: int, out: str, samples: int = spec["samples"]) -> float:
        rc, wall = timed_main(
            argv + ["--samples", str(samples), "--threads", str(threads), "--out", out]
        )
        report["passes"][name] = {"rc": rc, "wall_s": wall, "out": out}
        return wall

    call("warmup", 1, spec["out"]["warmup"], samples=1)
    untraced_s = call("untraced", 1, spec["out"]["untraced"])

    tracer = tracing.Tracer()
    before = redraws(spec["redraw_file"])
    tracer.install()
    try:
        traced_s = call("traced", 1, spec["out"]["traced"])
    finally:
        tracer.uninstall()
    traced_redraws = redraws(spec["redraw_file"]) - before
    untraced_s = (untraced_s + call("untraced_again", 1, spec["out"]["untraced_again"])) / 2
    if spec["threads"] > 1:
        with tracer.counting_pools():
            call("pooled", spec["threads"], spec["out"]["pooled"])
    ladder_metrics, ladder_ok = tracing.solver_ladder()

    tracer.write_spans(spec["spans_file"])
    metrics = tracer.layer_metrics(traced_s=traced_s, untraced_s=untraced_s, redraws=traced_redraws)
    metrics.update(ladder_metrics)
    report.update(metrics=metrics, ladder_ok=ladder_ok, redraws_total=redraws(spec["redraw_file"]))
    return report


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    source = Path(cohkit.cli.__file__).resolve()
    if Path(spec["src"]).resolve() not in source.parents:
        raise SystemExit(f"cohkit was imported from {source}, not from {spec['src']}")
    report = run_trace(spec) if spec["mode"] == "trace" else run_call(spec)
    report["imported_at"] = IMPORTED_AT
    if spec.get("environment"):
        report["environment"] = environment()
    Path(spec["report"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
