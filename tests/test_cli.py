import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohkit.cli
import cohkit.experiments
import cohkit.sdp
from cohkit import validation
from cohkit.cli import build_parser, main
from cohkit.sdp import RocSolution, SolveStatus
from cohkit.states import random_density


SRC = Path(cohkit.cli.__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the thread count of the OpenBLAS that numpy loaded once cohkit.cli is
# imported, or "unknown" if numpy bundles no OpenBLAS that can be asked.
OPENBLAS_THREADS = """
import ctypes, glob, os
import cohkit.cli
import numpy
bundled = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
libs = glob.glob(os.path.join(bundled, "*openblas*"))
names = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
for lib in map(ctypes.CDLL, libs):
    for name in names:
        if hasattr(lib, name):
            print(getattr(lib, name)())
            raise SystemExit
print("unknown")
"""


def fresh_python(args: list[str], **blas_env: str) -> subprocess.CompletedProcess:
    """``python args`` in a new interpreter whose BLAS thread variables are only ``blas_env``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**env, **blas_env, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def run(argv: list[str]) -> int:
    """Exit code of the CLI, whether returned or raised by argparse / state loading."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(random_density(3, 3, np.random.default_rng(0)).to_json_dict()))
    return str(path)


def test_measure_prints_every_measure(state_file, capsys):
    assert run(["measure", state_file]) == 0
    out = capsys.readouterr().out
    for key in ("l1 = ", "rel_entropy = ", "roc = ", "(method=sdp)", "sdp_gap = "):
        assert key in out
    assert "seed" not in out


def test_roc_solve_prints_certificates(state_file, capsys):
    assert run(["roc-solve", state_file, "--tol", "1e-7"]) == 0
    out = capsys.readouterr().out
    assert "status = optimal" in out
    assert "recomputed_gap = " in out
    assert "seed" not in out


# sha256 of the stderr of ``roc-solve --verbose`` on the state_file state,
# recorded when the rows were written by a trace stream inside sdp.solve
VERBOSE_STDERR_HASH = "c72c985bc3adea12d1b6076e36d1563b1ee623a652612a368c14e2ab9735baa4"


def test_roc_solve_verbose_traces_iterates_to_stderr(state_file, capsys):
    assert run(["roc-solve", state_file, "--verbose"]) == 0
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[0] == "mu,primal,dual,gap"
    assert len(lines) > 3
    assert hashlib.sha256(err.encode()).hexdigest() == VERBOSE_STDERR_HASH


# Per verb, the options it takes, in the order its --help lists them
_SWEEP_FLAGS = ["--verbose", "--seed", "--samples", "--threads", "--out"]
VERB_FLAGS = {
    "measure": ["--tol"],
    "roc-solve": ["--tol", "--verbose"],
    "theorem1": ["--n", *_SWEEP_FLAGS],
    "fig1": ["--grid", "--phi", *_SWEEP_FLAGS],
    "fig2": ["--grid", *_SWEEP_FLAGS],
    "fig3": ["--grid", "--dim", *_SWEEP_FLAGS],
    "result2": ["--grid", *_SWEEP_FLAGS],
    "validate": ["--seed", "--samples"],
}


def test_each_verb_takes_only_the_options_that_change_its_output():
    [verbs] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        verb: [flag for action in p._actions for flag in action.option_strings
               if flag not in ("-h", "--help")]
        for verb, p in verbs.choices.items()
    }
    assert flags == VERB_FLAGS


@pytest.mark.parametrize("verbose", [True, False])
def test_an_experiment_verb_logs_each_grid_point_only_when_verbose(verbose, tmp_path):
    argv = ["-m", "cohkit.cli", "fig2", "--grid", "2", "--samples", "2", "--threads", "1",
            "--out", str(tmp_path)]
    proc = fresh_python(argv + ["--verbose"] * verbose)
    assert proc.returncode == 0, proc.stderr
    done = [line for line in proc.stderr.splitlines()
            if line.startswith("INFO cohkit.experiments: point 2 done")]
    assert len(done) == verbose


def test_version(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out == "cohkit 0.1.0\n"


@pytest.mark.parametrize(
    "verb, grid, samples",
    [
        ("theorem1", (1, 2, 3, 4), 20),
        ("fig1", tuple(i / 50 for i in range(51)), 1000),
        ("fig2", tuple(range(2, 11)), 10000),
        ("fig3", tuple(range(1, 11)), 10000),
        ("result2", (2, 3, 4), 100),
    ],
)
def test_experiment_verb_defaults(verb, grid, samples):
    # fig3's default ranks are filled in from --dim after parsing
    args = build_parser().parse_args([verb])
    cfg = cohkit.cli._experiment_config(args, cohkit.cli._EXPERIMENT_VERBS[verb][0])
    assert (cfg.grid, cfg.samples) == (grid, samples)
    if verb == "fig3":
        assert cfg.dim == 10


@pytest.mark.parametrize("dim", [4, 12])
def test_fig3_default_ranks_are_every_rank_up_to_dim(dim, tmp_path):
    argv = ["fig3", "--dim", str(dim), "--samples", "1", "--threads", "1", "--out", str(tmp_path)]
    assert run(argv) == 0
    rows = (tmp_path / "ordering_vs_rank.csv").read_text().splitlines()[1:]
    assert sorted({int(row.split(",")[1]) for row in rows}) == list(range(1, dim + 1))


def test_an_out_path_that_is_a_file_exits_2_before_any_sample(monkeypatch, tmp_path, capsys):
    def run_fails(*args, **kwargs):
        raise OSError("cannot fork")

    monkeypatch.setattr(cohkit.experiments, "run_experiment", run_fails)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["fig2", "--grid", "2", "--samples", "1", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # an OSError raised inside the run is not bad usage
    with pytest.raises(OSError, match="cannot fork"):
        run(["fig2", "--grid", "2", "--samples", "1", "--out", str(tmp_path / "fresh")])


EXPERIMENT_VERBS = {
    "theorem1": (["--n", "1,2"], "theorem1_check.csv"),
    "fig1": (["--grid", "0,1", "--phi", "entangled"], "subadditivity_sweep_entangled.csv"),
    "fig2": (["--grid", "2,3"], "ordering_vs_dimension.csv"),
    "fig3": (["--dim", "4", "--grid", "1,4"], "ordering_vs_rank.csv"),
    "result2": (["--grid", "2,3"], "result2_check.csv"),
}


@pytest.mark.parametrize("verb", sorted(EXPERIMENT_VERBS))
def test_experiment_verbs_write_csv_and_metadata(verb, tmp_path, capsys):
    extra, csv_name = EXPERIMENT_VERBS[verb]
    argv = [verb, *extra, "--samples", "2", "--seed", "3", "--threads", "1"]
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / csv_name).stat().st_size > 0
    assert (tmp_path / csv_name.replace(".csv", "_meta.json")).exists()
    assert f"wrote {tmp_path / csv_name}" in capsys.readouterr().out


def test_default_threads_are_the_cpus_this_process_may_run_on(monkeypatch, tmp_path):
    # on a many-CPU host whose affinity mask leaves this process one CPU, a
    # default run must not fork a pool of host-CPU-count workers
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cohkit.experiments, "ProcessPoolExecutor", NoPool)
    assert build_parser().parse_args(["fig1"]).threads == 1
    assert run(["fig1", "--grid", "0,1", "--samples", "2", "--out", str(tmp_path)]) == 0


def test_threads_beyond_the_usable_cpus_start_no_more_workers(monkeypatch, tmp_path):
    # a pool forks all its workers at once; --threads 1000 over 8 samples
    # would otherwise fork 8
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cohkit.cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cohkit.experiments, "ProcessPoolExecutor", InlinePool)
    argv = ["fig1", "--grid", "0.3", "--samples", "8", "--threads", "1000", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert sizes == [2]


def test_validate_passes(capsys):
    assert run(["validate", "--samples", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 8
    assert out.rstrip().endswith("seed = 1")


def test_validate_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        validation,
        "CHECKS",
        tuple(
            dataclasses.replace(c, violations=lambda rng: [1.0]) if c.name == "roc_within_l1" else c
            for c in validation.CHECKS
        ),
    )
    assert run(["validate", "--samples", "2"]) == 1
    assert "FAIL roc_within_l1" in capsys.readouterr().out


@pytest.mark.parametrize("blas_env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_importing_the_cli_pins_blas_unless_set(blas_env, threads):
    if threads != "1" and (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS uses at most one thread per CPU")
    proc = fresh_python(["-c", OPENBLAS_THREADS], **blas_env)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "unknown":
        pytest.skip("numpy bundles no OpenBLAS that reports its thread count")
    assert proc.stdout.strip() == threads


def test_validate_entry_point_end_to_end():
    proc = fresh_python(["-m", "cohkit.cli", "validate", "--samples", "1", "--seed", "0"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 8
    assert lines[-1] == "seed = 0"


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "{state}", "--threads", "2"],
        ["measure", "{state}", "--seed", "1"],
        ["roc-solve", "{state}", "--threads", "2"],
        ["roc-solve", "{state}", "--seed", "1"],
        ["validate", "--threads", "2"],
        ["fig1", "--grid", "0,x"],
        ["fig2", "--grid", ","],
        ["fig1", "--grid", "1.5", "--samples", "1"],
        ["fig3", "--grid", "11", "--dim", "10", "--samples", "1"],
        ["fig2", "--threads", "0"],
        ["fig2", "--threads", "-1"],
        ["measure", "{state}", "--tol", "0"],
        ["measure", "{state}", "--tol", "-1"],
        ["measure", "{state}", "--tol", "nan"],
        ["measure", "{state}", "--tol", "inf"],
        ["roc-solve", "{state}", "--tol", "0"],
        ["roc-solve", "{state}", "--tol", "-1"],
        ["roc-solve", "{state}", "--tol", "nan"],
        ["measure", "{state}", "--tol", "1"],
        ["measure", "{state}", "--tol", "1000"],
        ["roc-solve", "{state}", "--tol", "1"],
        ["roc-solve", "{state}", "--tol", "1000"],
        ["validate", "--samples", "0"],
        ["validate", "--samples", "-3"],
        ["validate", "--seed", "-1"],
        ["fig2", "--seed", "-1"],
        ["measure", "{state}", "--verbose"],
        ["validate", "--verbose"],
    ],
)
def test_bad_usage_exits_2(argv, state_file, tmp_path):
    argv = [a.format(state=state_file) for a in argv]
    if argv[0].startswith("fig"):
        argv += ["--out", str(tmp_path)]
    assert run(argv) == 2


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        '{"dims": [], "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}',
        '{"re": [1.0]}',
        '{"dims": [-2, -2], "re": [0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25],'
        ' "im": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        # subsystem dimensions must be JSON integers: no truncation, no booleans
        '{"dims": [2.9, 2.2], "re": [0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25],'
        ' "im": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}',
        '{"dims": [true, 4], "re": [0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25],'
        ' "im": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}',
    ],
)
@pytest.mark.parametrize("verb", ["measure", "roc-solve"])
def test_malformed_state_exits_2(verb, content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert run([verb, str(path)]) == 2
    assert "cannot load state" in capsys.readouterr().err
    assert run([verb, str(tmp_path / "missing.json")]) == 2


REAL_SOLVE = cohkit.sdp.solve


def _never_optimal(problem, tol=1e-8, accept=None):
    # a solver that never certifies never calls accept, so it is not forwarded
    sol = REAL_SOLVE(problem, tol=tol)
    return RocSolution(
        primal_diag=sol.primal_diag,
        dual_witness=sol.dual_witness,
        primal_value=sol.primal_value,
        dual_value=sol.dual_value,
        gap=sol.gap,
        iterations=sol.iterations,
        status=SolveStatus.MAX_ITER,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "{state}"],
        ["roc-solve", "{state}"],
        ["theorem1", "--n", "2", "--samples", "1"],
        # a failing pair is redrawn and decided like a first draw, so the
        # run aborts only once its solves fail for two of the ten samples:
        # at seed 79, samples 1 and 7 reach the solver
        ["fig2", "--grid", "10", "--samples", "10", "--seed", "79"],
    ],
)
def test_solver_failure_exits_3(argv, state_file, tmp_path, monkeypatch, capsys):
    solves = []

    def counted_never_optimal(problem, **kwargs):
        solves.append(problem)
        return _never_optimal(problem, **kwargs)

    monkeypatch.setattr(cohkit.sdp, "solve", counted_never_optimal)
    monkeypatch.setattr(cohkit.cli, "solve", counted_never_optimal)
    argv = [a.format(state=state_file) for a in argv]
    if argv[0] in ("theorem1", "fig2"):
        argv += ["--threads", "1", "--out", str(tmp_path)]
    assert run(argv) == 3
    assert solves, "the run never reached the solver"
    assert "error:" in capsys.readouterr().err


def test_an_aborted_sweep_keeps_its_failures_in_the_sidecar(tmp_path, monkeypatch, capsys):
    # sample 0 of seed 5 at p = 0.1 reaches the solver and fails, its redraw
    # fails too, and two failures exceed the one that thirty samples may have
    argv = ["fig1", "--grid", "0.1", "--samples", "30", "--seed", "5", "--threads", "1",
            "--out", str(tmp_path)]
    assert run(argv) == 0  # a clean run first, whose CSV the aborted run deletes
    monkeypatch.setattr(cohkit.sdp, "solve", _never_optimal)
    assert run(argv) == 3
    meta_path = tmp_path / "subadditivity_sweep_coherent_meta.json"
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: 2 solver failures exceed the abort threshold")
    assert str(meta_path) in err[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [meta_path.name]  # no CSV
    meta = json.loads(meta_path.read_text())
    assert meta["config"]["seed"] == 5 and meta["config"]["samples"] == 30
    assert {"git_revision", "wall_time_s"} <= meta.keys()
    assert [(f["point"], f["sample"]) for f in meta["failures"]] == [(0.1, 0), (0.1, 0)]
    assert all("max_iter" in f["error"] and f["state"]["dims"] == [2, 2] for f in meta["failures"])
    assert meta["failures"][0]["state"] != meta["failures"][1]["state"]  # the redraw is a new state


def test_pooled_sweep_abort_exits_3(tmp_path, monkeypatch, capsys):
    # forked workers inherit the patched solver, so every draw that reaches the
    # SDP fails in a worker; of ten seed-79 pairs at d=10, two do, samples 1
    # and 7, one in each worker's chunk, which exceeds the one failure ten
    # samples may have
    monkeypatch.setattr(cohkit.sdp, "solve", _never_optimal)
    argv = ["fig2", "--grid", "10", "--samples", "10", "--seed", "79", "--threads", "2",
            "--out", str(tmp_path)]
    assert run(argv) == 3
    assert "2 solver failures exceed the abort threshold" in capsys.readouterr().err
