import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cohkit
import cohkit.experiments
import cohkit.sdp
from cohkit.experiments import (
    Experiment,
    PhiChoice,
    SweepAborted,
    SweepConfig,
    _chunks,
    estimate_transition,
    run_and_save,
    run_experiment,
    write_metadata,
    write_sweep_csv,
)
from cohkit.measures import MEASURE_PAIRS, DecisionStage, Method, ordering_decisions
from cohkit.sdp import RocSolution, SolveStatus
from cohkit.states import (
    DensityMatrix,
    dephase,
    maximally_coherent,
    maximally_entangled_two_qubit,
    mix_with_pure,
    random_density,
    sigma_family,
    sigma_kmax,
)


def fig1_config(**over):
    base = dict(
        experiment=Experiment.SUBADDITIVITY_SWEEP,
        samples=120,
        seed=5,
        grid=(0.0, 0.1, 0.2, 0.3, 1.0),
    )
    base.update(over)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="samples"):
        fig1_config(samples=0)
    with pytest.raises(ValueError, match="seed"):
        fig1_config(seed=-1)
    with pytest.raises(ValueError, match="nonempty"):
        fig1_config(grid=())
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        fig1_config(grid=(0.0, 1.2))
    with pytest.raises(ValueError, match=">= 2"):
        SweepConfig(experiment=Experiment.ORDERING_VS_DIMENSION, samples=5, seed=0, grid=(1,))
    with pytest.raises(ValueError, match="rank"):
        SweepConfig(experiment=Experiment.ORDERING_VS_RANK, samples=5, seed=0, grid=(11,), dim=10)
    with pytest.raises(ValueError, match="positive integers"):
        SweepConfig(experiment=Experiment.THEOREM1_CHECK, samples=5, seed=0, grid=(0,))


@pytest.mark.parametrize("name", ["samples", "seed", "dim"])
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3"])
def test_config_integer_fields_reject_other_types(name, value):
    # rejected here, not later in _chunks or _sample_seed_words
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SweepConfig(**{"experiment": Experiment.SUBADDITIVITY_SWEEP, "samples": 2, "seed": 0,
                       "grid": (0.5,), name: value})


def test_samples_are_bounded_by_one_seed_word():
    # a sample index is one 32-bit word of its generator's seed; nothing is drawn
    with pytest.raises(ValueError, match=r"2\*\*32"):
        fig1_config(samples=2**32 + 1)
    assert fig1_config(samples=2**32).samples == 2**32


def test_config_json_dict_has_every_field_as_plain_json(tmp_path):
    cfg = fig1_config(pure_state_choice=PhiChoice.MAXIMALLY_ENTANGLED)
    path = tmp_path / "meta.json"
    write_metadata(cfg, path, wall_time_s=0.0, extra={}, git_revision="unknown")
    out = json.loads(path.read_text())["config"]
    # the sidecar's keys are sorted
    assert list(out) == sorted(f.name for f in dataclasses.fields(SweepConfig))
    assert out == {
        "experiment": "subadditivity_sweep",
        "samples": 120,
        "seed": 5,
        "grid": [0.0, 0.1, 0.2, 0.3, 1.0],
        "pure_state_choice": "entangled",
        "dim": 10,
    }
    assert json.loads(json.dumps(out)) == out


_DIM, _RANK = Experiment.ORDERING_VS_DIMENSION, Experiment.ORDERING_VS_RANK


@pytest.mark.parametrize("python_cfg, numpy_cfg", [
    # the numpy scalars that once left a CSV with no sidecar
    (SweepConfig(_DIM, 3, 0, (2, 3)), SweepConfig(_DIM, np.int64(3), 0, (2, 3))),
    (SweepConfig(_DIM, 3, 0, (2, 3)), SweepConfig(_DIM, 3, 0, tuple(np.arange(2, 4)))),
    # every integer field, and a float grid
    (SweepConfig(_RANK, 3, 1, (1, 3), dim=3),
     SweepConfig(_RANK, np.int64(3), np.int64(1), (np.int64(1), 3), dim=np.int64(3))),
    (SweepConfig(Experiment.SUBADDITIVITY_SWEEP, 2, 0, (0.0, 0.5, 1.0)),
     SweepConfig(Experiment.SUBADDITIVITY_SWEEP, 2, 0, tuple(np.linspace(0.0, 1.0, 3)))),
])
def test_a_config_of_numpy_scalars_writes_what_its_python_twin_does(tmp_path, python_cfg,
                                                                     numpy_cfg):
    outputs = []
    for name, cfg in (("numpy", numpy_cfg), ("python", python_cfg)):
        csv_path, meta_path = run_and_save(cfg, tmp_path / name)
        meta = json.loads(meta_path.read_text())
        del meta["wall_time_s"], meta["git_revision"]
        outputs.append((csv_path.read_bytes(), meta))
    assert outputs[0] == outputs[1]


def test_subadditivity_sweep_endpoints_and_monotonicity():
    records = run_experiment(fig1_config())[0]
    assert records[0].fraction == 1.0
    assert records[-1].fraction == 0.0
    for a, b in zip(records, records[1:]):
        assert b.fraction <= a.fraction + 2 * (a.stderr + b.stderr)
    for rec in records:
        assert rec.count_total == 120
        expected_se = np.sqrt(rec.fraction * (1 - rec.fraction) / rec.count_total)
        assert abs(rec.stderr - expected_se) < 1e-15
    assert estimate_transition(records) == pytest.approx(0.2)


def test_subadditivity_sweep_entangled_reference():
    records = run_experiment(
        fig1_config(pure_state_choice=PhiChoice.MAXIMALLY_ENTANGLED, samples=80)
    )[0]
    assert records[0].fraction == 1.0
    assert records[-1].fraction == 0.0


def test_sweep_is_deterministic_and_schedule_independent():
    cfg = fig1_config(samples=40, grid=(0.0, 0.15, 1.0))
    a = run_experiment(cfg)[0]
    b = run_experiment(cfg)[0]
    c = run_experiment(cfg, workers=2)[0]
    assert a == b == c


def test_fig1_points_past_the_phase_boundary_need_no_sdp(monkeypatch):
    # at p >= k/(1+k) every off-diagonal entry of the mixture is >= 0, so the
    # phase witness certifies RoC = l1; p=1 is the pure reference state
    cfg = fig1_config(samples=20, grid=(0.5, 1.0))
    expected = run_experiment(cfg)

    def no_solve(problem, **kwargs):
        raise AssertionError("sdp.solve called on a phase-witness state")

    monkeypatch.setattr(cohkit.sdp, "solve", no_solve)
    assert run_experiment(cfg) == expected


def test_metadata_counts_roc_values_per_method(tmp_path):
    samples = 5
    cfg = fig1_config(samples=samples, grid=(0.0, 0.5, 1.0))
    # per point one joint state (sigma: sdp, mixture: witness, |+>|+>: pure)
    # and two qubit marginals
    expected = {
        "sdp": samples,
        "phase_witness": samples,
        "pure_state_l1": samples,
        "closed_form_qubit": 6 * samples,
    }
    _, tally = run_experiment(cfg, 1)
    assert tally["roc_methods"] == expected
    _, meta_path = run_and_save(cfg, tmp_path, workers=2)
    assert json.loads(meta_path.read_text())["roc_methods"] == expected


TINY_GRIDS = {
    Experiment.SUBADDITIVITY_SWEEP: dict(grid=(0.0, 0.3)),
    Experiment.ORDERING_VS_DIMENSION: dict(grid=(2, 3)),
    Experiment.ORDERING_VS_RANK: dict(grid=(1, 3), dim=4),
    Experiment.THEOREM1_CHECK: dict(grid=(1, 2)),
    Experiment.RESULT2_CHECK: dict(grid=(2, 3)),
}


@pytest.mark.parametrize("experiment", list(Experiment), ids=lambda e: e.value)
def test_results_do_not_depend_on_worker_count(experiment):
    cfg = SweepConfig(experiment=experiment, samples=6, seed=11, **TINY_GRIDS[experiment])
    serial = run_experiment(cfg, 1)
    assert serial == run_experiment(cfg, 2)
    _, tally = serial
    if experiment in (Experiment.ORDERING_VS_DIMENSION, Experiment.ORDERING_VS_RANK):
        # decision-stage counts and undecided samples agree too, being part of the result
        assert set(tally["ordering_decisions"]) == {s.value for s in DecisionStage}
        assert sum(tally["ordering_decisions"].values()) == cfg.samples * len(cfg.grid)
        assert tally["ordering_decisions"]["undecided"] == len(tally["undecided"])
    else:
        assert set(tally) == {"failures", "roc_methods"}


class InlinePool:
    """Stand-in for ProcessPoolExecutor that records its size and maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    cfg = fig1_config(samples=3, grid=(0.3,))
    expected = run_experiment(cfg, workers=1)
    monkeypatch.setattr(cohkit.experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    assert run_experiment(cfg, workers=64) == expected
    assert InlinePool.sizes == [3]


def test_one_worker_runs_each_grid_point_as_one_chunk():
    # one contiguous range per worker, and never more ranges than samples
    assert _chunks(100, 1) == [(0, 100)]
    assert _chunks(100, 2) == [(0, 50), (50, 100)]
    assert _chunks(3, 2) == [(0, 1), (1, 3)]
    assert _chunks(1, 4) == [(0, 1)]


def test_ordering_sweep_record_layout():
    cfg = SweepConfig(
        experiment=Experiment.ORDERING_VS_DIMENSION, samples=60, seed=6, grid=(2, 3)
    )
    records = run_experiment(cfg)[0]
    assert len(records) == len(MEASURE_PAIRS) * 2
    labels = [r.measure_pair for r in records[:3]]
    assert labels == ["l1:rel_entropy", "l1:roc", "rel_entropy:roc"]
    # qubit robustness equals l1, so that pair can never disagree at d=2
    d2 = {r.measure_pair: r for r in records if r.sweep_point == 2}
    assert d2["l1:roc"].count_positive == 0


def test_rank_one_rank_sweep_needs_no_solve(monkeypatch):
    methods = []
    real_roc = cohkit.measures.roc

    def recording_roc(rho, **kwargs):
        mv = real_roc(rho, **kwargs)
        methods.append(mv.method)
        return mv

    def no_solve(problem, **kwargs):
        raise AssertionError("sdp.solve called on a rank-one pair")

    monkeypatch.setattr(cohkit.measures, "roc", recording_roc)
    monkeypatch.setattr(cohkit.sdp, "solve", no_solve)
    cfg = SweepConfig(
        experiment=Experiment.ORDERING_VS_RANK, samples=50, seed=12, grid=(1,), dim=10
    )
    _, tally = run_experiment(cfg)
    assert methods and set(methods) == {Method.PURE_STATE_L1}
    assert tally["ordering_decisions"]["solve_free"] == 50


def _uninformative_solve(real_solve):
    """``sdp.solve`` with the same dual values, but primal bounds too loose to
    tighten any bracket, so every pair that reaches the solver is UNDECIDED."""

    def solve(problem, tol, accept=None):
        def loose(mu, primal, dual):
            return accept(mu, dual + 10.0, dual)

        sol = real_solve(problem, tol=tol, accept=loose if accept else None)
        return dataclasses.replace(sol, primal_value=sol.dual_value + 10.0, gap=10.0)

    return solve


def test_undecided_pairs_are_counted_on_refined_values_and_listed(monkeypatch, tmp_path):
    # sample 2 of seed 682 at d=10 is a pair that only the SDP rung settles
    cfg = SweepConfig(experiment=Experiment.ORDERING_VS_DIMENSION, samples=8, seed=682, grid=(10,))
    csv_path, meta_path = run_and_save(cfg, tmp_path / "exact")
    expected_csv = csv_path.read_bytes()
    exact = json.loads(meta_path.read_text())
    assert exact["roc_methods"].get("sdp", 0) > 0, "no pair reached the solver"
    assert exact["undecided"] == []

    monkeypatch.setattr(cohkit.sdp, "solve", _uninformative_solve(cohkit.sdp.solve))
    csv_path, meta_path = run_and_save(cfg, tmp_path / "loose")
    meta = json.loads(meta_path.read_text())
    # the fallback counts by the DEFAULT_ROC_TOL values, which the loose bound leaves unchanged
    assert csv_path.read_bytes() == expected_csv
    undecided = meta["undecided"]
    assert undecided and meta["ordering_decisions"]["undecided"] == len(undecided)
    assert meta["ordering_decisions"]["solve"] == 0
    for entry in undecided:
        assert entry["point"] == 10 and 0 <= entry["sample"] < 8
        low, high = entry["roc_difference_bracket"]
        assert low < high


def test_undecided_samples_are_listed_by_their_index_at_the_grid_point(monkeypatch):
    # sample 2 of seed 682 at d=10 reaches the solver; at two workers it is the
    # second sample of the second chunk, (1, 3)
    cfg = SweepConfig(experiment=Experiment.ORDERING_VS_DIMENSION, samples=3, seed=682, grid=(10,))
    assert _chunks(cfg.samples, 2) == [(0, 1), (1, 3)]
    monkeypatch.setattr(cohkit.sdp, "solve", _uninformative_solve(cohkit.sdp.solve))
    monkeypatch.setattr(cohkit.experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    serial = run_experiment(cfg, workers=1)
    assert [(u["point"], u["sample"]) for u in serial[1]["undecided"]] == [(10, 2)]
    assert run_experiment(cfg, workers=2) == serial
    assert InlinePool.sizes == [2]


def test_ordering_vs_dimension_relative_rates():
    cfg = SweepConfig(
        experiment=Experiment.ORDERING_VS_DIMENSION, samples=300, seed=7, grid=(4,)
    )
    by_pair = {r.measure_pair: r.fraction for r in run_experiment(cfg)[0]}
    assert by_pair["rel_entropy:roc"] > by_pair["l1:roc"]
    assert by_pair["rel_entropy:roc"] > 0


def test_ordering_vs_rank_pure_states_never_split_l1_roc():
    cfg = SweepConfig(
        experiment=Experiment.ORDERING_VS_RANK, samples=150, seed=8, grid=(1, 2), dim=10
    )
    records = run_experiment(cfg)[0]
    rank1 = {r.measure_pair: r for r in records if r.sweep_point == 1}
    assert rank1["l1:roc"].count_positive == 0
    rank2 = {r.measure_pair: r.fraction for r in records if r.sweep_point == 2}
    assert rank2["rel_entropy:roc"] >= max(rank2["l1:roc"], rank2["l1:rel_entropy"])


def test_theorem1_check_rows(monkeypatch):
    real_solve = cohkit.sdp.solve
    solved = []

    def counting_solve(problem, **kwargs):
        solved.append(problem.rho.dim)
        return real_solve(problem, **kwargs)

    monkeypatch.setattr(cohkit.sdp, "solve", counting_solve)
    cfg = SweepConfig(experiment=Experiment.THEOREM1_CHECK, samples=4, seed=9, grid=(1, 2, 3))
    rows = run_experiment(cfg)[0]
    assert len(rows) == 12
    # one solve per sample for n >= 2; qubits take the closed form 2|rho_01| = k
    assert sorted(solved) == [4] * 4 + [8] * 4
    for row in rows[:4]:
        assert row.sdp_value == pytest.approx(row.k, rel=1e-15, abs=0)
        assert row.subadditivity_gap == 0.0
    for row in rows:
        assert 0 <= row.k <= 1 / (2**row.n - 1) + 1e-12
        assert row.subadditivity_gap <= 1e-9
        assert row.abs_difference == abs(row.sdp_value - row.closed_form)
        # certified robustness of the family is k itself
        assert abs(row.sdp_value - row.k) < 1e-6
        assert abs(row.closed_form - row.k * (1 - 2.0**-row.n)) < 1e-15


def test_result2_rows():
    cfg = SweepConfig(
        experiment=Experiment.RESULT2_CHECK, samples=40, seed=10, grid=(2, 3, 4)
    )
    rows = run_experiment(cfg)[0]
    assert sorted(r.measure for r in rows) == ["l1", "rel_entropy", "roc"]
    by_measure = {r.measure: r for r in rows}
    assert by_measure["l1"].max_abs_deviation <= 1e-12
    for row in rows:
        assert row.max_abs_deviation <= 1e-6
        assert row.d_a in (2, 3, 4) and row.d_b in (2, 3, 4)


def test_run_and_save_outputs(tmp_path):
    cfg = fig1_config(samples=25, grid=(0.0, 0.2, 1.0))
    csv_path, meta_path = run_and_save(cfg, tmp_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "experiment,sweep_point,measure_pair,count_total,count_positive,fraction,stderr,seed"
    assert len(lines) == 4
    assert lines[1].startswith("subadditivity_sweep,0.0,,25,25,1.0,0.0,5")
    meta = json.loads(meta_path.read_text())
    assert meta["config"] == {"experiment": "subadditivity_sweep", "samples": 25, "seed": 5,
                              "grid": [0.0, 0.2, 1.0], "pure_state_choice": "coherent", "dim": 10}
    assert "transition_estimate" in meta
    assert "git_revision" in meta
    assert meta["package_version"] == cohkit.__version__
    assert meta["wall_time_s"] > 0

    # identical config reproduces identical CSV bytes
    first = csv_path.read_bytes()
    csv_path2, _ = run_and_save(cfg, tmp_path / "again")
    assert csv_path2.read_bytes() == first


def _git(directory: Path, *args: str) -> subprocess.CompletedProcess:
    """Runs git in ``directory``; skips the test where git cannot be started."""
    try:
        return subprocess.run(["git", "-C", str(directory), *args], capture_output=True, text=True)
    except OSError:
        pytest.skip("git is not available")


def test_metadata_records_the_package_checkout_revision(tmp_path, monkeypatch):
    package_dir = Path(cohkit.experiments.__file__).parent
    proc = _git(package_dir, "rev-parse", "HEAD")
    if proc.returncode != 0:
        pytest.skip("cohkit is not running from a git checkout")
    # tracked files only: untracked ones do not make a checkout dirty
    dirty = _git(package_dir, "status", "--porcelain", "--untracked-files=no").stdout.strip()
    monkeypatch.chdir(tmp_path)  # outside any repository
    _, meta_path = run_and_save(fig1_config(samples=1, grid=(0.0,)), tmp_path)
    expected = proc.stdout.strip() + ("-dirty" if dirty else "")
    assert json.loads(meta_path.read_text())["git_revision"] == expected


def _new_repo(repo: Path, name: str, text: str) -> str:
    """HEAD of a new git repository at ``repo`` whose one commit adds the
    file ``name`` holding ``text``; skips the test where git cannot."""
    repo.mkdir()
    if _git(repo, "init", "-q").returncode != 0:
        pytest.skip("git is not available")
    (repo / name).write_text(text)
    _git(repo, "add", name)
    identity = ("-c", "user.name=test", "-c", "user.email=test@example.com",
                "-c", "commit.gpgsign=false")
    assert _git(repo, *identity, "commit", "-q", "-m", "initial").returncode == 0
    return _git(repo, "rev-parse", "HEAD").stdout.strip()


def test_git_revision_flags_uncommitted_changes(tmp_path):
    repo = tmp_path / "repo"
    head = _new_repo(repo, "tracked.txt", "one\n")

    def revision(directory: Path) -> str:
        with cohkit.experiments._git_revision(directory) as git_revision:
            return git_revision()

    assert revision(repo) == head
    (repo / "untracked.txt").write_text("ignored\n")
    assert revision(repo) == head
    (repo / "tracked.txt").write_text("two\n")
    assert revision(repo) == head + "-dirty"
    assert revision(tmp_path / "missing") == "unknown"


def test_a_package_installed_inside_another_checkout_reads_unknown(tmp_path):
    # a virtual environment that another project's checkout ignores: git must
    # not report that project's revision as cohkit's
    project = tmp_path / "project"
    _new_repo(project, ".gitignore", ".venv/\n")
    site = project / ".venv" / "site"
    shutil.copytree(Path(cohkit.__file__).parent, site / "cohkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = ("import cohkit.cli as c; "
           "c.main(['theorem1', '--n', '1', '--samples', '2', '--threads', '1', '--out', 'out'])")
    proc = subprocess.run([sys.executable, "-c", run], cwd=project, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(site)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((project / "out" / "theorem1_check_meta.json").read_text())
    assert meta["git_revision"] == "unknown"


def test_an_aborted_run_reaps_its_git_process(tmp_path, monkeypatch):
    started, started_before_the_sweep = [], []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    def aborting_run(cfg, workers):
        started_before_the_sweep.extend(started)
        raise SweepAborted("planted abort", [])

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    monkeypatch.setattr(cohkit.experiments, "run_experiment", aborting_run)
    with pytest.raises(SweepAborted, match="planted"):
        run_and_save(fig1_config(samples=1, grid=(0.0,)), tmp_path)
    if not started:
        pytest.skip("git is not available")
    assert started_before_the_sweep == started  # git describe runs alongside the sweep
    assert started[0].returncode is not None


def test_metadata_records_unknown_without_git(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))  # no git to start
    _, meta_path = run_and_save(fig1_config(samples=1, grid=(0.0,)), tmp_path)
    assert json.loads(meta_path.read_text())["git_revision"] == "unknown"


def test_a_hung_git_reads_unknown_and_is_reaped(monkeypatch):
    started, waits = [], []

    class HungPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__([sys.executable, "-c", "import time; time.sleep(30)"], **kwargs)
            started.append(self)

        def wait(self, timeout=None):
            if timeout is not None:  # the revision's bounded wait runs out at once
                waits.append(timeout)
                raise subprocess.TimeoutExpired(self.args, timeout)
            return super().wait()

    monkeypatch.setattr(subprocess, "Popen", HungPopen)
    start = time.perf_counter()
    with cohkit.experiments._git_revision() as git_revision:
        assert git_revision() == "unknown"
    assert time.perf_counter() - start < 10
    assert waits == [10]
    assert started[0].returncode is not None


def test_run_and_save_other_experiments(tmp_path):
    cfg = SweepConfig(experiment=Experiment.THEOREM1_CHECK, samples=2, seed=0, grid=(1,))
    csv_path, _ = run_and_save(cfg, tmp_path)
    assert csv_path.read_text().splitlines()[0] == (
        "n,k,sdp_value,closed_form,abs_difference,subadditivity_gap"
    )
    cfg = SweepConfig(experiment=Experiment.RESULT2_CHECK, samples=5, seed=0, grid=(2, 3))
    csv_path, _ = run_and_save(cfg, tmp_path)
    assert csv_path.read_text().splitlines()[0] == "measure,d_a,d_b,max_abs_deviation"


def test_solver_failures_redraw_then_abort(monkeypatch):
    real_solve = cohkit.sdp.solve
    calls = {"n": 0}

    def flaky_solve(problem, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            sol = real_solve(problem, tol=kwargs["tol"])
            return RocSolution(
                primal_diag=sol.primal_diag,
                dual_witness=sol.dual_witness,
                primal_value=sol.primal_value,
                dual_value=sol.dual_value,
                gap=sol.gap,
                iterations=sol.iterations,
                status=SolveStatus.MAX_ITER,
            )
        return real_solve(problem, **kwargs)

    monkeypatch.setattr(cohkit.sdp, "solve", flaky_solve)
    cfg = fig1_config(samples=30, grid=(0.1,))
    records = run_experiment(cfg)[0]  # one failure tolerated, sample redrawn
    assert records[0].count_total == 30

    def broken_solve(problem, **kwargs):
        sol = real_solve(problem, tol=kwargs["tol"])
        return RocSolution(
            primal_diag=sol.primal_diag,
            dual_witness=sol.dual_witness,
            primal_value=sol.primal_value,
            dual_value=sol.dual_value,
            gap=sol.gap,
            iterations=sol.iterations,
            status=SolveStatus.NUMERICAL_FAILURE,
        )

    monkeypatch.setattr(cohkit.sdp, "solve", broken_solve)
    with pytest.raises(SweepAborted) as err:
        run_experiment(cfg)
    assert err.value.failures
    assert "state" in err.value.failures[0]


def _failing_solves(solved: list, fails: float = np.inf):
    """``sdp.solve`` that records each state it is given in ``solved`` and
    ends with NUMERICAL_FAILURE on its first ``fails`` calls."""
    real_solve = cohkit.sdp.solve

    def solve(problem, **kwargs):
        solved.append(problem.rho)
        if len(solved) > fails:
            return real_solve(problem, **kwargs)
        return RocSolution(np.ones(problem.rho.dim), None, np.inf, -np.inf, np.inf, 0,
                           SolveStatus.NUMERICAL_FAILURE)

    return solve


def test_a_run_draws_nothing_once_its_failures_exceed_its_budget(monkeypatch):
    # every solve fails, and the run's budget is 0.2 * 20 samples * 2 points
    # = 8 failures: at p = 0.2 five draws reach the solver, and at p = 0 every
    # draw does, so sample 0 fails until the run has one failure too many
    solved = []
    monkeypatch.setattr(cohkit.sdp, "solve", _failing_solves(solved))
    monkeypatch.setattr(cohkit.experiments, "FAILURE_ABORT_FRACTION", 0.2)
    with pytest.raises(SweepAborted, match="9 solver failures exceed") as err:
        run_experiment(fig1_config(samples=20, grid=(0.2, 0.0)))
    failures = err.value.failures
    assert [f["point"] for f in failures] == [0.2] * 5 + [0.0] * 4
    assert {f["sample"] for f in failures[5:]} == {0}
    # each failure is one solve, and the last solve made is the last failure's
    assert len(solved) == len(failures)
    assert failures[-1]["state"] == solved[-1].to_json_dict()


def test_a_run_under_budget_redraws_a_sample_as_often_as_it_fails(monkeypatch):
    # the one sample fails 60 times, within the run's budget of 100
    solved = []
    monkeypatch.setattr(cohkit.sdp, "solve", _failing_solves(solved, fails=60))
    monkeypatch.setattr(cohkit.experiments, "FAILURE_ABORT_FRACTION", 100.0)
    records, tally = run_experiment(fig1_config(samples=1, grid=(0.0,)))
    assert records[0].count_total == 1
    assert [(f["point"], f["sample"]) for f in tally["failures"]] == [(0.0, 0)] * 60
    assert len(solved) == 61


def test_sweep_csv_handles_pair_column(tmp_path):
    cfg = SweepConfig(
        experiment=Experiment.ORDERING_VS_DIMENSION, samples=20, seed=3, grid=(2,)
    )
    records = run_experiment(cfg)[0]
    path = tmp_path / "pairs.csv"
    write_sweep_csv(records, path)
    rows = path.read_text().splitlines()
    assert rows[1].split(",")[2] == "l1:rel_entropy"


def _solved_states(monkeypatch, cfg: SweepConfig) -> list:
    """The states that ``sdp.solve`` receives in a run of ``cfg``."""
    real_solve = cohkit.sdp.solve
    solved = []

    def recording_solve(problem, **kwargs):
        solved.append(problem.rho)
        return real_solve(problem, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(cohkit.sdp, "solve", recording_solve)
        run_experiment(cfg)
    return solved


def _seed682_planted_failure():
    """A fig2 run of three samples at d=10, seed 682, the state ``a`` of its
    sample 2, whose pair only a solve settles, an ``sdp.solve`` that fails
    on ``a`` alone, and the pair that sample 2 draws next."""
    cfg = SweepConfig(experiment=Experiment.ORDERING_VS_DIMENSION, samples=3, seed=682, grid=(10,))
    rng = np.random.default_rng([682, 0, 2])
    a = random_density(10, 10, rng)
    random_density(10, 10, rng)
    redrawn = (random_density(10, 10, rng), random_density(10, 10, rng))
    real_solve = cohkit.sdp.solve

    def solve_of_a_fails(problem, **kwargs):
        # without ``accept``, no iterate of a's solve can settle the pair
        if np.array_equal(problem.rho.mat, a.mat):
            sol = real_solve(problem, tol=kwargs["tol"])
            return dataclasses.replace(sol, status=SolveStatus.MAX_ITER)
        return real_solve(problem, **kwargs)

    return cfg, a, solve_of_a_fails, redrawn


def test_metadata_lists_redrawn_draws_with_the_failing_state(monkeypatch, tmp_path):
    cfg, a, solve_of_a_fails, _ = _seed682_planted_failure()
    _, meta_path = run_and_save(cfg, tmp_path / "clean")
    assert json.loads(meta_path.read_text())["failures"] == []

    # state a of sample 2 is one whose brackets leave its pair open, so it
    # reaches the SDP; its solve fails and the sample is redrawn
    assert any(np.array_equal(rho.mat, a.mat) for rho in _solved_states(monkeypatch, cfg))
    monkeypatch.setattr(cohkit.sdp, "solve", solve_of_a_fails)
    _, meta_path = run_and_save(cfg, tmp_path / "flaky")
    (entry,) = json.loads(meta_path.read_text())["failures"]
    assert entry["state"] == a.to_json_dict()
    assert (entry["point"], entry["sample"]) == (10, 2)
    assert "max_iter" in entry["error"]


def test_a_redrawn_ordering_pair_is_decided_as_a_first_draw(monkeypatch):
    # the pair that replaces a failed one is decided by the same rungs as a
    # first draw, as a block of one
    cfg, a, solve_of_a_fails, redrawn = _seed682_planted_failure()
    assert any(np.array_equal(rho.mat, a.mat) for rho in _solved_states(monkeypatch, cfg))
    expected = ordering_decisions([redrawn])[0]()
    first_two = cohkit.experiments._chunk((cfg, 0, 10, 0, 2, 1))
    monkeypatch.setattr(cohkit.sdp, "solve", solve_of_a_fails)
    tally = cohkit.experiments._chunk((cfg, 0, 10, 0, 3, 1))  # a run of 3 samples may fail once
    assert [entry["sample"] for entry in tally["failures"]] == [2]
    # the chunk's counts are its first two samples' plus the redrawn pair's decision
    assert tally["values"] == first_two["values"] + Counter([(expected.violated, expected.stage)])
    undecided = [{"point": 10, "sample": 2, "roc_difference_bracket": list(expected.roc_difference)}]
    assert tally["undecided"] == first_two["undecided"] + (
        undecided if expected.stage is DecisionStage.UNDECIDED else [])


def test_redraws_do_not_depend_on_the_worker_count(monkeypatch):
    # at two workers sample 2 is redrawn in the second chunk, [1, 3); forked
    # workers inherit the patched solver
    cfg, _, solve_of_a_fails, _ = _seed682_planted_failure()
    monkeypatch.setattr(cohkit.sdp, "solve", solve_of_a_fails)
    one = run_experiment(cfg, 1)
    assert [entry["sample"] for entry in one[1]["failures"]] == [2]
    assert run_experiment(cfg, 2) == one


@pytest.mark.parametrize("start, stop", [(0, 130), (2**32 - 3, 2**32)])
@pytest.mark.parametrize("point_idx", [0, 2**32])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70, 2**200])  # 1, 1, 2, 3, 7 words
def test_sample_seed_words_are_numpys_seed_sequence_state(seed, point_idx, start, stop):
    words = cohkit.experiments._sample_seed_words(seed, point_idx, start, stop)
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    expected = [np.random.SeedSequence([seed, point_idx, i]).generate_state(4, np.uint64)
                for i in range(start, stop)]
    np.testing.assert_array_equal(words, expected)
    for i, row in zip(range(start, stop), words):
        rng = np.random.Generator(np.random.PCG64(cohkit.experiments._SampleSeed(row)))
        assert rng.integers(2**63, size=3).tolist() == (
            np.random.default_rng([seed, point_idx, i]).integers(2**63, size=3).tolist())


def test_a_chunk_hands_each_sample_its_own_generator(monkeypatch):
    # samples [5, stop) at point index 3 go in blocks [5, 69), [69, 133), ...,
    # [stop - 7, stop), and their seed words in two spans, [5, 5 + SEED_SPAN)
    # and [5 + SEED_SPAN, stop), each hashed alone
    span = cohkit.experiments.SEED_SPAN
    stop = span + 140
    cfg = SweepConfig(experiment=Experiment.RESULT2_CHECK, samples=stop, seed=11, grid=(2, 3))
    blocks, hashed = [], []
    hash_words = cohkit.experiments._sample_seed_words

    def capture(cfg, dims, rngs):
        blocks.append([rng.bit_generator.state for rng in rngs])
        return [lambda: None for _ in rngs]

    def recording_hash(seed, point_idx, start, stop):
        hashed.append((start, stop))
        return hash_words(seed, point_idx, start, stop)

    _, *fold_and_reduce = cohkit.experiments._HARNESS[cfg.experiment]
    monkeypatch.setitem(cohkit.experiments._HARNESS, cfg.experiment, (capture, *fold_and_reduce))
    monkeypatch.setattr(cohkit.experiments, "_sample_seed_words", recording_hash)
    cohkit.experiments._chunk((cfg, 3, (2, 3), 5, stop, 1))
    assert [len(block) for block in blocks] == [64] * ((stop - 12) // 64) + [7]
    expected = [np.random.default_rng([11, 3, i]).bit_generator.state for i in range(5, stop)]
    assert sum(blocks, []) == expected
    assert hashed == [(5, 5 + span), (5 + span, stop)]


@pytest.mark.parametrize("workers", [1, 2])
def test_ordering_sweeps_do_not_depend_on_the_block_size(monkeypatch, workers):
    # 16 samples make one chunk at one worker and chunks of 2 at two, so blocks
    # of 1 and 3 split them; the default block holds a whole chunk
    configs = (
        SweepConfig(experiment=Experiment.ORDERING_VS_DIMENSION, samples=16, seed=2,
                    grid=tuple(range(2, 11))),
        SweepConfig(experiment=Experiment.ORDERING_VS_RANK, samples=16, seed=2,
                    grid=(1, 4, 9, 10), dim=10),
    )
    for cfg in configs:
        expected = run_experiment(cfg, 1)
        for block in (1, 3, cohkit.experiments.BLOCK_SAMPLES):
            with monkeypatch.context() as m:
                m.setattr(cohkit.experiments, "BLOCK_SAMPLES", block)
                assert run_experiment(cfg, workers) == expected, (cfg.experiment, block)


@pytest.mark.parametrize("block", [1, 2, cohkit.experiments.BLOCK_SAMPLES])
def test_a_redrawn_sample_is_listed_whatever_the_block_size(monkeypatch, block):
    # the planted seed-682 failure, in one chunk of three samples that blocks
    # of 1 and 2 split
    cfg, a, solve_of_a_fails, _ = _seed682_planted_failure()
    monkeypatch.setattr(cohkit.sdp, "solve", solve_of_a_fails)
    monkeypatch.setattr(cohkit.experiments, "BLOCK_SAMPLES", block)
    tally = cohkit.experiments._chunk((cfg, 0, 10, 0, 3, 1))
    (entry,) = tally["failures"]
    assert entry["state"] == a.to_json_dict()
    assert (entry["point"], entry["sample"]) == (10, 2)
    # the chunk counts each sample's decision; a bracket settles the redrawn pair
    stages = Counter()
    for (_, stage), n in tally["values"].items():
        stages[stage] += n
    assert stages == {DecisionStage.SOLVE_FREE: 3}
    assert tally["undecided"] == []


def test_a_rank_one_chunk_folds_its_samples_into_counts():
    # the tally of a fig3 rank-1 chunk has one shape whatever its sample
    # count: its values are counts, and only its failures and undecided pairs
    # may grow with the samples
    cfg = SweepConfig(experiment=Experiment.ORDERING_VS_RANK, samples=300, seed=0, grid=(1,))
    small, large = (cohkit.experiments._chunk((cfg, 0, 1, 0, n, 1)) for n in (3, 300))
    assert small.keys() == large.keys()
    for tally, n in ((small, 3), (large, 300)):
        assert isinstance(tally["values"], Counter) and tally["values"].total() == n
        assert len(tally["values"]) <= 2 ** len(MEASURE_PAIRS) * len(DecisionStage)
        lists = {key for key, item in tally.items() if isinstance(item, list)}
        assert lists <= {"failures", "undecided"}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("phi", list(PhiChoice), ids=lambda c: c.value)
def test_fig1_does_not_depend_on_the_block_size(monkeypatch, phi, workers):
    # as for the ordering sweeps: blocks of 1 and 3 split the one chunk of 16
    # samples at one worker, blocks of 1 the chunks of 2 at two workers
    cfg = fig1_config(samples=16, seed=2, grid=(0.0, 0.04, 0.1, 0.2, 0.5, 1.0),
                      pure_state_choice=phi)
    expected = run_experiment(cfg, 1)
    for block in (1, 3, cohkit.experiments.BLOCK_SAMPLES):
        with monkeypatch.context() as m:
            m.setattr(cohkit.experiments, "BLOCK_SAMPLES", block)
            assert run_experiment(cfg, workers) == expected, block


# The error and the RoC values per method of the fig1 run below, recorded
# with the per-sample fig1 code before its samples were stacked: the failed
# draw counts no value, its marginals' closed forms included.
PLANTED_FIG1_FAILURE = {
    PhiChoice.MAXIMALLY_COHERENT: (
        "robustness SDP ended with status max_iter (gap 3.447e-09 after 7 iterations)",
        {"sdp": 4, "phase_witness": 1, "closed_form_qubit": 10},
    ),
    PhiChoice.MAXIMALLY_ENTANGLED: (
        "robustness SDP ended with status max_iter (gap 8.174e-09 after 11 iterations)",
        {"sdp": 5, "closed_form_qubit": 10},
    ),
}


@pytest.mark.parametrize("block", [1, cohkit.experiments.BLOCK_SAMPLES])
@pytest.mark.parametrize("phi", list(PhiChoice), ids=lambda c: c.value)
def test_a_failed_fig1_solve_is_redrawn_from_its_generator(monkeypatch, phi, block):
    # the mixture of sample 2 fails its solve; the redraw mixes the next k
    # of the same generator
    cfg = fig1_config(samples=5, grid=(0.1,), pure_state_choice=phi)
    if phi is PhiChoice.MAXIMALLY_COHERENT:
        reference = maximally_coherent(4)
    else:
        reference = maximally_entangled_two_qubit()
    rng = np.random.default_rng([cfg.seed, 0, 2])
    ks = [rng.uniform(0.0, sigma_kmax(2)) for _ in range(2)]
    failed, redrawn = mix_with_pure(sigma_family(2, ks), reference, 0.1)
    real_solve = cohkit.sdp.solve
    solved = []

    def solve_of_failed_fails(problem, **kwargs):
        solved.append(problem.rho)
        sol = real_solve(problem, **kwargs)
        if np.array_equal(problem.rho.mat, failed.mat):
            return dataclasses.replace(sol, status=SolveStatus.MAX_ITER)
        return sol

    monkeypatch.setattr(cohkit.sdp, "solve", solve_of_failed_fails)
    monkeypatch.setattr(cohkit.experiments, "BLOCK_SAMPLES", block)
    records, tally = run_experiment(cfg)
    error, methods = PLANTED_FIG1_FAILURE[phi]
    assert tally["failures"] == [
        {"state": failed.to_json_dict(), "error": error, "point": 0.1, "sample": 2}
    ]
    assert tally["roc_methods"] == methods
    assert sum(np.array_equal(rho.mat, redrawn.mat) for rho in solved) == 1
    assert records[0].count_total == cfg.samples


def _failing_solve_of(mat: np.ndarray):
    """``sdp.solve`` that ends with MAX_ITER on the state ``mat`` alone."""
    real_solve = cohkit.sdp.solve

    def solve(problem, **kwargs):
        sol = real_solve(problem, **kwargs)
        if np.array_equal(problem.rho.mat, mat):
            return dataclasses.replace(sol, status=SolveStatus.MAX_ITER)
        return sol

    return solve


def test_a_failed_theorem1_solve_is_redrawn_from_its_generator(monkeypatch):
    # the state of sample 2 fails its solve; the redrawn row takes the next k
    # of the same generator, and every other row stays as it was
    cfg = SweepConfig(experiment=Experiment.THEOREM1_CHECK, samples=4, seed=9, grid=(2,))
    clean = run_experiment(cfg)[0]
    rng = np.random.default_rng([cfg.seed, 0, 2])
    failed = sigma_family(2, rng.uniform(0.0, sigma_kmax(2)))
    k_redrawn = rng.uniform(0.0, sigma_kmax(2))
    monkeypatch.setattr(cohkit.sdp, "solve", _failing_solve_of(failed.mat))
    rows, tally = run_experiment(cfg)
    (entry,) = tally["failures"]
    assert entry["state"] == failed.to_json_dict()
    assert (entry["point"], entry["sample"]) == (2, 2)
    assert "max_iter" in entry["error"]
    assert rows[2].k == k_redrawn != clean[2].k
    assert rows[:2] + rows[3:] == clean[:2] + clean[3:]


def test_a_failed_result2_solve_is_redrawn_from_its_generator(monkeypatch):
    # the product state of sample 2 fails its solve; the sample's value is
    # the one the next draw of the same generator gives
    cfg = SweepConfig(experiment=Experiment.RESULT2_CHECK, samples=4, seed=10, grid=(3, 4))
    dims = (3, 4)
    rng = np.random.default_rng([cfg.seed, 0, 2])
    d_a, d_b = (dims[rng.integers(len(dims))] for _ in range(2))
    rho = random_density(d_a, d_a, rng)
    failed = DensityMatrix(np.kron(rho.mat, dephase(random_density(d_b, d_b, rng)).mat),
                           (d_a, d_b))
    redrawn = cohkit.experiments._result2_sample(dims, rng)
    clean = cohkit.experiments._chunk((cfg, 0, dims, 0, 4, 1))["values"]
    monkeypatch.setattr(cohkit.sdp, "solve", _failing_solve_of(failed.mat))
    tally = cohkit.experiments._chunk((cfg, 0, dims, 0, 4, 1))
    (entry,) = tally["failures"]
    assert entry["state"] == failed.to_json_dict()
    assert (entry["point"], entry["sample"]) == (dims, 2)
    assert "max_iter" in entry["error"]
    assert tally["values"][2] == redrawn != clean[2]
    assert tally["values"][:2] + tally["values"][3:] == clean[:2] + clean[3:]
