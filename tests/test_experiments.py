import dataclasses
import json

import numpy as np
import pytest

import cohkit
import cohkit.sdp
from cohkit.experiments import (
    Experiment,
    MEASURE_PAIRS,
    PhiChoice,
    SweepAborted,
    SweepConfig,
    estimate_transition,
    run_and_save,
    run_experiment,
    write_sweep_csv,
)
from cohkit.sdp import RocSolution, SolveStatus
from cohkit.states import random_density


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
    with pytest.raises(ValueError, match="nonempty"):
        fig1_config(grid=())
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        fig1_config(grid=(0.0, 1.2))
    with pytest.raises(ValueError, match="two-qubit"):
        fig1_config(pure_state_choice=PhiChoice.MAXIMALLY_ENTANGLED, n_qubits=3)
    with pytest.raises(ValueError, match=">= 2"):
        SweepConfig(experiment=Experiment.ORDERING_VS_DIMENSION, samples=5, seed=0, grid=(1,))
    with pytest.raises(ValueError, match="rank"):
        SweepConfig(experiment=Experiment.ORDERING_VS_RANK, samples=5, seed=0, grid=(11,), dim=10)
    with pytest.raises(ValueError, match="positive integers"):
        SweepConfig(experiment=Experiment.THEOREM1_CHECK, samples=5, seed=0, grid=(0,))


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
    assert run_experiment(cfg, 1) == run_experiment(cfg, 2)


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
    assert meta["config"] == cfg.to_json_dict()
    assert "transition_estimate" in meta
    assert "git_revision" in meta
    assert meta["package_version"] == cohkit.__version__
    assert meta["wall_time_s"] > 0

    # identical config reproduces identical CSV bytes
    first = csv_path.read_bytes()
    csv_path2, _ = run_and_save(cfg, tmp_path / "again")
    assert csv_path2.read_bytes() == first


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
            sol = real_solve(problem, **kwargs)
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
        sol = real_solve(problem, **kwargs)
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


def test_sweep_csv_handles_pair_column(tmp_path):
    cfg = SweepConfig(
        experiment=Experiment.ORDERING_VS_DIMENSION, samples=20, seed=3, grid=(2,)
    )
    records = run_experiment(cfg)[0]
    path = tmp_path / "pairs.csv"
    write_sweep_csv(cfg, records, path)
    rows = path.read_text().splitlines()
    assert rows[1].split(",")[2] == "l1:rel_entropy"


def test_metadata_lists_redrawn_draws_with_the_failing_state(monkeypatch, tmp_path):
    cfg = SweepConfig(experiment=Experiment.ORDERING_VS_DIMENSION, samples=3, seed=4, grid=(3,))
    _, meta_path = run_and_save(cfg, tmp_path / "clean")
    assert json.loads(meta_path.read_text())["failures"] == []

    real_solve = cohkit.sdp.solve
    calls = {"n": 0}

    def fourth_solve_fails(problem, **kwargs):
        # full-rank d=3 states take one SDP solve each, a then b, so the
        # fourth solve is state b of sample 1
        calls["n"] += 1
        sol = real_solve(problem, **kwargs)
        if calls["n"] == 4:
            return dataclasses.replace(sol, status=SolveStatus.MAX_ITER)
        return sol

    monkeypatch.setattr(cohkit.sdp, "solve", fourth_solve_fails)
    _, meta_path = run_and_save(cfg, tmp_path / "flaky")
    (entry,) = json.loads(meta_path.read_text())["failures"]
    rng = np.random.default_rng([4, 0, 1])
    random_density(3, 3, rng)
    b = random_density(3, 3, rng)
    assert entry["state"] == b.to_json_dict()
    assert (entry["point"], entry["sample"]) == (3, 1)
    assert "max_iter" in entry["error"]
