import numpy as np
import pytest

import cohkit.cli
import cohkit.sdp
from cohkit import validation
from cohkit.cli import main
from cohkit.sdp import RocSolution, SolveStatus
from cohkit.states import random_density, save_density


def run(argv: list[str]) -> int:
    """Exit code of the CLI, whether returned or raised by argparse / state loading."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    save_density(random_density(3, 3, np.random.default_rng(0)), path)
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


def test_validate_passes(capsys):
    assert run(["validate", "--samples", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 8
    assert out.rstrip().endswith("seed = 1")


def test_validate_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        validation,
        "check_roc_within_l1",
        lambda samples, seed: validation.PropertyResult("roc_within_l1", samples, 1.0, 1e-7),
    )
    assert run(["validate", "--samples", "2"]) == 1
    assert "FAIL roc_within_l1" in capsys.readouterr().out


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
    ],
)
def test_bad_usage_exits_2(argv, state_file, tmp_path):
    argv = [a.format(state=state_file) for a in argv]
    if argv[0].startswith("fig"):
        argv += ["--out", str(tmp_path)]
    assert run(argv) == 2


@pytest.mark.parametrize(
    "content",
    ["not json", '{"dims": [], "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}', '{"re": [1.0]}'],
)
@pytest.mark.parametrize("verb", ["measure", "roc-solve"])
def test_malformed_state_exits_2(verb, content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert run([verb, str(path)]) == 2
    assert "cannot load state" in capsys.readouterr().err
    assert run([verb, str(tmp_path / "missing.json")]) == 2


REAL_SOLVE = cohkit.sdp.solve


def _never_optimal(problem, **kwargs):
    sol = REAL_SOLVE(problem, **kwargs)
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
        ["fig2", "--grid", "3", "--samples", "1"],
    ],
)
def test_solver_failure_exits_3(argv, state_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cohkit.sdp, "solve", _never_optimal)
    monkeypatch.setattr(cohkit.cli, "solve", _never_optimal)
    argv = [a.format(state=state_file) for a in argv]
    if argv[0] in ("theorem1", "fig2"):
        argv += ["--threads", "1", "--out", str(tmp_path)]
    assert run(argv) == 3
    assert "error:" in capsys.readouterr().err


def test_pooled_sweep_abort_exits_3(tmp_path, monkeypatch, capsys):
    # forked workers inherit the patched solver, so every draw fails in a worker
    monkeypatch.setattr(cohkit.sdp, "solve", _never_optimal)
    argv = ["fig2", "--grid", "3", "--samples", "2", "--threads", "2", "--out", str(tmp_path)]
    assert run(argv) == 3
    assert "redraws" in capsys.readouterr().err
