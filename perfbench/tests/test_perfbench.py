"""Self-test of the benchmark at tiny size: every metric is emitted with its unit,
the output checks pass, and the traced span tree is consistent."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

TINY_SAMPLES = {"ordering-dim": 2, "subadd-sweep": 1, "ordering-pure": 20}
SEED = 3


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in run.benchmark_spec()[section]}


def test_benchmark_json_names_the_runner_workloads():
    assert [w["name"] for w in run.benchmark_spec()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_metrics_at_tiny_size(name):
    result = run.run_workload(name, SEED, seconds=1, trace=False, samples=TINY_SAMPLES[name])["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _spans(path: Path) -> list[list]:
    with path.open() as fh:
        return [
            [r["name"], float(r["start_s"]), float(r["end_s"]), int(r["parent"])]
            for r in csv.DictReader(fh)
        ]


@pytest.mark.parametrize("name", ["subadd-sweep", "ordering-pure"])
def test_traced_metrics_and_span_tree(name):
    result = run.run_workload(name, SEED, seconds=1, trace=True, samples=TINY_SAMPLES[name])["result"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "subadd-sweep":
        assert values["experiments.pools_started"] == 51
        assert values["sdp.solve_calls"] > 0 and values["sdp.status.optimal"] == values["sdp.solve_calls"]
    else:
        assert values["sdp.solve_calls"] == 0
        assert values["measures.roc.pure_state_l1"] == values["measures.roc_calls"] > 0

    spans = _spans(run.WORK / f"spans-{name}-seed{SEED}.csv")
    assert len(spans) == values["trace.spans"]
    for _, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
    assert min(tracing.self_times(spans)) >= 0.0


def test_self_time_subtracts_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert tracing.tail([1.0] * 19) == (0.0, 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ordering-dim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
