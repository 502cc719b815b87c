"""Every BENCH_*.json at the repository root is a whole before/after record:
what ran, on which parent and machine, and one checked run of each side
on every workload that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_repository_holds_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_a_bench_file_holds_one_correct_run_per_side_and_workload(path):
    record = json.loads(path.read_text())
    for key in ("command", "parent", "change", "machine"):
        assert isinstance(record.get(key), str) and record[key], f"{path.name} names no {key}"
    runs = record["runs"]
    assert sorted((run["side"], run["workload"]) for run in runs) == sorted(
        (side, workload) for side in ("parent", "change") for workload in WORKLOADS
    )
    assert [run["result"]["correct"] for run in runs] == [True] * len(runs)
