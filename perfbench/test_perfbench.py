"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from yardstick import Yardstick  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[2] == metric["unit"] for line in lines)
    assert any(line.startswith("error_rate") for line in lines)
    if not trace:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] > 0


@dataclass
class _Result:
    value: int


def _cell(fn, family="toy"):
    return workloads.Cell("toy/0", family, fn, {})


def _measure(cells, **kwargs):
    return run.measure_cells(workloads.Workload(cells), 0,
                             Yardstick(), **kwargs)


def test_planted_wrong_digest_counts_in_error_rate():
    from repro.obs.manifest import result_digest

    cell = _cell(lambda: _Result(1))
    good = {cell.id: result_digest(_Result(1))}
    assert not _measure([cell], pins=good).failed
    tally = _measure([cell], pins={cell.id: "0" * 64})
    assert tally.attempted == 2
    assert len(tally.failed) == 2


def test_digest_that_changes_between_repeats_fails():
    calls = iter(range(10))
    tally = _measure([_cell(lambda: _Result(next(calls)))])
    assert sorted(tally.failed) == [(1, "toy/0")]


def test_raising_cell_fails_and_the_run_goes_on():
    def boom():
        raise RuntimeError("planted")
    tally = _measure([_cell(boom)])
    assert tally.attempted == 2 and len(tally.failed) == 2


def test_family_below_its_floor_fails_every_cell():
    floor = workloads.Floor(summarize=lambda r: {"accuracy": r.value},
                            holds=lambda rows: rows[0]["accuracy"] > 0.5,
                            rule="accuracy > 0.5")
    cell = _cell(lambda: _Result(0), family="aes")
    tally = run.measure_cells(
        workloads.Workload([cell], floors={"aes": floor}), 0,
        Yardstick())
    assert len(tally.failed) == 2


def test_every_round_starts_from_the_same_task_pids():
    from repro.sched.task import Task

    tally = _measure([_cell(lambda: _Result(Task("t").pid))])
    assert tally.attempted == 2 and not tally.failed


def test_floor_fails_a_clear_miss_not_sampling_scatter():
    gcd = workloads.ATTACK_FLOORS["gcd"]

    def rows(*accuracies):
        return [{"accuracy": a, "iterations": 21} for a in accuracies]
    # Seed 15's eight pairs: two stray pairs pull the bare mean to 0.89.
    assert gcd.holds(rows(0.4545, 0.6667, 1, 1, 1, 1, 1, 1))
    assert not gcd.holds(rows(0.85, 0.9, 0.8, 0.88, 0.86, 0.9, 0.84, 0.87))
    assert not gcd.holds(rows(0.5) * 8)
    assert gcd.holds(rows(1.0) * 8)
    assert not gcd.holds([{"accuracy": 1.0, "iterations": 31}])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench("--workload", "characterize", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
