"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = "0.1"


def bench(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_metrics_match_spec(workload, trace):
    result = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", str(trace), "--scale", TINY)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})


def test_corrupted_output_row_counts_as_failed(tmp_path):
    runner = run.Runner(ROOT, tmp_path)
    workload = workloads.longtail(5, float(TINY), tmp_path)
    runner.sequence(workload, traced=False)
    assert (runner.attempted, runner.failed) == (2, 0)

    score = workload.commands[-1]
    check = score.check

    def corrupt_then_check():
        out = tmp_path / "projections.csv"
        lines = out.read_text(encoding="utf-8").splitlines()
        cells = lines[7].split(",")
        cells[1] = f"{float(cells[1]) + 0.25:.6f}"
        lines[7] = ",".join(cells)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return check()

    score.check = corrupt_then_check
    runner.sequence(workload, traced=False)
    assert (runner.attempted, runner.failed) == (4, 1)


def test_peak_rss_leaves_out_the_benchmark_process(tmp_path):
    runner = run.Runner(ROOT, tmp_path)
    workload = workloads.simulate(5, float(TINY), tmp_path)
    alone = runner.sequence(workload, traced=False)[0].rss_mb
    # The spawning process now holds 100 MB more than any CLI command needs.
    ballast = b"\1" * ((int(alone) + 100) * 2**20)
    with_ballast = runner.sequence(workload, traced=False)[0].rss_mb
    del ballast
    assert runner.failed == 0
    assert with_ballast < alone * 1.2


def test_missing_program_exits_nonzero_without_result(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          check=False)
    assert done.returncode != 0
    assert done.stdout == ""
