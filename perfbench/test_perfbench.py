"""Smoke tests of the benchmark: every workload, every check and the
traced run at a tiny shape.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_broken_outputs(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import session
    preds = tmp_path / "p.csv"
    header = ",".join(["row"] + [f"p_alt{i + 1}" for i in range(13)]
                      + ["predicted", "h1", "h2"])
    good = ["1"] + ["0.0"] * 12 + ["1.0", "13", "0.5", "0.5"]
    preds.write_text(header + "\n" + ",".join(good) + "\n")
    assert session.check_predictions(preds, 1) is None
    wrong = good[:14] + ["12"] + good[15:]
    preds.write_text(header + "\n" + ",".join(wrong) + "\n")
    assert "argmax" in session.check_predictions(preds, 1)
    ranks = tmp_path / "s.csv"
    cols = ["J0_full_rank", "J0_sample_rank", "J0_stderr_diff_pct",
            "J2_full_rank", "J2_sample_rank", "J2_stderr_diff_pct"]
    body = [f"f{v},{v},{v},0.0,{v},{v},0.0" for v in range(1, 22)]
    ranks.write_text("variable," + ",".join(cols) + "\n" + "\n".join(body))
    assert session.check_ranks(ranks) is None
    body[0] = "f1,2,1,0.0,1,1,0.0"
    ranks.write_text("variable," + ",".join(cols) + "\n" + "\n".join(body))
    assert "J0_full_rank" in session.check_ranks(ranks)
