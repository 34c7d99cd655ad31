"""Smoke test of the benchmark at tiny sizes; kept out of the main test suite.

Run with ``python3 -m pytest perfbench/test_smoke.py -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["paper", "qbd", "poly"])
def test_smoke_run_prints_result(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    if workload != "poly":
        assert result["correct"] and result["failed"] == 0
        if trace == "0":
            assert result["metrics"]["cr_iters_plain"]["value"] > result["metrics"]["cr_iters_shift"]["value"]
    if workload == "paper" and trace == "0":
        assert result["metrics"]["cr_iters_plain"]["value"] == 12  # p3, as in the paper
        assert result["metrics"]["cr_iters_shift"]["value"] == 5


def test_same_seed_same_inputs(tmp_path):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workloads

        def files(sub):
            (tmp_path / sub).mkdir()
            ops = workloads.build("paper", 7, tmp_path / sub, lambda argv: None, smoke=True)
            return [op.argv for op in ops], sorted(p.read_bytes() for p in (tmp_path / sub).glob("in*.mp.json"))

        first, second = files("a"), files("b")
        assert [len(a) for a in first[0]] == [len(a) for a in second[0]]
        assert first[1] == second[1]
    finally:
        del sys.path[:2]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
