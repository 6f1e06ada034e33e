"""Smoke test of the benchmark itself, at the shortest run length.

    python3 perfbench/smoke_test.py            # or: python3 -m pytest perfbench/smoke_test.py

Checks that every workload emits exactly the metrics ``BENCHMARK.json``
declares, with their units, in both trace modes; that a failed output check
makes the command exit non-zero; and that it refuses to run without the
program's sources. Scratch copies go under ``.bench_work/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_work", "smoke")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(root: str, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_checkout(name: str, with_sources: bool = True) -> str:
    """A copy of the benchmark, and optionally of ``src``, under the scratch directory."""
    target = os.path.join(SCRATCH, name)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), target)
    ignore = shutil.ignore_patterns("__pycache__")
    for path in SPEC["paths"] + (["src"] if with_sources else []):
        shutil.copytree(os.path.join(ROOT, path), os.path.join(target, path), ignore=ignore)
    return target


def test_every_metric_is_emitted_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        counts = []
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"]), (1, SPEC["per_layer"])):
            proc, result = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in declared}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            for name in expected:
                assert f"  {name} " in proc.stdout, f"{name} not printed for {workload}"
            if trace == 0:
                assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
                assert "failed_frac" in proc.stdout
            else:
                counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "B")})
        # Two traced runs at one seed agree on every count (thread count aside).
        for run_counts in counts:
            run_counts.pop("parallel.threads")
        assert counts[0] == counts[1], workload


def test_failed_check_exits_nonzero():
    root = copy_checkout("broken")
    numerics = os.path.join(root, "src", "mmimo", "numerics.py")
    with open(numerics, encoding="utf-8") as fh:
        text = fh.read()
    exact = "return float(20.0 * np.log10(s[0] / s[-1]))"
    assert exact in text
    with open(numerics, "w", encoding="utf-8") as fh:
        fh.write(text.replace(exact, "return float(20.0 * np.log10(s[0] / s[-1])) + 3.0"))
    proc, result = run_bench(root, "iid-trials", 0)
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False and result["failed"] >= 1
    assert "svd-spread: 4x4 median band" in proc.stdout


def test_refuses_to_run_without_sources():
    root = copy_checkout("bare", with_sources=False)
    proc, result = run_bench(root, "iid-trials", 0)
    assert proc.returncode != 0
    assert result is None


if __name__ == "__main__":
    for test in (test_every_metric_is_emitted_with_its_unit, test_failed_check_exits_nonzero,
                 test_refuses_to_run_without_sources):
        test()
        print(f"ok {test.__name__}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
