#!/usr/bin/env python3
"""Smoke self-test of the benchmark, in well under a minute.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at h = 1/32 for one second, with
tracing off and on, through the same command the benchmark is run with, and
asserts that the last line of output has exactly the four result keys and
every named metric with its unit.  It also checks that the benchmark refuses
to run, without printing a result, from a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench_out" / "smoke-bare"


def run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*spec["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--h", "1/32"]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(spec, ROOT, workload, trace)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    named = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (workload, trace, set(got) ^ set(expected))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), (name, m)
    print(f"ok {workload} trace={trace}: {result['attempted']} items, "
          f"{result['failed']} failed, correct={result['correct']}")  # fmt: skip


def check_bare_directory(spec: dict) -> None:
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, BARE / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, BARE, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark ran without the program's sources"
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
