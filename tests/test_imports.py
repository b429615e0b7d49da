"""Import guard: the package runs on the SciPy subpackages its solvers use.

``scipy.optimize``, ``scipy.ndimage`` and ``scipy.spatial`` cost about a
tenth of a second and 14 MB on every cold start, for uses that numpy,
``scipy.sparse.csgraph`` and a bisection serve.  The guard runs in a fresh
interpreter, after a strip-surgery row and a descent, so that an import
moved into a function body is caught too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED = ("scipy.optimize", "scipy.ndimage", "scipy.spatial")

PROGRAM = f"""
import json, sys
import eigsurgery, eigsurgery.cli
from eigsurgery.corpus import blob_union, surgery_corpus
from eigsurgery.harness import RunConfig, run_one
from eigsurgery.surgery import bounded_surgery

row = run_one(surgery_corpus(1 / 32)[0], RunConfig(K=200, k=3, mode="practical:1e12"))
_, report = bounded_surgery(blob_union(1 / 32, seed=3), K=100, k=2, mode="practical:1e6")
print(json.dumps({{
    "status": row["status"],
    "verdict": report.verdict,
    "loaded": [m for m in {UNUSED!r} if m in sys.modules],
}}))
"""


def test_unused_scipy_subpackages_are_never_imported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == "ok"  # both pipelines ran to the end
    assert result["verdict"] in ("pass", "fail")
    assert result["loaded"] == []
