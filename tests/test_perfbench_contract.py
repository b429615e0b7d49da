"""The benchmark's span recorder still fits the package's public functions.

``perfbench/tracing.py`` rebinds the functions it names in ``LAYERS`` and
reads a few results by position; a renamed function or a changed return
shape breaks the traced benchmark run.  These tests load the recorder from
its file, as the benchmark does, and exercise it against the package.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from eigsurgery import pde, surgery
from eigsurgery.corpus import blob_union

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_installs_and_uninstalls(monkeypatch):
    tracing = load_tracing(monkeypatch)
    original = pde.solve_torsion
    recorder = tracing.Recorder()
    recorder.install()  # raises AttributeError if a LAYERS name is gone
    try:
        assert surgery.solve_torsion is not original
    finally:
        recorder.uninstall()
    assert surgery.solve_torsion is original


def test_traced_descent_records_its_moves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        _, report = surgery.bounded_surgery(
            blob_union(1 / 32, seed=3), K=100.0, k=2, mode="practical:1e6"
        )
    finally:
        recorder.uninstall()
    assert report.log
    counts = tracing.counts(recorder.spans)
    assert counts["surgery.bounded_surgery.calls"] == 1
    assert counts["surgery.descent.moves"] == len(report.log)
