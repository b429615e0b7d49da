"""The benchmark still fits the package's public functions and constants.

``perfbench/tracing.py`` rebinds the functions it names in ``LAYERS`` and
reads a few results by position; ``perfbench/workloads.py`` calls the
pipelines with keyword arguments and reads ``pde.DEFAULT_CG_TOL`` to check
outputs against ``perfbench/reference.json``.  A renamed function or
constant, a removed keyword or a changed return shape breaks the benchmark.
These tests load its modules from their files, as the benchmark does, and
exercise them against the package.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from eigsurgery import pde, surgery
from eigsurgery.corpus import blob_union, dumbbell, generate, surgery_corpus, tube

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def references():
    return json.loads((PERFBENCH / "reference.json").read_text())["items"]


def test_every_layer_installs_and_uninstalls(monkeypatch):
    tracing = load_perfbench(monkeypatch, "tracing")
    original = pde.solve_torsion
    recorder = tracing.Recorder()
    recorder.install()  # raises AttributeError if a LAYERS name is gone
    try:
        assert surgery.solve_torsion is not original
    finally:
        recorder.uninstall()
    assert surgery.solve_torsion is original


def test_traced_descent_records_its_moves(monkeypatch):
    tracing = load_perfbench(monkeypatch, "tracing")
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
    assert counts["pde.solve_torsion.calls_per_raster"] == 1.0


@pytest.mark.parametrize(
    "domain, plan, cleanup, measured",
    [
        (lambda: dumbbell(1 / 192, bulb_radius=0.42, neck_length=1.8), 4, 1, 2),
        (lambda: tube(1 / 64), 4, 1, 1),
    ],
    ids=["cut-dumbbell", "tube-noop"],
)
def test_traced_strip_surgery_keeps_its_layer_spans(
    monkeypatch, domain, plan, cleanup, measured
):
    # the strip pipeline's stages must reach the traced surgery layers
    # through the module's names, once per stage call
    tracing = load_perfbench(monkeypatch, "tracing")
    d = domain()
    f, s = pde.solve_torsion(d), pde.eigenvalues(d, k=3)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        surgery.strip_surgery(f, s, K=200.0, k=3, mode="practical:1e12")
    finally:
        recorder.uninstall()
    counts = tracing.counts(recorder.spans)
    assert counts["surgery.strip_surgery.calls"] == 1
    assert counts["surgery.plan.calls"] == plan
    assert counts["surgery.component_cleanup.calls"] == cleanup
    assert counts["surgery.measure_domain.calls"] == measured


def test_suite_solves_match_the_references(monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")
    refs = references()
    for spec in surgery_corpus(1 / 64):
        ref = refs[f"{spec.name}@{spec.h!r}"]
        d = generate(spec)
        f = pde.solve_torsion(d)
        s = pde.eigenvalues(d, k=len(ref["spectrum"]))
        failure = workloads.reference_failure(
            ref,
            d.h,
            spectrum=s.eigenvalues,
            torsion_max=f.max,
            torsion_integral=f.integral,
        )
        assert failure is None, (spec.name, failure)


@pytest.mark.parametrize("seed", [0, 1190036361])
def test_inequality_item_keeps_the_double_eigenvalue(monkeypatch, tmp_path, seed):
    # ball-small-cells has a double lambda_2 that Lanczos once lost on these
    # start vectors; the certificate must make the gate's item right
    workloads = load_perfbench(monkeypatch, "workloads")
    workload = workloads.InequalityCorpus(seed, tmp_path, references())
    try:
        spec = next(s for s in workload.specs if s.name == "ball-small-cells")
        d, f, s, _ = workload._item(spec)
    finally:
        workload.close()
    ref = references()[f"{spec.name}:{spec.seed}@{spec.h!r}"]
    failure = workloads.reference_failure(
        ref, d.h, spectrum=s.eigenvalues, torsion_max=f.max, torsion_integral=f.integral
    )
    assert failure is None


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_warms_up_and_closes(monkeypatch, tmp_path, name):
    workloads = load_perfbench(monkeypatch, "workloads")
    workload = workloads.WORKLOADS[name](0, tmp_path, references(), h=1 / 32)
    try:
        workload.warm_up()
    finally:
        workload.close()


def test_suite_parallel_pass_runs_its_cli_argv(monkeypatch, tmp_path):
    workloads = load_perfbench(monkeypatch, "workloads")
    workload = workloads.SuiteParallel(0, tmp_path, references(), h=1 / 32)
    try:
        results = workload.run_pass(0)
    finally:
        workload.close()
    assert len(results) == len(surgery_corpus(1 / 32))
    assert [r.failure for r in results] == [None] * len(results)
