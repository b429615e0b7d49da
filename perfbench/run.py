#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload surgery_suite --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's facts (machine,
BLAS environment, versions, commit, workload configuration, sample counts).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median over
fresh processes of the time from process start to the first timed item
(imports plus one warm-up item); then whole passes run back to back until
``--seconds`` have elapsed.  Every pass runs the same inputs, and every
timing is rescaled to a reference machine speed measured just before and
after its pass or set-up probe (see :class:`Calibration`).  ``items_per_s``
is the median over passes of a pass's items over its wall time;
``item_s.p50``/``item_s.p90`` are percentiles, over the distinct inputs of
the run, of each input's median latency.  The raw times and calibration
samples are in the facts line.

``--trace 1`` runs untraced passes for half the window, the same passes
again with every layer traced, and pass 0 traced a second time; it reports
per-layer metrics, checks that the pass-0 counts of the two traced runs are
identical, and writes the spans to ``.perfbench_out/``.  BLAS threading is
inherited from the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_PROBES = 5
# names only: workloads.py imports the package, which is loaded after the
# checkout has been checked for its sources
WORKLOADS = ("surgery_suite", "inequality_corpus", "descent", "suite_parallel")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_s.p50": "s",
    "item_s.p90": "s",
    "peak_rss_mb": "MB",
}

# layers every workload exercises report self time in seconds per pass;
# layers only some workloads reach report their share of the traced wall time
SELF_S_LAYERS = (
    "pde.eigenvalues",
    "pde.solve_torsion",
    "pde.build_laplacian",
    "domain.geometry",
    "domain.edit",
    "corpus.generate",
)
SHARE_LAYERS = (
    "inequalities.checks",
    "surgery.plan",
    "surgery.component_cleanup",
    "surgery.measure_domain",
    "surgery.strip_surgery",
    "surgery.subsolution_truncate",
    "surgery.verify_choicec",
    "surgery.bounded_surgery",
    "harness.run_one",
    "harness.write_reports",
    "cli.main",
)
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in (*SELF_S_LAYERS, "inequalities.checks")},
    **{f"{layer}.self_s": "s" for layer in SELF_S_LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS},
    "pde.eigenvalues.cells": "count",
    "pde.eigenvalues.calls_per_raster": "ratio",
    "pde.solve_torsion.cells": "count",
    "pde.solve_torsion.calls_per_raster": "ratio",
    "pde.solve_torsion.max_residual": "1",
    "surgery.descent.candidates": "count",
    "surgery.descent.moves": "count",
    "surgery.descent.accept_ratio": "ratio",
    "harness.report_bytes": "bytes",
    "harness.pool.busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not (SRC / "eigsurgery" / "__init__.py").is_file():
        raise BenchmarkError(f"no eigsurgery sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigsurgery

    if Path(eigsurgery.__file__).resolve().parent != (SRC / "eigsurgery").resolve():
        raise BenchmarkError(f"eigsurgery imported from {eigsurgery.__file__}, not {SRC}")


def make_workload(name: str, seed: int, scratch: Path, h: float | None):
    import workloads

    references = json.loads(REFERENCE.read_text(encoding="ascii"))["items"]
    kwargs = {} if h is None else {"h": h}
    return workloads.WORKLOADS[name](seed, scratch, references, **kwargs)


# --------------------------------------------------------------------------
# machine facts


def _openblas_configs() -> dict[str, str]:
    """Runtime config string of every OpenBLAS loaded in this process."""
    configs: dict[str, str] = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_config",
            "openblas_get_config64_",
            "scipy_openblas_get_config",
            "scipy_openblas_get_config64_",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                configs[Path(path).name] = fn().decode().strip()
                break
    if not configs:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        configs["numpy (build)"] = blas.get("openblas configuration", blas.get("name", "unknown"))
    return configs


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eigsurgery").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict[str, Any]:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_config": _openblas_configs(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --------------------------------------------------------------------------
# measurement


def setup_probe(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to its first timed item."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]  # fmt: skip
    if args.h is not None:
        cmd += ["--h", str(args.h)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"setup probe failed (exit {code})")
    return elapsed


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_passes(wl, seconds: float) -> list[tuple[list, float]]:
    """Run whole passes back to back until ``seconds`` have elapsed; returns
    each pass's item results and wall time."""
    passes = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        passes.append(timed(wl.run_pass, len(passes)))
    return passes


class Calibration:
    """A fixed sparse-solver kernel built from SciPy alone, timed between
    passes to measure how fast the machine runs at that moment.

    The CPU speed of a shared machine drifts by up to 2x over seconds to
    minutes; the same pass then takes up to twice as long.  Timings are
    rescaled to the speed at which this kernel takes ``REFERENCE_S``, which
    halved the run-to-run spread of the surgery suite's throughput on a
    shared 2-core VM.  The kernel shares no code with the package, so a
    change to the package moves the rescaled timings as much as the raw ones.
    """

    REFERENCE_S = 0.020
    REPEATS = 3

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sparse

        n = 64
        t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.eye(n)
        self.matrix = (sparse.kron(t, eye) + sparse.kron(eye, t)).tocsc()
        self.rhs = np.ones(n * n)

    def sample(self) -> list[float]:
        import scipy.sparse.linalg as sparse_linalg

        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            lu = sparse_linalg.splu(self.matrix)
            for _ in range(10):
                lu.solve(self.rhs)
            sparse_linalg.cg(self.matrix, self.rhs, rtol=1e-10, atol=0.0, maxiter=200)
            times.append(time.perf_counter() - t0)
        return times

    def slowdown(self, times: list[float]) -> float:
        """Above 1 when the machine ran slower than the reference speed."""
        return statistics.median(times) / self.REFERENCE_S


def end_to_end(wl, args: argparse.Namespace, facts: dict[str, Any]):
    calibration = Calibration()
    samples = [calibration.sample()]

    def bracketed(measure):
        """Run ``measure``, sample the kernel again, and return the result
        with the slowdown over the samples just before and after it."""
        result = measure()
        samples.append(calibration.sample())
        return result, calibration.slowdown(samples[-2] + samples[-1])

    probes = [bracketed(lambda: setup_probe(args)) for _ in range(SETUP_PROBES)]
    wl.warm_up()
    samples.append(calibration.sample())
    passes = []  # (items, wall seconds, slowdown)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        (items, wall), slowdown = bracketed(lambda: timed(wl.run_pass, len(passes)))
        passes.append((items, wall, slowdown))
    facts.update(
        passes=len(passes),
        items=sum(len(items) for items, _, _ in passes),
        setup_seconds=[wall for wall, _ in probes],
        pass_seconds=[wall for _, wall, _ in passes],
        calibration_seconds=samples,
    )

    by_input: dict[str, list[float]] = {}
    for items, _, f in passes:
        for r in items:
            by_input.setdefault(r.item, []).append(r.seconds / f)
    latency = [statistics.median(v) for v in by_input.values()]
    facts["inputs"] = len(latency)
    metrics = {
        "setup_s": statistics.median(wall / f for wall, f in probes),
        "items_per_s": statistics.median(len(items) / wall * f for items, wall, f in passes),
        "item_s.p50": statistics.median(latency),
        "item_s.p90": statistics.quantiles(latency, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return [r for items, _, _ in passes for r in items], metrics, True


@contextlib.contextmanager
def recording(wl):
    """Trace every layer, and label the workload's items, for one block."""
    import tracing

    recorder = tracing.Recorder()
    wl.recorder = recorder
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.uninstall()
        wl.recorder = None


def traced(wl, args: argparse.Namespace, facts: dict[str, Any]):
    import tracing

    wl.warm_up()
    untraced = run_passes(wl, args.seconds / 2)
    results = [r for items, _ in untraced for r in items]
    passes = len(untraced)

    with recording(wl) as recorder:
        t0 = time.perf_counter()
        for p in range(passes):
            recorder.pass_index = p
            results += wl.run_pass(p)
        traced_wall = time.perf_counter() - t0
    with recording(wl) as again:
        results += wl.run_pass(0)

    first = tracing.counts([s for s in recorder.spans if s.pass_index == 0])
    repeat = tracing.counts(again.spans)
    mismatched = sorted(k for k in first if first[k] != repeat[k])
    if mismatched:
        print(f"counts differ between two traced runs: {mismatched}", file=sys.stderr)

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(spans_path)
    facts.update(passes=passes, items=len(results), spans=str(spans_path.relative_to(ROOT)))

    own = tracing.layer_self_time(recorder.spans)
    metrics: dict[str, float] = dict(first)
    metrics.update({f"{layer}.self_s": own[layer] / passes for layer in SELF_S_LAYERS})
    metrics.update({f"{layer}.self_share": own[layer] / traced_wall for layer in SHARE_LAYERS})
    metrics["harness.pool.busy_ratio"] = tracing.pool_busy_ratio(recorder.spans)
    metrics["trace.overhead_ratio"] = traced_wall / sum(wall for _, wall in untraced) - 1
    return results, {k: metrics[k] for k in PER_LAYER}, not mismatched


def run(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one benchmark invocation; returns (facts, result)."""
    load_package()
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload, args.seed, scratch, args.h)
    try:
        facts: dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "config": wl.describe(),
            "loop": "closed, one caller",
        }
        measure = traced if args.trace else end_to_end
        results, metrics, counts_repeat = measure(wl, args, facts)
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
    facts["machine"] = machine_facts()
    failures: dict[str, int] = {}
    for r in results:
        if r.failure is not None:
            key = f"{r.item}: {r.failure}"
            failures[key] = failures.get(key, 0) + 1
    facts["failures"] = failures
    facts["items_checked_against_reference"] = sum(1 for r in results if r.referenced)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": counts_repeat and not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure is not None),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return facts, result


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--h", type=lambda s: float(Fraction(s)), default=None,
                   help="grid spacing override (the smoke test runs at 1/32)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            load_package()
            wl = make_workload(args.workload, args.seed, OUT / f"tmp-{os.getpid()}", args.h)
            wl.warm_up()
            print("ready", flush=True)
            wl.close()
            return 0
        facts, result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key, count in facts["failures"].items():
        print(f"failed x{count}: {key}", file=sys.stderr)
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
