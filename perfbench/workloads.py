"""The four benchmark workloads and their correctness gates.

Each workload is a closed loop: one caller issues items back to back, in
passes.  A pass is the unit the loop repeats and the traced run counts:

* ``surgery_suite``: one ``run_suite`` over the 10-domain surgery corpus
  (strip surgery, practical mode, one worker).  An item is one report row,
  timed around each ``harness.run_one`` call.
* ``inequality_corpus``: the 20-domain mixed corpus; an item is
  ``generate`` -> ``solve_torsion`` -> ``eigenvalues(k=5)`` -> the 9
  inequality checks, called through the public functions.
* ``descent``: ``bounded_surgery`` in practical mode on a fixed pool of 12
  blob unions.
* ``suite_parallel``: the surgery suite through ``cli.main`` with one worker
  per core, so it is the only workload that uses the thread pool and the CLI.

The seed S drives the ARPACK start vector, the blob and perforated generator
seeds of the inequality corpus (derived from ``(S, corpus seed)``) and the
order of the descent's pool.  S = 0 keeps the acceptance suite's inputs: the
corpus seeds 10-13 and 20-22 and, first in the pool, the descent seeds 3,
10, 11.  Every pass of a run repeats the same inputs.

An item fails when it raises, when its row or report is not ``passed``,
when the CLI exit code is not 0, when an eigenvalue or the torsion maximum or
integral leaves its tolerance around the committed reference, or when two
passes of a suite write ``reports.jsonl`` files that differ.  The last two
mean an output is wrong (``ItemResult.wrong``); the others are failures the
program reports or raises itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from eigsurgery import cli, corpus, harness, inequalities, pde, surgery
from eigsurgery.corpus import CorpusSpec

# Grid spacings: coarse enough that a 20-second run holds about 100 items
# of each workload (see README.md).
H_SUITE = 1 / 64
H_INEQUALITY = 1 / 96
H_DESCENT = 1 / 64

SUITE_ARGS = dict(K=200.0, k=3, mode="practical:1e12")
DESCENT_ARGS = dict(K=100.0, k=2, mode="practical:1e6")
# Blob seeds of the descent: the acceptance suite's 3, 10, 11 and the nine
# after them.  A pass runs the whole pool in an order drawn from S, so every
# pass does the same work; drawing fresh blob seeds from S instead made the
# descent's throughput spread by 18% from seed to seed.
DESCENT_POOL = (3, *range(10, 21))
INEQUALITY_K = 5

EIG_REL_TOL = 10 * pde.DEFAULT_EIG_TOL


@dataclass
class ItemResult:
    item: str
    seconds: float
    failure: str | None = None
    wrong: bool = False
    referenced: bool = False  # outputs were compared with reference.json


def derived_seed(seed: int, base: int) -> int:
    """Generator seed of one input; S = 0 keeps the corpus's own seed."""
    if seed == 0:
        return base
    return int(np.random.SeedSequence([seed, base]).generate_state(1)[0])


def reference_failure(ref: dict[str, Any] | None, h: float, **got: Any) -> str | None:
    """Compare outputs with a committed reference; ``None`` when they agree.

    ``got`` holds ``spectrum`` and optionally ``torsion_max`` and
    ``torsion_integral``.  Tolerances follow the solver tolerances:
    ``10 * eig_tol`` relative for eigenvalues, and ``kappa * cg_tol`` relative
    for the torsion, with the condition number bounded by
    ``kappa <= (4N / h^2) / lambda_1`` (N = 2).
    """
    if ref is None:
        return None
    for i, (value, want) in enumerate(zip(got["spectrum"], ref["spectrum"]), 1):
        if abs(value - want) > EIG_REL_TOL * abs(want):
            return f"lambda_{i} = {value!r}, reference {want!r}"
    tol = 8.0 / (h * h * ref["spectrum"][0]) * pde.DEFAULT_CG_TOL
    for name in ("torsion_max", "torsion_integral"):
        if name in ref and abs(got[name] - ref[name]) > tol * abs(ref[name]):
            return f"{name} = {got[name]!r}, reference {ref[name]!r}"
    return None


class Workload:
    """Base class: ``warm_up`` once, then ``run_pass(p)`` for p = 0, 1, ..."""

    name = ""
    recorder = None  # the traced run sets this to label spans by item

    def __init__(self, seed: int, scratch: Path, references: dict[str, Any]):
        self.seed = seed
        self.scratch = scratch
        self.references = references

    def describe(self) -> dict[str, Any]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, p: int) -> list[ItemResult]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# surgery suites


class RunOneTimer:
    """Times every ``harness.run_one`` call; ``run_suite`` looks the name up
    in the harness module, so rebinding it there reaches every worker."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, float]] = []
        self._lock = threading.Lock()
        self._original: Callable | None = None

    def install(self) -> None:
        self._original = harness.run_one
        harness.run_one = self._timed

    def uninstall(self) -> None:
        if self._original is not None:
            harness.run_one = self._original
            self._original = None

    def _timed(self, spec: CorpusSpec, *args: Any, **kwargs: Any) -> dict[str, Any]:
        t0 = time.perf_counter()
        try:
            return self._original(spec, *args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self.calls.append((spec.name, dt))

    def take(self) -> dict[str, float]:
        with self._lock:
            calls, self.calls = self.calls, []
        return dict(calls)


def _check_by_name(row: dict[str, Any], name: str) -> dict[str, Any]:
    return next(c for c in row["sanity"] if c["name"] == name)


class _Suite(Workload):
    """Shared by the in-process and the CLI suite: one pass = one suite run
    into a fresh output directory."""

    workers = 1

    def __init__(
        self, seed: int, scratch: Path, references: dict[str, Any], h: float = H_SUITE
    ):
        super().__init__(seed, scratch, references)
        self.h = h
        self.specs = corpus.surgery_corpus(h)
        self.timer = RunOneTimer()
        self.timer.install()
        self.first_report: bytes | None = None

    def describe(self) -> dict[str, Any]:
        return {
            "corpus": "surgery",
            "h": self.h,
            "items_per_pass": len(self.specs),
            "workers": self.workers,
            **SUITE_ARGS,
        }

    def warm_up(self) -> None:
        harness.run_one(self.specs[0], harness.RunConfig(seed=self.seed, **SUITE_ARGS))
        self.timer.take()

    def close(self) -> None:
        self.timer.uninstall()

    def _suite(self, out: Path) -> int:
        raise NotImplementedError

    def run_pass(self, p: int) -> list[ItemResult]:
        out = self.scratch / f"{self.name}-pass{p}"
        shutil.rmtree(out, ignore_errors=True)
        try:
            exit_code = self._suite(out)
            report = (out / "reports.jsonl").read_bytes()
        except Exception as exc:  # a pass that raises fails all its items
            seconds = self.timer.take()
            return [ItemResult(s.name, seconds.get(s.name, 0.0), repr(exc)) for s in self.specs]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        seconds = self.timer.take()
        if self.first_report is None:
            self.first_report = report
        rows = {}
        for line in report.decode("ascii").splitlines():
            row = json.loads(line)
            rows[row["id"]] = row
        results = []
        for spec in self.specs:
            if spec.name not in rows:
                results.append(ItemResult(spec.name, seconds.get(spec.name, 0.0), "no report row"))
                continue
            result = self._row_result(rows[spec.name], seconds[spec.name])
            if report != self.first_report:
                result.failure, result.wrong = "reports.jsonl differs from the first pass", True
            elif exit_code != 0:
                result.failure = result.failure or f"exit code {exit_code}"
            results.append(result)
        return results

    def _row_result(self, row: dict[str, Any], seconds: float) -> ItemResult:
        result = ItemResult(row["id"], seconds)
        if row["status"] == "error":
            result.failure = row["error"]
            return result
        spec = row["spec"]
        key = f"{spec['name']}@{spec['h']!r}"
        result.referenced = key in self.references
        talenti = _check_by_name(row, "talenti")
        wrong = reference_failure(
            self.references.get(key),
            talenti["context"]["h"],
            spectrum=row["geometry"]["spectrum"],
            torsion_max=talenti["lhs"],
            torsion_integral=_check_by_name(row, "saint_venant")["lhs"],
        )
        if wrong:
            result.failure, result.wrong = wrong, True
        elif not row["passed"]:
            result.failure = f"row status {row['status']}, not passed"
        return result


class SurgerySuite(_Suite):
    name = "surgery_suite"

    def _suite(self, out: Path) -> int:
        config = harness.RunConfig(
            seed=self.seed, workers=1, out_dir=str(out), **SUITE_ARGS
        )
        return harness.run_suite(self.specs, config).exit_code


class SuiteParallel(_Suite):
    name = "suite_parallel"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.workers = len(os.sched_getaffinity(0))  # nproc

    def _suite(self, out: Path) -> int:
        argv = [
            "surgery", "--corpus", "surgery", "--h", f"1/{round(1 / self.h)}",
            "--K", "200", "--k", "3", "--mode", SUITE_ARGS["mode"],
            "--workers", str(self.workers), "--seed", str(self.seed),
            "--out", str(out),
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)


# --------------------------------------------------------------------------
# inequality corpus


class InequalityCorpus(Workload):
    name = "inequality_corpus"

    def __init__(
        self, seed: int, scratch: Path, references: dict[str, Any], h: float = H_INEQUALITY
    ):
        super().__init__(seed, scratch, references)
        self.h = h
        self.specs = [
            replace(s, seed=derived_seed(seed, s.seed))
            if s.generator in ("blob_union", "perforated")
            else s
            for s in corpus.default_corpus(h)
        ]

    def describe(self) -> dict[str, Any]:
        return {
            "corpus": "default",
            "h": self.h,
            "items_per_pass": len(self.specs),
            "k": INEQUALITY_K,
            "seeds": {s.name: s.seed for s in self.specs if s.seed},
        }

    def warm_up(self) -> None:
        self._item(self.specs[0])

    def _item(self, spec: CorpusSpec) -> tuple:
        """The C03 pipeline on one spec: domain, torsion, spectrum, checks."""
        d = corpus.generate(spec)
        f = pde.solve_torsion(d)
        s = pde.eigenvalues(d, k=INEQUALITY_K, seed=self.seed)
        m_table = inequalities.default_m_table(2, d.N)
        reports = [
            inequalities.check_saint_venant(d, f),
            inequalities.check_talenti(d, f),
            inequalities.check_vdb(d, f, spectrum=s),
            *(inequalities.check_berezin_li_yau(d, j, spectrum=s) for j in range(1, 6)),
            inequalities.check_ratio_bound(d, 2, m_table=m_table, spectrum=s),
        ]
        return d, f, s, reports

    def run_pass(self, p: int) -> list[ItemResult]:
        results = []
        for spec in self.specs:
            key = f"{spec.name}:{spec.seed}@{spec.h!r}"
            if self.recorder is not None:
                self.recorder.set_item(key)
            t0 = time.perf_counter()
            try:
                d, f, s, reports = self._item(spec)
            except Exception as exc:  # an item that raises is a failed item
                results.append(ItemResult(key, time.perf_counter() - t0, repr(exc)))
                continue
            result = ItemResult(key, time.perf_counter() - t0, referenced=key in self.references)
            wrong = reference_failure(
                self.references.get(key),
                d.h,
                spectrum=s.eigenvalues,
                torsion_max=f.max,
                torsion_integral=f.integral,
            )
            failed = [r.name for r in reports if not r.passed]
            if wrong:
                result.failure, result.wrong = wrong, True
            elif failed:
                result.failure = f"checks failed: {failed}"
            results.append(result)
        return results


# --------------------------------------------------------------------------
# descent


class Descent(Workload):
    name = "descent"

    def __init__(
        self, seed: int, scratch: Path, references: dict[str, Any], h: float = H_DESCENT
    ):
        super().__init__(seed, scratch, references)
        self.h = h
        self.order = list(DESCENT_POOL)
        if seed != 0:
            self.order = [int(b) for b in np.random.default_rng(seed).permutation(self.order)]

    def describe(self) -> dict[str, Any]:
        return {
            "generator": "blob_union",
            "h": self.h,
            "items_per_pass": len(self.order),
            "order": self.order,
            **DESCENT_ARGS,
        }

    def spec(self, blob_seed: int) -> CorpusSpec:
        return CorpusSpec(f"blobs-{blob_seed}", "blob_union", self.h, seed=blob_seed)

    def warm_up(self) -> None:
        d = corpus.generate(self.spec(DESCENT_POOL[0]))
        surgery.bounded_surgery(d, seed=self.seed, **DESCENT_ARGS)

    def run_pass(self, p: int) -> list[ItemResult]:
        results = []
        for blob_seed in self.order:
            spec = self.spec(blob_seed)
            key = f"{spec.generator}:{spec.seed}@{spec.h!r}"
            if self.recorder is not None:
                self.recorder.set_item(key)
            t0 = time.perf_counter()
            try:
                d = corpus.generate(spec)
                _, report = surgery.bounded_surgery(d, seed=self.seed, **DESCENT_ARGS)
            except Exception as exc:  # an item that raises is a failed item
                results.append(ItemResult(key, time.perf_counter() - t0, repr(exc)))
                continue
            result = ItemResult(key, time.perf_counter() - t0, referenced=key in self.references)
            floor = next(c for c in report.checks if c.name == "torsion_floor")
            wrong = reference_failure(
                self.references.get(key),
                d.h,
                spectrum=report.before["spectrum"],
                torsion_max=floor.context["before_max"],
            )
            if wrong:
                result.failure, result.wrong = wrong, True
            elif not report.passed:
                failed = [c.name for c in report.checks if not c.passed]
                result.failure = f"report verdict {report.verdict}: {failed}"
            results.append(result)
        return results


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SurgerySuite, InequalityCorpus, Descent, SuiteParallel)
}
