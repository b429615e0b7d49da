"""SHA-256 digests of the reports of fixed runs, to show two trees agree.

Run from the repository root::

    PYTHONPATH=src python3 tools/report_digests.py

The solvers run their factorizations on one OpenBLAS thread whatever the
caller's setting, and the digests are the same with ``OPENBLAS_NUM_THREADS``
unset or set to 1.

It prints one line per run on stdout: the digest of ``reports.jsonl`` from
``run_suite`` on ``surgery_corpus(1/64)`` (K = 200, k = 3, practical:1e12)
and on ``default_corpus(1/64)`` (K = 100, k = 3, practical:1e6), then the
digest of ``bounded_surgery`` over ``blob_union(1/64, s)`` for each listed
seed range, penalty mode, K and k, and last the digest of ``run_suite`` on
``surgery_corpus(1/160)`` (K = 200, k = 3, practical:1e12).  The 1/64
suites cut nothing; at 1/160 dumbbells 0, 2 and 5 and tubes 0 and 1 are
cut, so the cut depth ledger, component cleanup, strip removal and ball
replacement are digested there.  Per seed the bounded digest takes
``json.dumps(report.to_dict(), sort_keys=True)``, then
``repr((h, origin, shape))`` of the returned domain, then
``np.packbits(occupancy)``; a seed that raises adds the exception's
``repr`` instead.  Equal digests before and after a change mean
byte-identical reports and rasters.

On stderr it first prints one line of machine facts, for citing the
digests: ``nproc`` (the CPUs this process may run on), the thread count of
the OpenBLAS that SciPy's LAPACK comes from, as the caller left it, and
that library's build configuration.  Then it prints one line per bounded
seed: the run, the seed, the first 12 hex digits of that seed's own digest,
the verdict, the accepted moves and the final cell count (``raised
<error>`` and ``-`` for a seed that raises).  Two trees' stderr differ
exactly on the seeds whose records differ, and on machine facts.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import cython_lapack

from eigsurgery.corpus import CorpusSpec, blob_union, default_corpus, surgery_corpus
from eigsurgery.harness import RunConfig, _usable_cpus, run_suite
from eigsurgery.pde import _openblas_threads
from eigsurgery.surgery import bounded_surgery

H = 1 / 64

SURGERY = RunConfig(K=200.0, k=3, mode="practical:1e12")

# (name, corpus, h, config) of each run_suite digest.  Those at H print
# before the bounded digests and the rest after them, so each line keeps
# the place it had before finer suites were added.
SUITES = (
    ("surgery_corpus", surgery_corpus, H, SURGERY),
    ("default_corpus", default_corpus, H, RunConfig(K=100.0, k=3, mode="practical:1e6")),
    ("surgery_corpus", surgery_corpus, 1 / 160, SURGERY),
)

# (seeds, mode, K, k) of each bounded_surgery digest
BOUNDED = (
    (range(60), "practical:1e6", 100.0, 2),
    (range(30), "faithful", 100.0, 2),
    (range(30), "practical:1e3", 100.0, 2),
    (range(30), "practical:1e12", 100.0, 2),
    (range(60), "practical:1e6", 50.0, 3),
)


@dataclass(frozen=True)
class SeedRecord:
    """What one seed adds to a bounded digest, and its outcome."""

    seed: int
    data: bytes
    verdict: str
    moves: int | None = None
    cells: int | None = None

    def line(self) -> str:
        digest = hashlib.sha256(self.data).hexdigest()[:12]
        moves = "-" if self.moves is None else self.moves
        cells = "-" if self.cells is None else self.cells
        return f"seed {self.seed} {digest} {self.verdict} moves={moves} cells={cells}"


def suite_digest(specs: Sequence[CorpusSpec], config: RunConfig) -> str:
    """SHA-256 of the ``reports.jsonl`` that ``run_suite`` writes."""
    with tempfile.TemporaryDirectory() as out:
        run_suite(specs, replace(config, out_dir=out))
        return hashlib.sha256((Path(out) / "reports.jsonl").read_bytes()).hexdigest()


def bounded_record(seed: int, mode: str, K: float, k: int) -> SeedRecord:
    """The bounded report and returned raster of one seed, as digest bytes."""
    try:
        d, report = bounded_surgery(blob_union(H, seed=seed), K=K, k=k, mode=mode)
    except Exception as exc:  # a raised error is part of the record
        return SeedRecord(seed, repr(exc).encode(), f"raised {type(exc).__name__}")
    data = (
        json.dumps(report.to_dict(), sort_keys=True).encode()
        + repr((d.h, d.origin, d.shape)).encode()
        + np.packbits(d.occupancy).tobytes()
    )
    return SeedRecord(seed, data, report.verdict, len(report.log), d.cell_count)


def fold(records: Iterable[SeedRecord]) -> str:
    """SHA-256 over the records' bytes, in order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.data)
    return digest.hexdigest()


def bounded_digest(seeds: Iterable[int], mode: str, K: float, k: int) -> str:
    """SHA-256 over the seeds of each bounded report and returned raster."""
    return fold(bounded_record(seed, mode, K, k) for seed in seeds)


def machine_line() -> str:
    """``nproc``, and the thread count and configuration of SciPy's OpenBLAS."""
    controls = _openblas_threads()
    threads = "unknown" if controls is None else str(controls[0]())
    lib, config = ctypes.CDLL(cython_lapack.__file__), "unknown"
    if hasattr(lib, "scipy_openblas_get_config"):
        get = lib.scipy_openblas_get_config
        get.argtypes, get.restype = [], ctypes.c_char_p
        config = get().decode().strip()
    return f"nproc={_usable_cpus()} blas_threads={threads} openblas={config}"


def print_suites(suites: Iterable[tuple[str, Callable, float, RunConfig]]) -> None:
    """One stdout line per run_suite digest."""
    for name, corpus, h, config in suites:
        print(f"{suite_digest(corpus(h), config)}  run_suite {name}(1/{round(1 / h)})"
              f" K={config.K:g} k={config.k} {config.mode}", flush=True)


def main() -> None:
    print(machine_line(), file=sys.stderr, flush=True)
    print_suites(s for s in SUITES if s[2] == H)
    for seeds, mode, K, k in BOUNDED:
        label = f"K={K:g} k={k} {mode}"
        records = []
        for seed in seeds:
            records.append(bounded_record(seed, mode, K, k))
            print(f"{label} {records[-1].line()}", file=sys.stderr, flush=True)
        print(f"{fold(records)}  bounded_surgery blob_union(1/64)"
              f" seeds {seeds.start}-{seeds.stop - 1} {label}", flush=True)
    print_suites(s for s in SUITES if s[2] != H)


if __name__ == "__main__":
    main()
