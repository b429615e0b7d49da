"""``tools/report_digests.py`` gives the same digest for the same runs.

The script is loaded from its file, as it is run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from eigsurgery.corpus import surgery_corpus
from eigsurgery.harness import RunConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


@pytest.fixture
def report_digests(monkeypatch):
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bounded_digest_is_reproducible(report_digests):
    digest = report_digests.bounded_digest
    first = digest(range(2), "practical:1e6", 100.0, 2)
    assert len(first) == 64
    assert digest(range(2), "practical:1e6", 100.0, 2) == first
    assert digest(range(1), "practical:1e6", 100.0, 2) != first


def test_suite_digest_is_reproducible(report_digests):
    specs = surgery_corpus(1 / 64)[:2]
    config = RunConfig(K=200.0, k=3, mode="practical:1e12")
    first = report_digests.suite_digest(specs, config)
    assert report_digests.suite_digest(specs, config) == first


def test_seed_records_fold_into_the_digest(report_digests, monkeypatch, capsys):
    run = (range(2), "practical:1e6", 100.0, 2)
    records = [report_digests.bounded_record(seed, *run[1:]) for seed in run[0]]
    digest = report_digests.bounded_digest(*run)
    assert report_digests.fold(records) == digest
    assert hashlib.sha256(b"".join(r.data for r in records)).hexdigest() == digest

    monkeypatch.setattr(report_digests, "SUITES", ())
    monkeypatch.setattr(report_digests, "BOUNDED", (run,))
    report_digests.main()
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1  # stdout has digest lines only
    assert out.split() == [digest, "bounded_surgery", "blob_union(1/64)", "seeds", "0-1",
                           "K=100", "k=2", "practical:1e6"]
    header, *lines = err.splitlines()
    assert header == report_digests.machine_line()
    assert re.fullmatch(r"nproc=\d+ blas_threads=(\d+|unknown) openblas=.+", header)
    assert lines == [f"K=100 k=2 practical:1e6 {r.line()}" for r in records]
    for seed, (line, record) in enumerate(zip(lines, records)):
        assert re.fullmatch(
            rf"K=100 k=2 practical:1e6 seed {seed} "
            rf"{hashlib.sha256(record.data).hexdigest()[:12]} (pass|no-op|fail) "
            r"moves=\d+ cells=\d+",
            line,
        )


def test_a_seed_that_raises_is_recorded(report_digests):
    record = report_digests.bounded_record(0, "practical:1", 100.0, 2)
    assert record.verdict == "raised ValueError"
    assert record.data.startswith(b"ValueError(")
    assert record.line().endswith(" raised ValueError moves=- cells=-")
