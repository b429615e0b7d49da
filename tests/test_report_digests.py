"""``tools/report_digests.py`` gives the same digest for the same runs.

The script is loaded from its file, as it is run.
"""

from __future__ import annotations

import importlib.util
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
