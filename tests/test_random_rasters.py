"""Seeded random unions of boxes and discs through both surgery pipelines.

Each example draws a generator seed, K, k and a penalty mode, builds its
raster at h = 1/48 (:func:`random_union`) and runs the strip pipeline
(``solve_raster``, then ``strip_surgery``) or the descent
(``bounded_surgery``) on it.  The contract: a pipeline returns a report or
raises one of its documented ``ValueError`` s; each report dumps as strict
JSON, and its verdict is the one its dumped checks give; mirroring the
raster along either axis changes neither the verdict nor the output's cell
count.  On the strip pipeline, the claims that hold by construction -
unit measure, perimeter non-increase and eigenvalue non-increase - pass.

One of them does not always hold: replacing a far component by a raster
ball can raise the face-count perimeter (a square component of area A has
perimeter 4 sqrt(A), a raster disc about 4.5 sqrt(A)).
:func:`test_ball_replacement_keeps_the_perimeter` pins such a raster and is
expected to fail until the replacement keeps the perimeter; the suite checks
the perimeter claim on every run that replaced no component.

``derandomize=True`` keeps the examples fixed.  The share of runs that cut
is shown by ``pytest --hypothesis-show-statistics``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from eigsurgery.domain import GridDomain, _normalized, from_mask
from eigsurgery.pde import solve_raster
from eigsurgery.surgery import bounded_surgery, strip_surgery

H = 1 / 48
MODES = ["faithful", "practical:1e3", "practical:1e6", "practical:1e12"]
# the documented ValueErrors of both pipelines on a raster that exists
DOCUMENTED = ("need 1 <= k <= occupied cells",)  # eigenvalues: fewer than k cells


def random_union(seed: int) -> GridDomain:
    """A union of 1 to 5 boxes and discs on a window of 8 to 72 cells a side."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(n) for n in rng.integers(8, 73, size=2))
    x, y = np.indices((rows, cols)) + 0.5
    mask = np.zeros((rows, cols), dtype=bool)
    for _ in range(rng.integers(1, 6)):
        cx, cy = rng.uniform(0, rows), rng.uniform(0, cols)
        if rng.random() < 0.5:
            a, b = rng.uniform(1, rows / 2), rng.uniform(1, cols / 2)
            mask |= (abs(x - cx) <= a) & (abs(y - cy) <= b)
        else:
            r = rng.uniform(1, min(rows, cols) / 2)
            mask |= (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    return from_mask(mask, H)


def strip_pipeline(d: GridDomain, K: float, k: int, mode: str):
    f, s = solve_raster(d, k=k)
    return strip_surgery(f, s, K=K, k=k, mode=mode)


def bounded_pipeline(d: GridDomain, K: float, k: int, mode: str):
    return bounded_surgery(d, K=K, k=k, mode=mode)


def mirrored(d: GridDomain, axis: int) -> GridDomain:
    return from_mask(np.flip(d.occupancy, axis), d.h)


def replaced_a_component(report) -> bool:
    """Whether the strip pipeline replaced a far component by a ball."""
    return any(c.name == "component_spectral_floor" for c in report.checks)


@pytest.mark.parametrize(
    "pipeline", [strip_pipeline, bounded_pipeline], ids=["strip", "bounded"]
)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.sampled_from([20.0, 50.0, 100.0, 200.0]),
    k=st.integers(1, 5),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_contract(pipeline, seed, K, k, mode):
    d = random_union(seed)
    try:
        out, report = pipeline(d, K, k, mode)
    except ValueError as exc:
        assert str(exc).startswith(DOCUMENTED), exc
        event("documented ValueError")
        return
    event(f"verdict {report.verdict}")
    dumped = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    failed = not all(c["pass"] for c in dumped["checks"])
    assert dumped["verdict"] == ("fail" if failed else "pass" if report.changed else "no-op")
    assert report.changed == (not out.equals(_normalized(d)[0]))
    if pipeline is strip_pipeline:
        for c in report.checks:
            claimed = c.name == "unit_measure" or (
                c.name.startswith("eigenvalue_") and c.name.endswith("_non_increase")
            )
            if c.name == "perimeter_non_increase":
                claimed = not replaced_a_component(report)
            assert c.passed or not claimed, c
    for axis in (0, 1):
        m_out, m_report = pipeline(mirrored(d, axis), K, k, mode)
        assert (m_report.verdict, m_out.cell_count) == (report.verdict, out.cell_count)


@pytest.mark.xfail(
    strict=True,
    reason="ball replacement raises the face-count perimeter of a square component",
)
def test_ball_replacement_keeps_the_perimeter():
    # a 6 x 5 box far from a 22 x 8 one: the small box is replaced by a
    # raster ball, and the perimeter goes from 5.713 to 6.131
    d = random_union(20)
    _, report = strip_pipeline(d, 20.0, 1, "practical:1e3")
    assert replaced_a_component(report)
    (check,) = [c for c in report.checks if c.name == "perimeter_non_increase"]
    assert check.passed
