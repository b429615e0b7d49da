"""Shared test set-up: each test starts with an empty factor hand-off slot."""

from __future__ import annotations

import pytest

from eigsurgery import pde


@pytest.fixture(autouse=True)
def empty_hand_off():
    # a factor that an earlier test's solve_torsion parked would serve this
    # test's first eigensolve of the same raster and change its factor counts
    pde._unpark()
    yield
    pde._unpark()
