"""Span recorder for the traced benchmark run.

The recorder times calls into the public functions of every ``eigsurgery``
layer from outside the package: :meth:`Recorder.install` rebinds each traced
function, in every ``eigsurgery.*`` module that holds a reference to it, to a
wrapper that records a span.  Modules import ``solve_torsion``,
``eigenvalues``, ``measure`` and friends by name, so patching only the
defining module would miss most calls.

A span holds its name, start and end (``time.perf_counter``), the span that
was open on the same thread when it started (its parent), the item it
belongs to, the pass index and a few exact observations (raster hash, cell
count, residual, accepted moves, bytes written).  Spans stay in memory until
:meth:`Recorder.write` is called.  The recorder is thread-safe: each thread
keeps its own span stack, and the span list is guarded by a lock.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

MODULES = ("pde", "domain", "corpus", "inequalities", "surgery", "harness", "cli")

# layer name -> (defining module, public functions timed as that layer)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "pde.eigenvalues": ("pde", ("eigenvalues",)),
    "pde.solve_torsion": ("pde", ("solve_torsion",)),
    "pde.build_laplacian": ("pde", ("build_laplacian",)),
    "domain.geometry": (
        "domain",
        ("measure", "perimeter", "diam_e", "diameter", "connected_components"),
    ),
    "domain.edit": (
        "domain",
        ("remove_strips", "replace_components_with_ball", "rescale"),
    ),
    "corpus.generate": ("corpus", ("generate",)),
    "inequalities.checks": (
        "inequalities",
        (
            "check_saint_venant",
            "check_talenti",
            "check_vdb",
            "check_berezin_li_yau",
            "check_ratio_bound",
            "check_gamma_stability",
            "check_density_lemma",
            "check_positive_energy",
        ),
    ),
    "surgery.plan": (
        "surgery",
        ("derive_constants", "detect_active_region", "plan_cuts", "select_cut_depth"),
    ),
    "surgery.component_cleanup": ("surgery", ("component_cleanup",)),
    "surgery.measure_domain": ("surgery", ("measure_domain",)),
    "surgery.strip_surgery": ("surgery", ("strip_surgery",)),
    "surgery.subsolution_truncate": ("surgery", ("subsolution_truncate",)),
    "surgery.verify_choicec": ("surgery", ("verify_choicec",)),
    "surgery.bounded_surgery": ("surgery", ("bounded_surgery",)),
    "harness.run_suite": ("harness", ("run_suite",)),
    "harness.run_one": ("harness", ("run_one",)),
    "harness.write_reports": ("harness", ("write_reports",)),
    "cli.main": ("cli", ("main",)),
}

RASTER_LAYERS = ("pde.eigenvalues", "pde.solve_torsion", "pde.build_laplacian")


def raster_key(d: Any) -> str:
    """Hash of a domain's occupancy bits and shape; ``h`` and origin are ignored,
    so a rescaled copy is the same raster."""
    occ = np.ascontiguousarray(d.occupancy, dtype=bool)
    digest = hashlib.blake2b(repr(occ.shape).encode(), digest_size=16)
    digest.update(np.packbits(occ).tobytes())
    return digest.hexdigest()


def _observe_call(layer: str, args: tuple, kwargs: dict) -> dict[str, Any]:
    """Exact facts about a call's arguments: the raster and its cell count."""
    if layer in RASTER_LAYERS:
        d = args[0] if args else kwargs["d"]
        return {"raster": raster_key(d), "cells": int(d.cell_count)}
    if layer == "harness.run_suite":
        config = args[1] if len(args) > 1 else kwargs["config"]
        return {"workers": int(config.workers)}
    return {}


def _observe_result(layer: str, result: Any) -> dict[str, Any]:
    """Exact facts about a call's result (never timings)."""
    if layer == "pde.solve_torsion":
        return {"residual": float(result.residual)}
    if layer == "surgery.subsolution_truncate":
        return {"moves": len(result[1])}
    if layer == "harness.write_reports":
        return {"bytes": sum(Path(p).stat().st_size for p in result)}
    return {}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: str | None
    pass_index: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    obs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_index = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_item(self, item: str | None) -> None:
        """Item id for spans opened on this thread outside any other span."""
        self._local.item = item

    def wrap(self, layer: str, fn: Callable, item_of: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            if item_of is not None:
                item = item_of(*args, **kwargs)
            elif parent is not None:
                item = parent.item
            else:
                item = getattr(self._local, "item", None)
            with self._lock:
                sid = next(self._ids)
            span = Span(
                sid,
                layer,
                parent.id if parent else None,
                item,
                self.pass_index,
                threading.get_ident(),
                obs=_observe_call(layer, args, kwargs),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            span.obs.update(_observe_result(layer, result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every module that imported it."""
        modules = [importlib.import_module("eigsurgery")] + [
            importlib.import_module(f"eigsurgery.{m}") for m in MODULES
        ]
        for layer, (home, names) in LAYERS.items():
            home_mod = importlib.import_module(f"eigsurgery.{home}")
            for name in names:
                fn = getattr(home_mod, name)
                item_of = _run_one_item if layer == "harness.run_one" else None
                wrapper = self.wrap(layer, fn, item_of)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "item": s.item,
                            "pass": s.pass_index,
                            "thread": s.thread,
                            "start": s.start,
                            "end": s.end,
                            **s.obs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def _run_one_item(spec: Any, *args: Any, **kwargs: Any) -> str:
    return spec.name


# -- aggregation -------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its children (same thread) cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def counts(spans: list[Span]) -> dict[str, float]:
    """Exact work counts of one set of spans; these must repeat run to run."""
    by_layer: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_layer[s.name].append(s)
    names = {s.id: s.name for s in spans}
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = len(by_layer[layer])
    for layer in ("pde.eigenvalues", "pde.solve_torsion"):
        calls = by_layer[layer]
        rasters = {s.obs["raster"] for s in calls}
        out[f"{layer}.cells"] = sum(s.obs["cells"] for s in calls)
        out[f"{layer}.calls_per_raster"] = len(calls) / len(rasters) if rasters else 0.0
    out["pde.solve_torsion.max_residual"] = max(
        (s.obs.get("residual", 0.0) for s in by_layer["pde.solve_torsion"]), default=0.0
    )
    truncations = by_layer["surgery.subsolution_truncate"]
    inner_solves = sum(
        1
        for s in by_layer["pde.solve_torsion"]
        if names.get(s.parent) == "surgery.subsolution_truncate"
    )
    # each truncation solves its starting domain once; the rest are candidates
    candidates = inner_solves - len(truncations)
    moves = sum(s.obs.get("moves", 0) for s in truncations)
    out["surgery.descent.candidates"] = candidates
    out["surgery.descent.moves"] = moves
    out["surgery.descent.accept_ratio"] = moves / candidates if candidates else 0.0
    out["harness.report_bytes"] = sum(
        s.obs.get("bytes", 0) for s in by_layer["harness.write_reports"]
    )
    return out


def layer_self_time(spans: list[Span]) -> dict[str, float]:
    """Summed self time per layer."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.id]
    return {layer: out[layer] for layer in LAYERS}


def pool_busy_ratio(spans: list[Span]) -> float:
    """Sum of run_one time over (workers x run_suite wall time)."""
    suites = [s for s in spans if s.name == "harness.run_suite"]
    capacity = sum(s.obs["workers"] * s.duration for s in suites)
    busy = sum(s.duration for s in spans if s.name == "harness.run_one")
    return busy / capacity if capacity else 0.0
