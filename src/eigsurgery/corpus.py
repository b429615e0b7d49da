"""Deterministic domain generators for benchmarks and test corpora.

Every generator rasterizes a reference shape at spacing ``h`` and (by
default) normalizes it to unit measure by a metadata rescale, so the raster
itself is independent of the normalization.  The same spec and seed always
produce a bit-identical domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from eigsurgery.domain import EmptyDomainError, GridDomain, _normalized, from_mask

__all__ = [
    "CorpusSpec",
    "ball",
    "blob_union",
    "default_corpus",
    "dumbbell",
    "generate",
    "perforated",
    "square",
    "surgery_corpus",
    "tube",
]


def _too_coarse(generator: str, h: float) -> EmptyDomainError:
    return EmptyDomainError(
        f"{generator} at h = {h:g} has no occupied cell: h is too coarse"
    )


def _length(name: str, value: Any) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is positive and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0 < value < math.inf
    ):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def _count(name: str, value: Any, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (
        value < least
    ):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _normalize(d: GridDomain, normalize: bool, generator: str) -> GridDomain:
    if not isinstance(normalize, bool):  # the string "False" would be true
        raise ValueError(f"normalize must be true or false, got {normalize!r}")
    if d.cell_count == 0:
        raise _too_coarse(generator, d.h)
    if not normalize:
        return d
    return _normalized(d)[0]


def _centered_grid(h: float, half_extent_x: float, half_extent_y: float):
    nx = 2 * (int(math.ceil(half_extent_x / h)) + 2)
    ny = 2 * (int(math.ceil(half_extent_y / h)) + 2)
    x = (np.arange(nx) - nx / 2 + 0.5) * h
    y = (np.arange(ny) - ny / 2 + 0.5) * h
    origin = (-nx / 2 * h, -ny / 2 * h)
    return x[:, None], y[None, :], origin


def ball(h: float, radius: float | None = None, normalize: bool = True) -> GridDomain:
    """Disk centered on a lattice corner; default radius gives unit area."""
    r = radius if radius is not None else 1.0 / math.sqrt(math.pi)
    _length("radius", r)
    X, Y, origin = _centered_grid(h, r, r)
    d = from_mask(X**2 + Y**2 < r**2, h, origin)
    return _normalize(d, normalize, "ball")


def square(
    h: float, side: float = 1.0, aligned: str = "cell", normalize: bool = False
) -> GridDomain:
    """Axis-aligned square.

    ``aligned="cell"`` tiles ``[0, side]^2`` with whole cells, so measure and
    perimeter are exact when ``h`` divides ``side``.  ``aligned="node"``
    occupies the interior lattice nodes of ``(0, side)^2`` (cell centers at
    ``i*h``), the classical second-order raster for Dirichlet eigenvalue
    computations on the open square.
    """
    _length("side", side)
    if aligned == "cell":
        n = round(side / h)
        if n < 1:
            raise _too_coarse("square", h)
        d = from_mask(np.ones((n, n), dtype=bool), h)
    elif aligned == "node":
        n = round(side / h)
        if n < 2:
            raise _too_coarse("square", h)
        d = from_mask(np.ones((n - 1, n - 1), dtype=bool), h, origin=(h / 2, h / 2))
    else:
        raise ValueError(f"unknown alignment {aligned!r}")
    return _normalize(d, normalize, "square")


def dumbbell(
    h: float,
    bulb_radius: float = 0.42,
    neck_length: float = 1.5,
    neck_cells: int = 2,
    normalize: bool = True,
) -> GridDomain:
    """Two disks joined by a thin rectangular neck along the first axis.

    ``neck_cells`` is the neck thickness in lattice cells (even, at least 2
    so the neck is resolvable and face-connected).
    """
    _length("bulb_radius", bulb_radius)
    _length("neck_length", neck_length)
    _count("neck_cells", neck_cells, 2)  # thinner is not resolvable
    if neck_cells % 2:
        raise ValueError("neck_cells must be even (symmetric band of rows)")
    half_span = bulb_radius + neck_length / 2 + bulb_radius  # bulb center + radius
    cx = neck_length / 2 + bulb_radius  # bulb centers at +-cx
    X, Y, origin = _centered_grid(h, half_span, bulb_radius)
    left = (X + cx) ** 2 + Y**2 < bulb_radius**2
    right = (X - cx) ** 2 + Y**2 < bulb_radius**2
    neck = (np.abs(X) <= neck_length / 2 + h) & (np.abs(Y) < neck_cells * h / 2)
    d = from_mask(left | right | neck, h, origin)
    return _normalize(d, normalize, "dumbbell")


def tube(
    h: float, length: float = 4.0, width_cells: int = 8, normalize: bool = True
) -> GridDomain:
    """Long thin axis-aligned rectangle (a high-eigenvalue stressor)."""
    _length("length", length)
    _count("width_cells", width_cells, 2)  # thinner is not resolvable
    nx = round(length / h)
    if nx < 1:
        raise _too_coarse("tube", h)
    d = from_mask(np.ones((nx, width_cells), dtype=bool), h)
    return _normalize(d, normalize, "tube")


def blob_union(
    h: float, seed: int = 0, n_blobs: int = 4, normalize: bool = True
) -> GridDomain:
    """Union of seeded random disks (possibly disconnected)."""
    _count("seed", seed, 0)
    _count("n_blobs", n_blobs, 1)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.35, 0.35, size=(n_blobs, 2))
    radii = rng.uniform(0.10, 0.28, size=n_blobs)
    half = float(np.abs(centers).max() + radii.max())
    X, Y, origin = _centered_grid(h, half, half)
    mask = np.zeros(np.broadcast_shapes(X.shape, Y.shape), dtype=bool)
    for (cx, cy), r in zip(centers, radii):
        mask |= (X - cx) ** 2 + (Y - cy) ** 2 < r**2
    d = from_mask(mask, h, origin)
    return _normalize(d, normalize, "blob_union")


def perforated(
    h: float,
    seed: int = 0,
    holes: int = 40,
    hole_radius: float = 0.02,
    side: float = 1.0,
    normalize: bool = True,
) -> GridDomain:
    """Square with random circular holes: a high-perimeter stressor."""
    _count("seed", seed, 0)
    _count("holes", holes, 0)
    _length("hole_radius", hole_radius)
    _length("side", side)
    n = round(side / h)
    mask = np.ones((n, n), dtype=bool)
    rng = np.random.default_rng(seed)
    x = (np.arange(n) + 0.5) * h
    X, Y = x[:, None], x[None, :]
    margin = hole_radius + 2 * h
    if 2 * margin > side:
        raise ValueError(
            f"perforated at h = {h:g}: holes of radius {hole_radius:g} kept 2h "
            f"from the edge do not fit in a side of {side:g}"
        )
    centers = rng.uniform(margin, side - margin, size=(holes, 2))
    for cx, cy in centers:
        mask &= (X - cx) ** 2 + (Y - cy) ** 2 >= hole_radius**2
    d = from_mask(mask, h)
    return _normalize(d, normalize, "perforated")


_GENERATORS = {
    "ball": ball,
    "square": square,
    "dumbbell": dumbbell,
    "tube": tube,
    "blob_union": blob_union,
    "perforated": perforated,
}


@dataclass(frozen=True)
class CorpusSpec:
    """A named, reproducible domain recipe."""

    name: str
    generator: str
    h: float
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.generator not in _GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r}; "
                f"choose from {sorted(_GENERATORS)}"
            )


def generate(spec: CorpusSpec) -> GridDomain:
    """Rasterize a corpus spec (same spec + seed -> bit-identical domain)."""
    fn = _GENERATORS[spec.generator]
    kwargs = dict(spec.params)
    if spec.generator in ("blob_union", "perforated"):
        kwargs.setdefault("seed", spec.seed)
    return fn(spec.h, **kwargs)


def default_corpus(h: float = 1 / 256) -> list[CorpusSpec]:
    """The 20-domain mixed corpus used by the inequality acceptance suite."""
    specs: list[CorpusSpec] = [
        CorpusSpec("ball", "ball", h),
        CorpusSpec("ball-small-cells", "ball", 2 * h),
        CorpusSpec("ball-offcenter", "ball", h, params={"radius": 0.47}),
        CorpusSpec("square-cell", "square", h),
        CorpusSpec("square-node", "square", h, params={"aligned": "node"}),
        CorpusSpec("square-half", "square", h, params={"side": 0.5, "normalize": True}),
        CorpusSpec("dumbbell-wide", "dumbbell", h, params={"neck_cells": 8}),
        CorpusSpec("dumbbell-thin", "dumbbell", h, params={"neck_cells": 2}),
        CorpusSpec(
            "dumbbell-long",
            "dumbbell",
            h,
            params={"neck_length": 2.0, "bulb_radius": 0.38},
        ),
        CorpusSpec(
            "dumbbell-short",
            "dumbbell",
            h,
            params={"neck_length": 0.8, "bulb_radius": 0.45, "neck_cells": 4},
        ),
        CorpusSpec("tube", "tube", h),
        CorpusSpec("tube-long", "tube", h, params={"length": 8.0, "width_cells": 6}),
        CorpusSpec("tube-stubby", "tube", h, params={"length": 2.0, "width_cells": 24}),
        CorpusSpec("blobs-0", "blob_union", h, seed=10),
        CorpusSpec("blobs-1", "blob_union", h, seed=11),
        CorpusSpec("blobs-2", "blob_union", h, seed=12, params={"n_blobs": 6}),
        CorpusSpec("blobs-3", "blob_union", h, seed=13, params={"n_blobs": 3}),
        CorpusSpec("perforated-40", "perforated", h, seed=20),
        CorpusSpec("perforated-100", "perforated", h, seed=21, params={"holes": 100}),
        CorpusSpec(
            "perforated-coarse",
            "perforated",
            h,
            seed=22,
            params={"holes": 25, "hole_radius": 0.04},
        ),
    ]
    return specs


def surgery_corpus(h: float = 1 / 256) -> list[CorpusSpec]:
    """The 10-domain dumbbell/tube corpus used by the surgery acceptance runs."""
    specs: list[CorpusSpec] = []
    for i, (bulb, neck_len) in enumerate(
        [(0.42, 1.5), (0.40, 1.6), (0.44, 1.4), (0.38, 1.8), (0.42, 1.7), (0.45, 1.5)]
    ):
        specs.append(
            CorpusSpec(
                f"dumbbell-{i}",
                "dumbbell",
                h,
                params={
                    "bulb_radius": bulb,
                    "neck_length": neck_len,
                    "neck_cells": 2,
                },
            )
        )
    specs += [
        CorpusSpec("tube-0", "tube", h),
        CorpusSpec("tube-1", "tube", h, params={"length": 6.0, "width_cells": 8}),
        CorpusSpec("tube-2", "tube", h, params={"length": 3.0, "width_cells": 16}),
        CorpusSpec("tube-3", "tube", h, params={"length": 2.5, "width_cells": 32}),
    ]
    return specs
