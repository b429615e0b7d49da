"""Rasterized domains and exact discrete geometry.

A domain is a finite boolean occupancy lattice with spacing metadata.  All
geometric quantities (measure, face-count perimeter, directional diameter)
are exact integers times powers of the spacing ``h``, and rescaling touches
only the metadata, so the scaling laws

    measure -> t^N * measure,   perimeter -> t^(N-1) * perimeter,
    diameters -> t * diameter

hold bit-exactly for binary factors and to machine rounding otherwise.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import coo_array, csgraph

logger = logging.getLogger(__name__)

# Cell centers sit at origin + (index + 1/2) * h;  `origin` is the real
# coordinate of the lower corner of cell (0, ..., 0).

# How near an edge of a strip, in cells, a column centre still counts as in it.
_TIE = 1e-9

__all__ = [
    "EmptyDomainError",
    "GridDomain",
    "Strip",
    "connected_components",
    "diam_e",
    "diameter",
    "face_pairs",
    "from_mask",
    "load_domain",
    "measure",
    "perimeter",
    "remove_strips",
    "replace_components_with_ball",
    "rescale",
    "save_domain",
]


class EmptyDomainError(ValueError):
    """Raised when an operation would need at least one occupied cell."""


@dataclass(frozen=True, eq=False)
class GridDomain:
    """A bounded rasterized open set.

    Attributes
    ----------
    h : float
        Lattice spacing (> 0).
    origin : tuple of float
        Real coordinate of the lower corner of cell ``(0, ..., 0)``.
    occupancy : ndarray of bool
        Finite occupancy window.  Every occupied cell lies strictly inside
        the window: a one-cell empty margin is enforced so that Dirichlet
        conditions by node exclusion are well posed.
    """

    h: float
    origin: tuple[float, ...]
    occupancy: np.ndarray

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError(f"lattice spacing must be positive, got {self.h}")
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.ndim < 1:
            raise ValueError("occupancy must be an array of dimension >= 1")
        if len(self.origin) != occ.ndim:
            raise ValueError("origin length must match occupancy dimension")
        for axis in range(occ.ndim):
            if occ.shape[axis] < 2:
                raise ValueError("occupancy window too small for an empty margin")
            first = np.take(occ, 0, axis=axis)
            last = np.take(occ, -1, axis=axis)
            if first.any() or last.any():
                raise ValueError(
                    "occupied cell on the window edge; a one-cell empty margin "
                    "is required (see from_mask for automatic padding)"
                )
        occ.flags.writeable = False
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))

    @property
    def N(self) -> int:
        """Ambient dimension."""
        return self.occupancy.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.occupancy.shape

    @property
    def cell_count(self) -> int:
        """Number of occupied cells."""
        return int(np.count_nonzero(self.occupancy))

    def centers(self, axis: int) -> np.ndarray:
        """Real coordinates of cell centers along one axis."""
        n = self.occupancy.shape[axis]
        return self.origin[axis] + (np.arange(n) + 0.5) * self.h

    def equals(self, other: "GridDomain") -> bool:
        """Exact raster equality: same spacing, origin and occupancy."""
        return (
            self.h == other.h
            and self.origin == other.origin
            and self.occupancy.shape == other.occupancy.shape
            and bool(np.array_equal(self.occupancy, other.occupancy))
        )

    def __repr__(self) -> str:  # keep reprs short in logs
        return (
            f"GridDomain(N={self.N}, h={self.h:g}, shape={self.shape}, "
            f"cells={self.cell_count})"
        )


@dataclass(frozen=True)
class Strip:
    """The slab ``[center - half_width, center + half_width] x R^(N-1)``.

    Strips are always orthogonal to the first coordinate axis.  On a raster
    a strip is the run of first-axis columns whose centres lie in the closed
    slab, and :meth:`columns` is the one place that decides which: it works
    in cell units, where a column centre within ``1e-9`` of a cell of an
    edge counts as inside.  So a slab whose edges land on column centres
    holds ``2 * half_width / h + 1`` columns wherever it lies.
    """

    center: float
    half_width: float

    def __post_init__(self) -> None:
        if not self.half_width > 0:
            raise ValueError("strip half_width must be positive")

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def columns(self, d: GridDomain) -> slice:
        """The first-axis columns of ``d``'s window whose centres lie in the slab."""
        mid = (self.center - d.origin[0]) / d.h - 0.5  # column index of the centre
        half = self.half_width / d.h
        n = d.shape[0]
        first = min(max(math.ceil(mid - half - _TIE), 0), n)
        stop = min(max(math.floor(mid + half + _TIE) + 1, first), n)
        return slice(first, stop)


def from_mask(
    mask: np.ndarray, h: float, origin: Sequence[float] | None = None
) -> GridDomain:
    """Build a GridDomain from a raw mask, padding an empty margin if needed.

    The origin is shifted so that the cells of ``mask`` keep their real
    coordinates after padding.
    """
    mask = np.asarray(mask, dtype=bool)
    if origin is None:
        origin = (0.0,) * mask.ndim
    pad_lo = []
    pad_hi = []
    for axis in range(mask.ndim):
        first = np.take(mask, 0, axis=axis)
        last = np.take(mask, -1, axis=axis)
        pad_lo.append(1 if (mask.shape[axis] < 2 or first.any()) else 0)
        pad_hi.append(1 if (mask.shape[axis] < 2 or last.any()) else 0)
    if any(pad_lo) or any(pad_hi):
        mask = np.pad(mask, tuple(zip(pad_lo, pad_hi)))
        origin = tuple(o - lo * h for o, lo in zip(origin, pad_lo))
    return GridDomain(h=float(h), origin=tuple(origin), occupancy=mask)


def measure(d: GridDomain) -> float:
    """Discrete Lebesgue measure: occupied-cell count times h^N (exact)."""
    return d.cell_count * d.h**d.N


def face_pairs(occupancy: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The occupied face-neighbour pairs, one ``(p, p + stride)`` per axis.

    ``p`` holds, in ascending order, the flat row-major positions of the
    occupied cells whose neighbour one step along +axis is occupied too,
    and ``stride`` is that axis's row-major stride.  This is the one
    adjacency rule of the package: the perimeter, the components, the
    Laplacian's stencil and the cut ledger all read it.

    Two cells ``stride`` apart in the flat order are +axis neighbours unless
    the first lies on the window's last slab along the axis, where the step
    wraps into the next line.  ``occupancy`` has an empty margin, as every
    domain's does, so such a cell is empty and no pair wraps.  For the same
    reason every face of an occupied cell lies inside the window.
    """
    flat = occupancy.ravel()
    pairs = []
    for axis in range(occupancy.ndim):
        stride = math.prod(occupancy.shape[axis + 1 :])
        p = np.flatnonzero(flat[:-stride] & flat[stride:])
        pairs.append((p, p + stride))
    return pairs


def perimeter(d: GridDomain) -> float:
    """Face-count (Manhattan) perimeter: boundary faces times h^(N-1).

    This is the exact discrete BV perimeter of the raster.  For smooth
    shapes it converges to the l1-anisotropic value, which at N=2 is 4/pi
    times the Euclidean perimeter; before/after comparisons use the same
    functional, so the anisotropy factor cancels.
    """
    # each occupied cell has 2N faces, and each face pair hides two of them
    pairs = sum(p.size for p, _ in face_pairs(d.occupancy))
    return (2 * d.N * d.cell_count - 2 * pairs) * d.h ** (d.N - 1)


def diam_e(d: GridDomain, axis: int = 0) -> float:
    """Directional diameter: occupied-slab count along ``axis`` times h.

    Counts the lattice slabs that contain at least one occupied cell; gaps
    contribute nothing.
    """
    occ = d.occupancy
    other = tuple(a for a in range(occ.ndim) if a != axis)
    slabs = occ.any(axis=other) if other else occ
    return int(np.count_nonzero(slabs)) * d.h


def _component_masks(occ: np.ndarray) -> list[np.ndarray]:
    """Face-adjacency component masks, in raster order of their first cell.

    The graph's nodes are the runs of occupied cells along the last axis,
    numbered in row-major order, so the labels come out in raster order; its
    edges are the face pairs (:func:`face_pairs`) along every other axis.
    """
    *across, (_, along) = face_pairs(occ)
    starts = occ.flatten()
    starts[along] = False  # a run starts where no last-axis pair ends
    run = np.cumsum(starts) - 1  # run index of each occupied cell
    n_runs = int(run[-1]) + 1
    if n_runs == 0:
        return []
    # one edge per face pair across lines; the empty block serves N = 1
    edges = np.hstack([np.empty((2, 0), dtype=run.dtype), *map(np.stack, across)])
    rows, cols = run[edges]
    graph = coo_array(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n_runs, n_runs)
    )
    n, labels = csgraph.connected_components(graph, directed=False)
    field = np.where(occ, labels[run].reshape(occ.shape), -1)
    return [field == i for i in range(n)]


def _pointset_diameter(pts: np.ndarray) -> float:
    """Largest pairwise distance in a finite point set.

    Compares all pairs, a block of rows against every point at a time so
    that the difference array stays below about a million entries.
    """
    best = 0.0
    rows = max(1, (1 << 20) // (len(pts) * pts.shape[1]))
    for start in range(0, len(pts), rows):
        diff = pts[start : start + rows, None, :] - pts[None, :, :]
        best = max(best, float(np.sqrt((diff**2).sum(axis=-1)).max()))
    return best


def _line_extremes(mask: np.ndarray) -> np.ndarray:
    """Cells of ``mask`` that are first or last on their line along every axis.

    Every convex-hull vertex of the cell centers, so every end of a
    farthest pair, is such a cell: a center with cells on both sides of it
    along some axis lies between their centers and is no hull vertex.
    """
    keep = mask.copy()
    for axis in range(mask.ndim):
        m = np.moveaxis(mask, axis, 0)
        ends = np.zeros(m.shape, dtype=bool)
        first = m.argmax(axis=0)[None]
        last = m.shape[0] - 1 - m[::-1].argmax(axis=0)[None]
        np.put_along_axis(ends, first, True, axis=0)
        np.put_along_axis(ends, last, True, axis=0)
        keep &= np.moveaxis(ends, 0, axis)
    return keep


def diameter(d: GridDomain) -> float:
    """Sum over connected components of the component diameter.

    Each component contributes its maximum pairwise center distance plus
    ``h * sqrt(N)`` for the extent of the extremal cells.  By convention the
    diameter of a disconnected set is the sum over components.
    """
    cell_extent = d.h * math.sqrt(d.N)
    total = 0.0
    for mask in _component_masks(d.occupancy):
        idx = np.argwhere(_line_extremes(mask))
        pts = (idx + 0.5) * d.h + np.asarray(d.origin)
        total += _pointset_diameter(pts) + cell_extent
    return total


def remove_strips(d: GridDomain, strips: Sequence[Strip]) -> GridDomain:
    """Clear occupancy on the columns of every strip (:meth:`Strip.columns`).

    Strips must share no column and be at least ``2h`` in half-width so
    they are resolvable on the grid.  Raises :class:`EmptyDomainError` if
    nothing remains.
    """
    for s in strips:
        if s.half_width < 2 * d.h * (1 - 1e-9):
            raise ValueError(
                f"strip half_width {s.half_width:g} below the grid "
                f"resolvability limit 2h = {2 * d.h:g}"
            )
    cols = sorted((s.columns(d) for s in strips), key=lambda c: c.start)
    for a, b in zip(cols, cols[1:]):
        if b.start < a.stop:
            raise ValueError(f"strips overlap: columns {a.start}-{a.stop - 1} "
                             f"and {b.start}-{b.stop - 1}")
    occ = d.occupancy.copy()
    for c in cols:
        occ[c] = False
    if not occ.any():
        raise EmptyDomainError("strip removal emptied the domain")
    return GridDomain(h=d.h, origin=d.origin, occupancy=occ)


def connected_components(d: GridDomain) -> list[GridDomain]:
    """Face-adjacency (2N-neighbor) components, on the parent window.

    The outputs partition the occupancy: their union equals the input and
    they are pairwise disjoint.  Face adjacency matches the finite-difference
    stencil, so spectral decoupling of components is exact.
    """
    return [
        GridDomain(h=d.h, origin=d.origin, occupancy=mask)
        for mask in _component_masks(d.occupancy)
    ]


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N."""
    return math.pi ** (N / 2) / math.gamma(N / 2 + 1)


def _raster_ball_mask(
    shape: tuple[int, ...], center_idx: np.ndarray, n_cells: int
) -> np.ndarray:
    """Mask of the ``n_cells`` cells closest to ``center_idx`` (deterministic)."""
    grids = np.indices(shape).reshape(len(shape), -1).T
    dist2 = ((grids - center_idx) ** 2).sum(axis=1)
    order = np.lexsort(tuple(grids.T[::-1]) + (dist2,))
    chosen = grids[order[:n_cells]]
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(chosen.T)] = True
    return mask


def replace_components_with_ball(d: GridDomain, discard: np.ndarray) -> GridDomain:
    """Replace the cells of ``discard`` by one rasterized ball of equal measure.

    ``discard`` is a boolean mask of occupied cells on ``d``'s window, as a
    rule a union of whole components.  Those cells are removed and a single
    discrete ball with the same cell count is appended beyond the kept cells
    along the first axis (the window is enlarged as needed).  The
    isoperimetric expectation ``perimeter(out) <= perimeter(in) + 4h`` is
    checked and a warning is logged when the raster anisotropy breaks it; the
    caller's report carries the before/after values in any case.
    """
    discard = np.asarray(discard, dtype=bool)
    if discard.shape != d.shape or (discard & ~d.occupancy).any():
        raise ValueError("discard must mark occupied cells of the domain's window")
    n_discard = int(discard.sum())
    if n_discard == 0:
        return d
    keep = d.occupancy & ~discard

    per_before = perimeter(d)
    radius_cells = (n_discard / unit_ball_volume(d.N)) ** (1 / d.N)
    ball_r = int(math.ceil(radius_cells)) + 2

    if keep.any():
        occ_idx = np.argwhere(keep)
        x_hi = int(occ_idx[:, 0].max())
        mids = [int(round(m)) for m in occ_idx[:, 1:].mean(axis=0)]
    else:
        x_hi = 0
        mids = [n // 2 for n in d.shape[1:]]
    cx = x_hi + 2 + ball_r  # two empty columns between kept cells and the ball

    # pad every axis so the ball's bounding box plus two cells fits
    pads = [(0, max(0, cx + ball_r + 2 - d.shape[0]))]
    center = [cx]
    for mid, n in zip(mids, d.shape[1:]):
        lo = max(0, ball_r + 2 - mid)
        pads.append((lo, max(0, mid + ball_r + 2 - n)))
        center.append(mid + lo)
    occ = np.pad(keep, pads)
    origin = tuple(o - lo * d.h for o, (lo, _) in zip(d.origin, pads))

    ball = _raster_ball_mask(occ.shape, np.array(center), n_discard)
    if (occ & ball).any():  # pragma: no cover - placement leaves a gap by design
        raise RuntimeError("ball placement overlaps kept cells")
    occ |= ball
    out = from_mask(occ, d.h, origin)

    per_after = perimeter(out)
    if per_after > per_before + 4 * d.h:
        logger.warning(
            "ball replacement raised the raster perimeter: %.6g -> %.6g "
            "(the face-count perimeter of a ball exceeds the Euclidean one "
            "by the anisotropy factor)",
            per_before,
            per_after,
        )
    return out


def rescale(d: GridDomain, t: float) -> GridDomain:
    """Homothety by factor ``t`` via metadata only; occupancy untouched.

    Consequently measure, perimeter, diameters and eigenvalues transform by
    the exact power laws t^N, t^(N-1), t, t^-2 with no resampling error.
    """
    if not t > 0:
        raise ValueError("rescale factor must be positive")
    return GridDomain(
        h=t * d.h,
        origin=tuple(t * x for x in d.origin),
        occupancy=d.occupancy,
    )


def _normalized(d: GridDomain) -> tuple[GridDomain, float]:
    """The unit-measure copy of ``d`` and the scale factor that makes it."""
    t = measure(d) ** (-1 / d.N)
    return rescale(d, t), t


def save_domain(d: GridDomain, path: str | Path) -> tuple[Path, Path]:
    """Write occupancy as binary PBM (P4) plus a JSON metadata sidecar.

    Returns the two paths.  ``load_domain`` round-trips bit-exactly.
    """
    if d.N != 2:
        raise ValueError("PBM export is defined for N=2 domains")
    pbm = Path(path).with_suffix(".pbm")
    sidecar = Path(path).with_suffix(".json")
    occ = d.occupancy
    height, width = occ.shape  # row index = x1, column index = x2
    packed = np.packbits(occ.astype(np.uint8), axis=1)
    with open(pbm, "wb") as fh:
        fh.write(f"P4\n{width} {height}\n".encode("ascii"))
        fh.write(packed.tobytes())
    with open(sidecar, "w", encoding="ascii") as fh:
        json.dump({"n": d.N, "h": d.h, "origin": list(d.origin)}, fh)
        fh.write("\n")
    return pbm, sidecar


def _read_pbm_header(data: bytes) -> tuple[int, int, int]:
    """Parse a P4 header, returning (width, height, data offset)."""
    if not data.startswith(b"P4"):
        raise ValueError("not a binary PBM (P4) file")
    pos = 2
    fields: list[int] = []
    while len(fields) < 2:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    return fields[0], fields[1], pos + 1


def load_domain(path: str | Path) -> GridDomain:
    """Load a domain written by :func:`save_domain`."""
    pbm = Path(path).with_suffix(".pbm")
    sidecar = Path(path).with_suffix(".json")
    data = pbm.read_bytes()
    width, height, offset = _read_pbm_header(data)
    row_bytes = (width + 7) // 8
    raw = np.frombuffer(data[offset : offset + height * row_bytes], dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
    meta = json.loads(sidecar.read_text(encoding="ascii"))
    if meta["n"] != 2:
        raise ValueError("only N=2 domains are supported by the PBM format")
    return GridDomain(
        h=float(meta["h"]),
        origin=tuple(float(x) for x in meta["origin"]),
        occupancy=bits.astype(bool),
    )
