"""Exact discrete geometry: measure, perimeter, diameters, raster surgery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage, spatial

from eigsurgery import corpus
from eigsurgery.corpus import default_corpus, generate, surgery_corpus
from eigsurgery.domain import (
    EmptyDomainError,
    GridDomain,
    Strip,
    _component_masks,
    _pointset_diameter,
    connected_components,
    diam_e,
    diameter,
    face_pairs,
    from_mask,
    load_domain,
    measure,
    perimeter,
    remove_strips,
    replace_components_with_ball,
    rescale,
    save_domain,
)
from eigsurgery.pde import embed_union


def cell_square(h: float, side: float = 1.0) -> GridDomain:
    """Axis-aligned square rasterized cell-by-cell; exact for h dividing side."""
    n = round(side / h)
    return from_mask(np.ones((n, n), dtype=bool), h)


def raster_disk(h: float, radius: float) -> GridDomain:
    n = int(math.ceil(2 * radius / h)) + 4
    c = (np.arange(n) - n / 2 + 0.5) * h
    X, Y = np.meshgrid(c, c, indexing="ij")
    return from_mask(X**2 + Y**2 < radius**2, h, origin=(-n / 2 * h, -n / 2 * h))


def raster_masks(ndim: int):
    side = {1: 40, 2: 12, 3: 6, 4: 4}[ndim]
    return arrays(bool, st.tuples(*[st.integers(1, side)] * ndim))


class TestConstruction:
    def test_margin_enforced(self):
        occ = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError, match="margin"):
            GridDomain(h=0.1, origin=(0.0, 0.0), occupancy=occ)

    def test_from_mask_pads_and_shifts_origin(self):
        d = from_mask(np.ones((3, 3), dtype=bool), h=0.5, origin=(1.0, 2.0))
        assert d.shape == (5, 5)
        assert d.origin == (0.5, 1.5)
        # padded cells keep their real coordinates
        assert d.centers(0)[1] == pytest.approx(1.25)

    def test_occupancy_read_only(self):
        d = cell_square(0.25)
        with pytest.raises(ValueError):
            d.occupancy[2, 2] = False

    def test_empty_domain_is_representable(self):
        d = from_mask(np.zeros((3, 3), dtype=bool), h=0.1)
        assert measure(d) == 0.0
        assert perimeter(d) == 0.0


class TestMeasure:
    def test_empty(self):
        assert measure(from_mask(np.zeros((4, 4), bool), 0.1)) == 0.0

    def test_unit_square(self):
        h = 1 / 256
        assert measure(cell_square(h)) == pytest.approx(1.0, abs=4 * h)

    def test_disk(self):
        h = 1 / 512
        r = 1 / math.sqrt(math.pi)
        assert measure(raster_disk(h, r)) == pytest.approx(1.0, rel=0.01)

    def test_exact_integer_multiple(self):
        d = cell_square(1 / 64)
        assert measure(d) == d.cell_count * d.h**2


class TestPerimeter:
    def test_unit_square_exact(self):
        for h in (1 / 16, 1 / 64, 1 / 256):
            assert perimeter(cell_square(h)) == pytest.approx(4.0, abs=1e-12)

    def test_additivity_two_squares(self):
        h = 1 / 32
        n = round(1 / h)
        occ = np.zeros((2 * n + 8, n), dtype=bool)
        occ[:n] = True
        occ[n + 8 :] = True
        assert perimeter(from_mask(occ, h)) == pytest.approx(8.0, abs=1e-12)

    def test_disk_anisotropy_factor(self):
        # face-count perimeter of a disk converges to (4/pi) * 2*pi*R = 8R
        h = 1 / 512
        r = 1 / math.sqrt(math.pi)
        per = perimeter(raster_disk(h, r))
        assert per == pytest.approx(8 * r, rel=0.01)
        assert per == pytest.approx((4 / math.pi) * 2 * math.pi * r, rel=0.01)

    @given(mask=st.integers(1, 3).flatmap(raster_masks))
    @settings(max_examples=150, deadline=None)
    def test_equals_an_independent_face_count(self, mask):
        # a boundary face is a change of occupancy between neighbours along
        # an axis of the zero-padded raster
        d = from_mask(mask, 0.1)
        padded = np.pad(d.occupancy, 1).astype(np.int8)
        faces = sum(
            int(np.count_nonzero(np.diff(padded, axis=a))) for a in range(d.N)
        )
        assert perimeter(d) == faces * 0.1 ** (d.N - 1)

    def test_isoperimetric_sanity(self):
        # the face-count perimeter dominates the Euclidean one, so the sharp
        # Euclidean isoperimetric bound N omega_N^{1/N} |.|^{(N-1)/N} holds
        for d in (cell_square(1 / 64), raster_disk(1 / 64, 0.3)):
            lower = 2 * math.sqrt(math.pi) * measure(d) ** 0.5
            assert perimeter(d) >= lower * (1 - 1e-9)


class TestDiameters:
    def test_diam_e_unit_square(self):
        h = 1 / 128
        assert diam_e(cell_square(h), 0) == pytest.approx(1.0, abs=h)
        assert diam_e(cell_square(h), 1) == pytest.approx(1.0, abs=h)

    def test_diam_e_gap_not_counted(self):
        h = 1 / 32
        n = round(1 / h)
        occ = np.zeros((2 * n + 10, n), dtype=bool)
        occ[:n] = True
        occ[n + 10 :] = True
        assert diam_e(from_mask(occ, h), 0) == pytest.approx(2.0, abs=2 * h)

    def test_diam_e_spanning_L_shape(self):
        h = 1 / 64
        n = round(1 / h)
        occ = np.zeros((2 * n, n), dtype=bool)
        occ[:n, :] = True
        occ[n:, : n // 4] = True  # no empty slice along x1
        assert diam_e(from_mask(occ, h), 0) == pytest.approx(2.0, abs=h)

    def test_single_cell(self):
        d = from_mask(np.ones((1, 1), bool), 0.25)
        assert diameter(d) == pytest.approx(0.25 * math.sqrt(2))

    def test_two_far_squares_sum(self):
        h = 1 / 32
        n = round(1 / h)
        occ = np.zeros((2 * n + 10, n), dtype=bool)
        occ[:n] = True
        occ[n + 10 :] = True
        assert diameter(from_mask(occ, h)) == pytest.approx(2 * math.sqrt(2), abs=4 * h)

    def test_unit_disk(self):
        h = 1 / 256
        r = 1 / math.sqrt(math.pi)
        assert diameter(raster_disk(h, r)) == pytest.approx(2 * r, abs=2 * h)

    def test_large_component_hull_path(self):
        d = cell_square(1 / 64)
        assert diameter(d) == pytest.approx(math.sqrt(2), abs=3 / 64)


def brute_force_diameter(pts: np.ndarray) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


def cell_centers(cells, h: float, origin) -> np.ndarray:
    return (np.asarray(cells, dtype=float) + 0.5) * h + np.asarray(origin)


class TestPointsetDiameter:
    """The hull-vertex diameter equals the all-pairs maximum exactly."""

    @pytest.mark.parametrize(
        "cells",
        [
            [(3, 4)],
            [(0, 0), (5, 2)],
            [(i, 7) for i in range(9)],  # a row
            [(2, j) for j in range(1, 30, 3)],  # a column with gaps
            [(i, 2 * i) for i in range(12)],  # a slanted line
            [(1, 1, 1), (4, 4, 4), (2, 2, 2), (9, 9, 9)],  # a line in 3-D
            [(0, 0, 0), (3, 0, 0), (0, 5, 0), (3, 5, 0)],  # a plane in 3-D
        ],
        ids=["one", "two", "row", "column", "slanted", "line-3d", "plane-3d"],
    )
    def test_degenerate_sets(self, cells):
        pts = cell_centers(cells, 1 / 64, [-0.37, 0.21, 0.05][: len(cells[0])])
        assert _pointset_diameter(pts) == brute_force_diameter(pts)

    @given(
        cells=st.integers(2, 3).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(0, 24)] * n), min_size=1, max_size=80, unique=True
            )
        ),
        h=st.sampled_from([1 / 32, 1 / 64, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_small_sets(self, cells, h):
        pts = cell_centers(cells, h, [-0.37, 0.21, 0.05][: len(cells[0])])
        assert _pointset_diameter(pts) == brute_force_diameter(pts)


# Oracles: the package labels faces with scipy.sparse.csgraph and finds the
# diameter without a hull; the tests hold both to ndimage and qhull.

ORIGIN = (-0.37, 0.21, 0.05)


def corpus_rasters() -> list[GridDomain]:
    return [generate(s) for s in surgery_corpus(1 / 64) + default_corpus(1 / 96)]


def label_masks(occ: np.ndarray) -> list[np.ndarray]:
    structure = ndimage.generate_binary_structure(occ.ndim, 1)
    labels, n = ndimage.label(occ, structure=structure)
    return [labels == i for i in range(1, n + 1)]


def hull_diameter(d: GridDomain) -> float:
    """The diameter from the convex-hull vertices of each component's centers."""
    total = 0.0
    for mask in label_masks(d.occupancy):
        pts = (np.argwhere(mask) + 0.5) * d.h + np.asarray(d.origin)
        try:
            pts = pts[spatial.ConvexHull(pts).vertices]
        except spatial.QhullError:
            pass  # a degenerate set: every pair is compared
        total += brute_force_diameter(pts) + d.h * math.sqrt(d.N)
    return total


def assert_same_masks(occ: np.ndarray) -> None:
    got, want = _component_masks(occ), label_masks(occ)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestOracles:
    def test_labels_on_the_corpora(self):
        for d in corpus_rasters():
            assert_same_masks(d.occupancy)

    @given(mask=st.integers(1, 4).flatmap(raster_masks))
    @settings(max_examples=200, deadline=None)
    def test_labels_on_random_rasters(self, mask):
        assert_same_masks(from_mask(mask, 0.1).occupancy)

    @given(mask=st.integers(1, 4).flatmap(raster_masks))
    @settings(max_examples=200, deadline=None)
    def test_face_pairs_on_random_rasters(self, mask):
        occ = from_mask(mask, 0.1).occupancy
        pairs = face_pairs(occ)
        assert len(pairs) == occ.ndim
        cells = np.argwhere(occ)
        for axis, (p, q) in enumerate(pairs):
            step = np.eye(occ.ndim, dtype=int)[axis]
            # every occupied cell whose +axis neighbour is occupied, by index
            low = cells[occ[tuple((cells + step).T)]]
            assert np.array_equal(p, np.ravel_multi_index(low.T, occ.shape))
            assert np.array_equal(q, np.ravel_multi_index((low + step).T, occ.shape))

    def test_diameter_on_the_corpora(self):
        for d in corpus_rasters():
            assert diameter(d) == hull_diameter(d)

    @given(
        mask=st.integers(2, 3).flatmap(raster_masks),
        h=st.sampled_from([1 / 32, 1 / 64, 0.1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_diameter_on_random_rasters(self, mask, h):
        d = from_mask(mask, h, ORIGIN[: mask.ndim])
        assert diameter(d) == hull_diameter(d)

    def test_diameter_of_a_ball_in_three_dimensions(self):
        x, y, z = np.indices((44, 44, 44)) - 21.5
        d = from_mask(x**2 + y**2 + z**2 < 20**2, 1 / 64, ORIGIN)
        assert 33_000 < d.cell_count < 34_000
        assert diameter(d) == hull_diameter(d)


class TestComponents:
    def test_connected_square(self):
        assert len(connected_components(cell_square(1 / 16))) == 1

    def test_partition(self):
        h = 1 / 16
        occ = np.zeros((40, 20), dtype=bool)
        occ[1:10, 2:10] = True
        occ[20:30, 5:15] = True
        d = from_mask(occ, h)
        comps = connected_components(d)
        assert len(comps) == 2
        union = np.zeros_like(d.occupancy)
        for c in comps:
            assert not (union & c.occupancy).any()
            union |= c.occupancy
        assert np.array_equal(union, d.occupancy)

    def test_diagonal_cells_are_separate(self):
        occ = np.zeros((4, 4), dtype=bool)
        occ[1, 1] = True
        occ[2, 2] = True
        assert len(connected_components(from_mask(occ, 1.0))) == 2


class TestGenerators:
    """A spacing too coarse for any cell is refused by name, not by a crash."""

    @pytest.mark.parametrize(
        "generator, kwargs",
        [
            ("ball", {}),
            ("square", {}),
            ("square", {"aligned": "node"}),
            ("tube", {}),
            ("blob_union", {"seed": 3}),
        ],
    )
    def test_empty_raster_raises(self, generator, kwargs):
        with pytest.raises(EmptyDomainError, match=rf"^{generator} at h = 20 has"):
            getattr(corpus, generator)(20.0, **kwargs)

    def test_dumbbell_keeps_its_neck(self):
        # the neck rows straddle the centre line at every spacing
        assert corpus.dumbbell(20.0).cell_count == 4

    def test_perforated_needs_room_for_its_holes(self):
        with pytest.raises(ValueError, match="perforated at h = 0.3: holes of radius"):
            corpus.perforated(0.3)


class TestRemoveStrips:
    def test_disjoint_strip_is_identity(self):
        d = cell_square(1 / 32)
        out = remove_strips(d, [Strip(center=5.0, half_width=0.5)])
        assert out.equals(d)

    def test_monotone_subset(self):
        d = cell_square(1 / 32)
        out = remove_strips(d, [Strip(center=0.5, half_width=0.1)])
        assert not (out.occupancy & ~d.occupancy).any()

    def test_area_arithmetic(self):
        h = 1 / 128
        d = cell_square(h)
        out = remove_strips(d, [Strip(center=0.5, half_width=0.1)])
        assert measure(out) == pytest.approx(0.8, abs=4 * h)

    def test_empty_result_raises(self):
        d = cell_square(1 / 32)
        with pytest.raises(EmptyDomainError):
            remove_strips(d, [Strip(center=0.5, half_width=2.0)])

    def test_overlapping_strips_rejected(self):
        d = cell_square(1 / 32)
        with pytest.raises(ValueError, match="overlap"):
            remove_strips(d, [Strip(0.4, 0.1), Strip(0.45, 0.1)])

    def test_unresolvable_width_rejected(self):
        d = cell_square(1 / 32)
        with pytest.raises(ValueError, match="resolvability"):
            remove_strips(d, [Strip(0.5, d.h)])


class TestStripColumns:
    def test_edges_on_column_centres_are_inside(self):
        h = 1 / 96  # not dyadic: the edges round off the centres
        d = cell_square(h)
        xs = d.centers(0)
        for j in range(4, d.shape[0] - 4):
            assert Strip(float(xs[j]), 4 * h).columns(d) == slice(j - 4, j + 5)
            # centred on a face, the edges are faces too
            assert Strip(float(xs[j]) + h / 2, 4 * h).columns(d) == slice(j - 3, j + 5)

    def test_clamped_to_the_window(self):
        d = cell_square(1 / 32)
        n = d.shape[0]
        assert Strip(-10.0, 1.0).columns(d) == slice(0, 0)
        assert Strip(10.0, 1.0).columns(d) == slice(n, n)
        assert Strip(0.5, 10.0).columns(d) == slice(0, n)
        assert Strip(0.0, 0.1).columns(d) == slice(0, 4)  # centres up to 3.5h

    def test_strips_sharing_an_edge_column_rejected(self):
        d = cell_square(1 / 32)
        x = float(d.centers(0)[12])
        with pytest.raises(ValueError, match="overlap"):
            remove_strips(d, [Strip(x - 0.125, 0.125), Strip(x + 0.125, 0.125)])


class TestBallReplacement:
    def test_nothing_discarded_identity(self):
        d = cell_square(1 / 16)
        assert replace_components_with_ball(d, np.zeros(d.shape, dtype=bool)) is d

    def test_discard_must_mark_occupied_cells(self):
        d = cell_square(1 / 16)
        with pytest.raises(ValueError, match="occupied cells"):
            replace_components_with_ball(d, ~d.occupancy)
        with pytest.raises(ValueError, match="occupied cells"):
            replace_components_with_ball(d, d.occupancy[1:])

    def test_volume_preserved(self):
        h = 1 / 64
        n = round(1 / h)
        occ = np.zeros((2 * n + 10, n), dtype=bool)
        occ[:n] = True
        occ[n + 10 :] = True
        d = from_mask(occ, h)
        x_split = d.origin[0] + (n + 5) * h
        out = replace_components_with_ball(
            d, d.occupancy & (d.centers(0) > x_split)[:, None]
        )
        assert measure(out) == pytest.approx(measure(d), abs=1e-12)
        # discarded square became a single extra component
        assert len(connected_components(out)) == 2

    def test_isoperimetric_gain_on_fine_grid(self):
        # two specks of total measure 0.5 -> one ball; Euclidean perimeter
        # 2*sqrt(0.5*pi) ~ 2.507 beats the pair of squares (~4 * 2 * 0.5)
        h = 1 / 128
        side = round(0.5 / h)  # each square has measure 0.25
        occ = np.zeros((3 * side, side), dtype=bool)
        occ[:side] = True
        occ[2 * side :] = True
        d = from_mask(occ, h)
        out = replace_components_with_ball(d, d.occupancy)
        ball_r = math.sqrt(0.5 / math.pi)
        assert measure(out) == pytest.approx(0.5, abs=1e-12)
        # face-count perimeter of the ball = (4/pi) * Euclidean
        assert perimeter(out) == pytest.approx(8 * ball_r, rel=0.05)
        assert perimeter(out) < perimeter(d)

    def test_three_dimensional(self):
        # a kept 6x5x4 box and a discarded 3x3x3 cube, off-centre in y and z
        h = 1 / 16
        occ = np.zeros((14, 9, 8), dtype=bool)
        occ[:6, :5, :4] = True
        occ[10:13, 5:8, 4:7] = True
        d = from_mask(occ, h)
        kept, cube = sorted(connected_components(d), key=lambda c: -c.cell_count)
        out = replace_components_with_ball(d, cube.occupancy)
        k_mask, o_mask = embed_union(kept, out, kept.occupancy, out.occupancy)
        ball = o_mask & ~k_mask
        assert out.cell_count == d.cell_count
        assert not (k_mask & ~o_mask).any()
        assert ball.sum() == 27
        assert len(connected_components(out)) == 2
        # at least one empty cell between the ball and the kept box
        grown = ndimage.binary_dilation(ball, np.ones((3, 3, 3), dtype=bool))
        assert not (grown & k_mask).any()


class TestRescale:
    def test_identity(self):
        d = cell_square(1 / 32)
        assert rescale(d, 1.0).equals(d)

    def test_power_laws_bit_exact_binary_factor(self):
        d = raster_disk(1 / 128, 0.43)
        for t in (2.0, 0.5):
            r = rescale(d, t)
            assert measure(r) == t**2 * measure(d)
            assert perimeter(r) == t * perimeter(d)
            assert diam_e(r, 0) == t * diam_e(d, 0)
            assert diameter(r) == t * diameter(d)

    def test_unit_normalization(self):
        d = raster_disk(1 / 128, 0.3)
        t = measure(d) ** -0.5
        assert measure(rescale(d, t)) == pytest.approx(1.0, abs=1e-12)

    def test_occupancy_shared(self):
        d = cell_square(1 / 16)
        assert rescale(d, 3.0).occupancy is d.occupancy


class TestIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        occ = np.zeros((37, 21), dtype=bool)
        occ[1:-1, 1:-1] = rng.random((35, 19)) < 0.4
        d = from_mask(occ, h=1 / 96, origin=(-0.3, 0.7))
        save_domain(d, tmp_path / "dom")
        back = load_domain(tmp_path / "dom")
        assert back.equals(d)

    def test_pbm_header(self, tmp_path):
        d = cell_square(1 / 8)
        pbm, sidecar = save_domain(d, tmp_path / "sq")
        data = pbm.read_bytes()
        assert data.startswith(b"P4\n")
        assert sidecar.read_text().startswith('{"n": 2')
