"""Surgery: constant chains, cut planning, perimeter ledger, both pipelines."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from eigsurgery import pde, surgery
from eigsurgery.corpus import (
    ball,
    blob_union,
    default_corpus,
    dumbbell,
    generate,
    square,
    surgery_corpus,
    tube,
)
from eigsurgery.domain import (
    EmptyDomainError,
    GridDomain,
    Strip,
    _normalized,
    connected_components,
    from_mask,
    measure,
    perimeter,
    remove_strips,
)
from eigsurgery.harness import RunConfig, run_suite
from eigsurgery.inequalities import IneqReport
from eigsurgery.pde import (
    TorsionField,
    eigenvalues,
    factored_torsion,
    solve_raster,
    solve_torsion,
    strip_max,
    torsion_energy,
)
from eigsurgery.surgery import (
    DESCENT_MOVE_LIMIT,
    _GEOMETRY_SLACK,
    SurgeryConstants,
    SurgeryPlan,
    _descent_candidates,
    _descent_slack,
    _energy_bound,
    _removal_bounds,
    _strips_at,
    _windowed_column_max,
    bounded_surgery,
    choose_c,
    choose_cut_constants,
    choose_strip_constants,
    component_cleanup,
    derive_constants,
    detect_active_region,
    energy_volume_constant,
    measure_domain,
    parse_mode,
    plan_cuts,
    select_cut_depth,
    strip_removal_test,
    strip_surgery,
    subsolution_truncate,
    verify_choicec,
)


@pytest.fixture(scope="module")
def cut_dumbbell():
    """A dumbbell whose neck actually gets cut: grid fine enough for slide 0."""
    d = dumbbell(1 / 192, bulb_radius=0.42, neck_length=1.8)
    out, report = strip_surgery(
        solve_torsion(d), eigenvalues(d, k=3), K=200.0, k=3, mode="practical:1e12"
    )
    return d, out, report


@pytest.fixture(scope="module")
def disk_field():
    d = ball(1 / 96)
    return solve_torsion(d)


@pytest.fixture(scope="module")
def blob():
    return blob_union(1 / 64, seed=3)


def normalized(d: GridDomain) -> GridDomain:
    return _normalized(d)[0]


@pytest.fixture(scope="module")
def tailed_disk():
    """A unit-measure disk with a two-cell tail along +x, and its solves.

    The tail's torsion is far below the strip threshold, so it lies outside
    the active region and every slide of the cut collar keeps tail mass.
    """
    x, y = np.indices((160, 56))
    occ = (x - 28) ** 2 + (y - 28) ** 2 <= 26**2
    occ |= (x >= 28) & (abs(y - 27.5) <= 1)
    d = normalized(from_mask(occ, 1 / 64))
    return d, solve_torsion(d), eigenvalues(d, k=2)


def with_cut(
    constants: SurgeryConstants, m_hat: float, l0: float, p: int
) -> SurgeryConstants:
    """``constants`` with the cut constants ``(m_hat, l0, p)``, which the
    chain never derives: they replace :func:`choose_cut_constants`' own
    while the copy is built, which is when the copy reads them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery, "choose_cut_constants", lambda P, N: (m_hat, l0, p))
        return replace(constants)


def tight(constants: SurgeryConstants) -> SurgeryConstants:
    """The constants with a mass threshold no slide of the tail's collar meets."""
    return with_cut(constants, m_hat=1e-6, l0=0.01, p=3)


def strip_surgery_of(solved):
    _, f, s = solved
    return strip_surgery(f, s, K=200.0, k=2, mode="practical:1e12")


def checks_named(report, name):
    return [c for c in report.checks if c.name == name]


class TestChooseC:
    def test_reference_digits(self):
        c, trace = choose_c(100.0, 1)
        b = trace["bounds"]
        assert b["energy_volume"] == pytest.approx(7.853981633974483e-05, rel=1e-13)
        assert b["scale_threshold"] == pytest.approx(6.283185307179586e-04, rel=1e-13)
        assert b["spectral_chain"] == pytest.approx(5.141220995903675e-07, rel=1e-13)
        assert b["stability"] == pytest.approx(1.1543830896538855e-05, rel=1e-13)
        assert trace["active"] == "spectral_chain"
        assert c == b["spectral_chain"]
        assert trace["k_power"] == 4
        assert trace["gamma_constant"] == math.exp(1 / (4 * math.pi))

    def test_planar_energy_volume_constant(self):
        assert energy_volume_constant(2) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_monotone_in_threshold(self):
        values = [choose_c(K, 2)[0] for K in (50.0, 100.0, 200.0, 400.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_volume_only_scales_one_bound(self):
        _, t1 = choose_c(100.0, 1, volume=1.0)
        _, t2 = choose_c(100.0, 1, volume=2.0)
        assert t2["bounds"]["energy_volume"] == pytest.approx(
            t1["bounds"]["energy_volume"] / 2, rel=1e-13
        )
        for name in ("scale_threshold", "spectral_chain", "stability"):
            assert t2["bounds"][name] == t1["bounds"][name]

    def test_errors(self):
        with pytest.raises(ValueError):
            choose_c(-1.0, 1)
        with pytest.raises(ValueError):
            choose_c(100.0, 0)

    @pytest.mark.parametrize("K", [math.inf, math.nan])
    def test_rejects_non_finite_threshold(self, K):
        with pytest.raises(ValueError, match="finite"):
            choose_c(K, 2)


def strip_constants(c, K, h, window_extent):
    """``(C0, r0)`` of the constants with penalty ``c``, threshold ``K`` and
    the strip half-width :func:`choose_strip_constants` gives."""
    r0 = choose_strip_constants(h, window_extent=window_extent)
    const = SurgeryConstants(N=2, K=K, k=1, P=8.0, volume=1.0, c=c, r0=r0)
    return const.C0, const.r0


class TestChooseStripConstants:
    # h = 0.001 and extent 2.0 give r0 = 0.01 * 2.0 = 0.02 above the 4h floor
    def test_formula_example(self):
        C0, r0 = strip_constants(1e-6, 100.0, h=0.001, window_extent=2.0)
        assert r0 == 0.02
        assert C0 == pytest.approx(2.5e-5, rel=1e-13)

    def test_min_switches_branch(self):
        C0, r0 = strip_constants(1e9, 100.0, h=0.001, window_extent=2.0)
        assert C0 * r0 == pytest.approx(1 / 200.0, rel=1e-14)

    def test_product_exact(self):
        for c in (1e-8, 1e-2, 1e3):
            C0, r0 = strip_constants(c, 50.0, h=0.001, window_extent=5.0)
            assert C0 * r0 == pytest.approx(min(c / 2, 1 / 100.0), rel=1e-14)

    def test_default_radius_rule(self):
        r0 = choose_strip_constants(h=0.001, window_extent=10.0)
        assert r0 == pytest.approx(0.1)  # fraction rule wins
        r0 = choose_strip_constants(h=0.01, window_extent=1.0)
        assert r0 == pytest.approx(0.04)  # grid floor wins


def cut_slack(m: float, P: float, N: int) -> float:
    q = (N - 1) / N
    return math.expm1(q * math.log1p(-m)) + m**q / (2 * P)


class TestChooseCutConstants:
    def test_root_satisfies_condition(self):
        P = 5.0
        m_hat, l0, p = choose_cut_constants(P)
        q = 0.5
        slack = lambda m: (1 - m) ** q - 1 + m**q / (2 * P)
        assert abs(slack(m_hat)) < 1e-12
        for m in np.linspace(1e-6, m_hat, 20):
            assert slack(m) >= -1e-12
        assert slack(min(m_hat * 1.5, 0.999)) < 0

    def test_slide_length_formula(self):
        m_hat, l0, _ = choose_cut_constants(5.0)
        expected = 1.01 * 8 * math.sqrt(m_hat) / (2 * math.sqrt(math.pi) - 1)
        assert l0 == pytest.approx(expected, rel=1e-13)

    def test_slide_count_is_ceiling(self):
        m_hat, _, p = choose_cut_constants(5.0)
        assert p == math.ceil(1 / m_hat)

    def test_spectral_cap_for_small_perimeter_bound(self):
        # At P = 1/2 the perimeter condition holds everywhere, so the cap
        # (1 - m)^{2/N} >= 1/2 binds.
        m_hat, _, p = choose_cut_constants(0.5)
        assert m_hat == pytest.approx(0.5, rel=1e-12)
        assert p == 2

    def test_tightens_with_perimeter(self):
        m5 = choose_cut_constants(5.0)[0]
        m20 = choose_cut_constants(20.0)[0]
        assert m20 < m5

    @pytest.mark.parametrize("P, N", [(1e7, 2), (1e4, 3), (1e12, 2)])
    def test_root_below_the_default_bracket(self, P, N):
        # the root lies below 1e-12, where the bracket used to start
        m_hat, l0, p = choose_cut_constants(P, N=N)
        assert (2 * P) ** (-N) <= m_hat < 1e-12
        assert p == math.ceil(1 / m_hat) and l0 > 0
        assert cut_slack(0.99 * m_hat, P, N) > 0 > cut_slack(1.01 * m_hat, P, N)
        assert abs(cut_slack(m_hat, P, N)) <= 1e-9 * m_hat ** ((N - 1) / N) / (2 * P)

    @pytest.mark.parametrize("P", np.logspace(0, 9, 91).tolist())
    def test_two_dimensional_closed_form(self, P):
        """The root against its closed form, the large-P branch included.

        At N = 2, with s = sqrt(m), the condition sqrt(1 - s^2) = 1 - s/(2P)
        gives m* = 16P^2 / (4P^2 + 1)^2.  Near the root the slack is a
        difference of two terms of size m/2 with a slope of about -1/4, so
        an ulp or two of rounding in each term moves the float sign change
        by a few ulp of m: at most 5 over 20000 log-spaced P in [1, 1e9].
        A slack that cancels, (1-m)^q - 1 as written, is off by hundreds of
        ulp at P = 50.
        """
        m_hat = choose_cut_constants(P)[0]
        F = Fraction(P)
        exact = float(min(16 * F**2 / (4 * F**2 + 1) ** 2, Fraction(1, 2)))
        assert abs(m_hat - exact) <= 8 * math.ulp(exact)

    @pytest.mark.parametrize("P, N", [(1e155, 2), (1e300, 2), (1e103, 3)])
    def test_underflowing_mass_threshold_names_P(self, P, N):
        with pytest.raises(ValueError, match="perimeter bound P = .* is too large"):
            choose_cut_constants(P, N=N)

    def test_largest_perimeter_bounds_still_give_a_slide_count(self):
        for P, N in ((6e153, 2), (1e102, 3)):
            m_hat, _, p = choose_cut_constants(P, N=N)
            assert m_hat >= np.finfo(float).tiny and p == math.ceil(1 / m_hat)

    @pytest.mark.parametrize("P", np.logspace(0, 9, 19).tolist())
    def test_three_dimensional_sign_change(self, P):
        m_hat = choose_cut_constants(P, N=3)[0]
        assert cut_slack(m_hat, P, 3) >= 0
        if m_hat < 1 - 2 ** (-1.5):  # below the spectral cap: the root
            assert cut_slack(math.nextafter(m_hat, 1.0), P, 3) < 0


class TestDeriveConstants:
    def test_chain_consistency(self):
        const = derive_constants(100.0, 2, P=8.0, h=1 / 256, window_extent=3.0)
        assert const.C0 * const.r0 == pytest.approx(
            min(const.c / 2, 1 / 200.0), rel=1e-12
        )
        assert const.beta == pytest.approx(math.pi * (2 / 100.0), rel=1e-13)
        assert const.p == math.ceil(1 / const.m_hat)
        assert const.trace["practical_factor"] == 1.0

    def test_practical_mode_scales_penalty_only(self):
        base = derive_constants(100.0, 2, P=8.0, h=1 / 256, window_extent=3.0)
        prac = derive_constants(
            100.0, 2, P=8.0, h=1 / 256, window_extent=3.0, mode="practical:1e3"
        )
        assert prac.c == pytest.approx(base.c * 1e3, rel=1e-13)
        assert prac.trace["c_faithful"] == base.c
        assert prac.K == base.K

    def test_validation_rejects_inconsistent_constants(self):
        const = derive_constants(100.0, 2, P=8.0, h=1 / 256, window_extent=3.0)
        with pytest.raises(ValueError, match="positive"):
            replace(const, r0=-1.0)

    def test_only_the_inputs_are_stored(self):
        const = derive_constants(100.0, 2, P=8.0, h=1 / 256, window_extent=3.0)
        names = [f.name for f in dataclasses.fields(const)]
        assert names == ["N", "K", "k", "P", "volume", "c", "r0", "trace"]
        derived = {"C0", "m_hat", "l0", "p", "beta"}
        for name in derived:
            with pytest.raises(TypeError):
                replace(const, **{name: 1.0})
            with pytest.raises(AttributeError):
                setattr(const, name, 1.0)
        row = const.to_dict()
        assert set(row) == set(names) | derived
        assert all(row[name] == getattr(const, name) for name in derived)
        assert (row["m_hat"], row["l0"], row["p"]) == choose_cut_constants(8.0)
        assert type(row["p"]) is int

    @pytest.mark.parametrize(
        "K, k, message",
        [(1e103, 2, "overflow at K = 1e+103, k = 2"),
         (1e100, 1000, "overflow at K = 1e+100, k = 1000"),
         (5e102, 1, "underflows to 0 at K = 5e+102, k = 1")],
    )  # fmt: skip
    def test_out_of_range_threshold_names_K_and_k(self, K, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            derive_constants(K, k, P=8.0, h=1 / 256)


class TestParseMode:
    def test_values(self):
        assert parse_mode("faithful") == 1.0
        assert parse_mode("practical:2.5") == 2.5
        assert parse_mode("practical:1e9") == 1e9

    def test_errors(self):
        for bad in (
            "practical:-1",
            "practical:0",
            "practical:abc",
            "practical:inf",
            "practical:nan",
            "bogus",
        ):
            with pytest.raises(ValueError):
                parse_mode(bad)

    def test_factor_must_exceed_one(self):
        with pytest.raises(ValueError, match="faithful"):
            parse_mode("practical:1")
        with pytest.raises(ValueError, match="above 1"):
            parse_mode("practical:0.5")


class TestStripRemovalTest:
    def test_bulk_strip_rejected(self, disk_field):
        r0 = 4 / 96
        assert not strip_removal_test(disk_field, 0.0, r0, C0=0.06, r0=r0)

    def test_empty_space_accepted(self, disk_field):
        r0 = 4 / 96
        lo = disk_field.domain.centers(0)[0]
        assert strip_removal_test(disk_field, lo - 1.0, r0, C0=0.06, r0=r0)

    def test_width_guard(self, disk_field):
        with pytest.raises(ValueError):
            strip_removal_test(disk_field, 0.0, 0.1, C0=0.06, r0=0.05)

    def test_is_the_pipelines_own_test(self, tailed_disk):
        # C06 validates strip_removal_test, so it must decide every strip of
        # a strip surgery as the cut stage did
        d0, t0 = _normalized(tailed_disk[0])
        f = tailed_disk[1].rescaled(t0, d0)
        _, report = strip_surgery_of(tailed_disk)
        C0, r0 = report.constants.C0, report.constants.r0
        tests = checks_named(report, "strip_test")
        assert tests
        for test in tests:
            center, r = test.context["center"], test.context["half_width"]
            assert strip_removal_test(f, center, r, C0, r0) == test.passed


class TestDetectActiveRegion:
    def test_zero_field(self, disk_field):
        f = TorsionField(disk_field.domain, np.zeros_like(disk_field.values), 0.0)
        assert detect_active_region(f, C0=0.06, r0=4 / 96) == ()

    def test_disk_single_interval(self, disk_field):
        d = disk_field.domain
        r0 = 4 / 96
        X = detect_active_region(disk_field, C0=0.06, r0=r0)
        assert len(X) == 1
        cols = d.occupancy.any(axis=1)
        xs = d.centers(0)[cols]
        assert X[0][0] <= xs.min() and X[0][1] >= xs.max()

    def test_two_far_disks(self):
        h = 1 / 64
        n_cells = int(5.0 / h)
        ii, jj = np.meshgrid(
            (np.arange(n_cells) + 0.5) * h,
            (np.arange(int(1.0 / h)) + 0.5) * h,
            indexing="ij",
        )
        mask = ((ii - 0.5) ** 2 + (jj - 0.5) ** 2 < 0.3**2) | (
            (ii - 4.5) ** 2 + (jj - 0.5) ** 2 < 0.3**2
        )
        d = from_mask(mask, h)
        f = solve_torsion(d)
        X = detect_active_region(f, C0=0.06, r0=4 * h)
        assert len(X) == 2
        assert X[0][1] < X[1][0]

    def test_huge_threshold_empty(self, disk_field):
        assert detect_active_region(disk_field, C0=1e6, r0=4 / 96) == ()

    def test_a_column_is_active_exactly_where_its_strip_test_fails(self):
        # at r0 = 4h = 1/16, a power of two, C0 = w / r0 gives C0 * r0 == w
        # exactly: the hottest column's doubled strip reads the threshold
        h = 1 / 64
        x, y = np.indices((48, 48))
        f = solve_torsion(from_mask((x - 24) ** 2 + (y - 24) ** 2 <= 20**2, h))
        r0 = 4 * h
        windowed = _windowed_column_max(f, r0)
        j = int(np.argmax(windowed))
        x_j = float(f.domain.centers(0)[j])
        w = float(windowed[j])
        C0 = w / r0
        assert C0 * r0 == w
        assert strip_removal_test(f, x_j, r0, C0, r0)
        assert detect_active_region(f, C0, r0) == ()
        below = float(np.nextafter(C0, 0.0))
        assert not strip_removal_test(f, x_j, r0, below, r0)
        assert detect_active_region(f, below, r0) != ()


class TestPlanCuts:
    def test_dumbbell_plan_shape(self, cut_dumbbell):
        _, _, report = cut_dumbbell
        plan = report.plan
        const = report.constants
        assert len(plan.segments) == 1
        assert plan.slide_index == 0
        assert plan.y_mass <= const.m_hat
        dirs = [direction for _, direction in sorted(plan.anchors)]
        assert dirs == [-1.0, 1.0, -1.0, 1.0]

    def test_doubled_strips_avoid_active_region(self, cut_dumbbell):
        _, _, report = cut_dumbbell
        r0 = report.constants.r0
        for base, direction in report.plan.anchors:
            center = base + direction * report.plan.cut_depth
            for lo, hi in report.plan.active_region:
                assert center + 2 * r0 <= lo + 1e-9 or center - 2 * r0 >= hi - 1e-9

    def test_short_gap_merged(self):
        d = dumbbell(1 / 64)  # neck 1.5: gap below 2 delta at this grid
        d0 = normalized(d)
        const = derive_constants(
            200.0,
            3,
            perimeter(d0) * 1.02,
            d0.h,
            mode="practical:1e12",
            window_extent=5.0,
        )
        f = solve_torsion(d0)
        X = detect_active_region(f, const.C0, const.r0)
        assert len(X) == 2
        plan = plan_cuts(d0, X, const)
        assert len(plan.active_region) == 1
        assert plan.segments == ()

    def test_empty_active_region(self):
        d = tube(1 / 64)
        const = derive_constants(
            200.0, 2, 20.0, d.h, mode="practical:1e12", window_extent=8.0
        )
        plan = plan_cuts(d, (), const)
        assert "empty_active_region" in plan.flags
        assert plan.segments == ()
        cols = d.occupancy.any(axis=1)
        xs = d.centers(0)[cols]
        bases = sorted(base for base, _ in plan.anchors)
        assert bases[0] == pytest.approx(xs.min() - 2 * const.r0)
        assert bases[1] == pytest.approx(xs.max() + 2 * const.r0)

    def test_collar_counts_the_column_on_its_edge(self):
        # a 60 x 60 bulb with a two-cell neck along +x; the active interval
        # ends 2 r0 past the bulb's last column j, so the high collar, delta =
        # 4 r0 + l0 = 112 h wide, holds neck columns j + 8 to j + 120, both
        # edges on column centres (by float sums that round past the last)
        h = 1 / 96
        mask = np.zeros((201, 60), dtype=bool)
        mask[1:61] = True
        mask[61:, 29:31] = True
        d = from_mask(mask, h)
        const = with_cut(
            SurgeryConstants(N=2, K=1.0, k=1, P=10.0, volume=1.0, c=1.0, r0=4 * h),
            m_hat=0.08, l0=96 * h, p=3,
        )  # fmt: skip
        xs = d.centers(0)
        first, last = 2, 61  # the bulb's columns in the padded window
        X = ((float(xs[first] - 2 * const.r0), float(xs[last] + 2 * const.r0)),)
        plan = plan_cuts(d, X, const)
        assert plan.flags == ()  # slide 0 meets the mass threshold
        collar = int(d.occupancy[last + 8 : last + 121].sum())
        assert collar == 113 * 2
        assert plan.y_mass == pytest.approx(collar * h * h, rel=1e-12)

    def test_unmet_mass_threshold_is_flagged(self, tailed_disk):
        d, f, _ = tailed_disk
        const = derive_constants(
            200.0, 2, perimeter(d) * 1.02, d.h, mode="practical:1e12",
            window_extent=3.3,
        )
        X = detect_active_region(f, const.C0, const.r0)
        assert plan_cuts(d, X, const).flags == ("slide_search",)
        const = tight(const)
        plan = plan_cuts(d, X, const)
        assert plan.flags == ("slide_search", "mass_threshold_unmet")
        assert plan.y_mass > const.m_hat * measure(d)
        assert 0 <= plan.slide_index < const.p

    def test_overlapping_strips_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SurgeryPlan(
                active_region=(),
                segments=(),
                slide_index=0,
                anchors=((0.0, -1.0), (0.05, 1.0)),
                strips_to_remove=(Strip(0.0, 0.06), Strip(0.05, 0.06)),
                cut_depth=0.0,
                t_max=0.3,
                y_mass=0.0,
            )


def disc_with_tail(line: float, rows: int) -> GridDomain:
    """At h = 1/64, a disc of radius 0.4 (25.6 cells), a stick 0.1 wide
    along +x that ends 0.5 past the disc, and a one-cell line on the centre
    row that ends ``line`` further on, in a ``rows x 55`` window."""
    i, j = np.indices((rows, 55))
    cx, cy, r = 27.6, 27, 25.6
    end = cx + r + 0.5 * 64
    occ = (i - cx) ** 2 + (j - cy) ** 2 <= r**2
    occ |= (abs(j - cy) <= 0.05 * 64) & (i >= cx) & (i <= end)
    occ |= (j == cy) & (i >= cx) & (i <= end + line * 64)
    return from_mask(occ, 1 / 64)


class TestSlideSearch:
    """The slide search absorbs every gap and slides only the two tails.

    That is the rule; on a 2-D unit-measure raster it is also the lemma
    that the search's merge of the gaps shorter than ``2 p delta``,
    ``delta = 4 r0 + l0``, absorbs every gap.  On the unit-measure copy,
    ``_setup`` takes ``r0`` at least 0.01 times the occupied extent, and
    ``P`` at least 4, the least perimeter of a rectilinear set of unit
    measure, which gives ``p >= 17``.  So ``2 p delta`` is at least 1.36
    times the extent, while every gap of an active region lies inside the
    occupied span: ``detect_active_region`` widens each hot column, which
    lies at most ``2 r0`` outside the span, by ``2 r0``.
    """

    @given(
        # long rasters too, whose gaps outlast the first merge at 2 delta
        mask=arrays(
            bool,
            st.tuples(st.integers(1, 320), st.integers(1, 24)),
            elements=st.booleans(),
            fill=st.booleans(),
        ),
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10),
        K=st.sampled_from([20.0, 200.0]),
        mode=st.sampled_from(["faithful", "practical:1e12"]),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_no_gap_survives(self, mask, ends, K, mode):
        assume(mask.any())
        d0, _, const = surgery._setup(from_mask(mask, 1 / 16), K, 1, None, mode)
        lo, hi = surgery._occupied_span(d0)
        assert const.P >= 4 and const.p >= 17
        assert 2 * const.p * const.delta >= 1.36 * (hi - lo + d0.h)
        # gaps anywhere in the occupied span, between intervals that reach
        # 4 r0 past it, as the widest the active region can be
        cuts = sorted(lo + e * (hi - lo) for e in ends)[: 2 * (len(ends) // 2)]
        edges = [lo - 4 * const.r0, *cuts, hi + 4 * const.r0]
        X = list(zip(edges[0::2], edges[1::2]))
        # the lemma: every gap is shorter than 2 p delta
        assert all(b[0] - a[1] < 2 * const.p * const.delta for a, b in zip(X, X[1:]))
        # with a mass threshold no collar meets, the search always runs
        for constants in (const, with_cut(const, 1e-300, const.l0, const.p)):
            plan = plan_cuts(d0, X, constants)
            if "slide_search" in plan.flags:
                assert plan.active_region == ((X[0][0], X[-1][1]),)
                assert plan.segments == ()

    def test_hand_built_constants_absorb_a_long_gap(self):
        # a 200-column bar with p = 2 and a gap of 5 delta: the merge of the
        # gaps shorter than 2 p delta would keep it, but the search absorbs
        # every gap and slides the two tails, here to slide 1, where both
        # tail collars lie past the bar
        h = 1 / 64
        mask = np.zeros((202, 10), dtype=bool)
        mask[1:201, 1:9] = True
        d = from_mask(mask, h)
        const = with_cut(
            SurgeryConstants(N=2, K=1.0, k=1, P=10.0, volume=1.0, c=1.0, r0=4 * h),
            m_hat=1e-300, l0=4 * h, p=2,
        )  # fmt: skip
        delta, r0 = const.delta, const.r0
        xs = d.centers(0)
        X = ((xs[11], xs[41]), (xs[41] + 5 * delta, xs[191]))
        assert X[1][0] - X[0][1] >= 2 * const.p * delta
        plan = plan_cuts(d, X, const)
        assert plan.flags == ("slide_search",)
        assert plan.active_region == ((X[0][0], X[1][1]),)
        assert plan.segments == () and plan.slide_index == 1
        assert plan.anchors == (
            (X[0][0] - delta - 2 * r0, -1.0),
            (X[1][1] + delta + 2 * r0, 1.0),
        )

    def test_dumbbell_at_1_128_ends_a_noop(self):
        # its neck's collar mass at slide 0 exceeds m_hat, so the search
        # runs, absorbs the neck's gap and leaves nothing to cut
        spec = next(s for s in surgery_corpus(1 / 128) if s.name == "dumbbell-0")
        f, s = solve_raster(generate(spec), k=3)
        _, report = strip_surgery(f, s, K=200.0, k=3, mode="practical:1e12")
        assert report.flags == report.plan.flags == ("slide_search",)
        assert report.plan.slide_index == 0 and report.plan.segments == ()
        assert report.verdict == "no-op"

    def test_a_tail_is_cut_at_slide_one(self):
        # the active region ends on the line, whose collar holds more than
        # m_hat at slide 0, and at slide 1 the collar runs past the line's
        # end: the tail is cut there
        f, s = solve_raster(disc_with_tail(1.0, 151), k=3)
        _, report = strip_surgery(f, s, K=200.0, k=3, mode="practical:1e12")
        assert report.flags == report.plan.flags == ("slide_search",)
        assert report.plan.slide_index == 1 and report.plan.segments == ()
        assert report.plan.mass_removed > 0
        assert report.diameter_bound["slide_allowance"] == 2 * report.constants.delta
        assert report.verdict == "pass"
        assert [c.name for c in report.checks if not c.passed] == []

    @pytest.mark.parametrize(
        "line, slide, verdict", [(4.0, 9, "pass"), (5.0, 13, "no-op")]
    )
    def test_a_slid_tail_keeps_its_diameter_bound(self, line, slide, verdict):
        # each tail anchor moves slide * delta outwards, and the diameter
        # bound counts it: diam_e1 exceeds the plan's base, 6.635 > 5.930
        # on the cut raster (4.0) and 7.917 > 5.883 on the unchanged one
        d = disc_with_tail(line, int(151 + 64 * line))
        f, s = solve_raster(d, k=3)
        _, report = strip_surgery(f, s, K=200.0, k=3, mode="practical:1e12")
        assert report.flags == report.plan.flags == ("slide_search",)
        assert report.plan.slide_index == slide and report.plan.segments == ()
        allowance = report.diameter_bound["slide_allowance"]
        assert allowance == 2 * slide * report.constants.delta
        assert report.after["diam_e1"] > report.diameter_bound["base"]
        assert report.verdict == verdict
        assert [c.name for c in report.checks if not c.passed] == []


class TestSelectCutDepth:
    def test_sigma_is_mass_derivative(self, cut_dumbbell):
        _, _, report = cut_dumbbell
        led = report.ledger
        step = led["t"][1] - led["t"][0]
        riemann = sum(led["sigma"][:-1]) * step
        drop = led["mass"][0] - led["mass"][-1]
        assert abs(riemann - drop) <= 2 * step

    def test_kept_perimeter_identity_exact(self, cut_dumbbell):
        d, _, report = cut_dumbbell
        d0 = normalized(d)
        led = report.ledger
        from eigsurgery.surgery import _discard_column_mask, _strips_at

        for i in range(len(led["t"])):
            strips = _strips_at(
                report.plan.anchors, report.constants.r0, led["t"][i]
            )
            discard = _discard_column_mask(d0, strips)
            occ = d0.occupancy & ~discard[:, None]
            direct = perimeter(GridDomain(d0.h, d0.origin, occ))
            assert abs(direct - led["kept_perimeter"][i]) < 1e-9

    def test_chosen_depth_is_feasible_minimum(self, cut_dumbbell):
        _, _, report = cut_dumbbell
        led = report.ledger
        assert not led["flagged"]
        chosen = led["rescaled_perimeter"][led["chosen_index"]]
        feasible = [
            v
            for v in led["rescaled_perimeter"]
            if v <= led["perimeter_before"] * (1 + 1e-12)
        ]
        assert feasible and chosen == min(feasible)

    @staticmethod
    def _square_cut(lo, hi):
        """The unit square at h = 1/32, a plan with strips of half-width 4h
        anchored at ``lo`` and ``hi`` that slide outwards up to 0.1, and
        constants with that ``r0``."""
        d = square(1 / 32)
        r0 = 4 * d.h
        anchors = ((lo, -1.0), (hi, 1.0))
        plan = SurgeryPlan(
            active_region=((lo, hi),),
            segments=(),
            slide_index=0,
            anchors=anchors,
            strips_to_remove=_strips_at(anchors, r0, 0.0),
            cut_depth=0.0,
            t_max=0.1,
            y_mass=0.0,
        )
        const = SurgeryConstants(N=2, K=1.0, k=1, P=20.0, volume=1.0, c=1.0, r0=r0)
        return d, plan, const

    def test_no_feasible_depth_takes_the_flagged_minimum(self):
        # cutting the unit square's sides off raises the rescaled perimeter
        # at every depth up to 0.1
        d, plan, const = self._square_cut(0.25, 0.75)
        t, led = select_cut_depth(d, plan, const)
        assert led["flagged"]
        assert min(led["rescaled_perimeter"]) > led["perimeter_before"]
        idx = int(np.argmin(led["rescaled_perimeter"]))
        assert led["chosen_index"] == idx
        assert t == led["chosen_t"] == led["t"][idx]

    def test_empty_space_strips_give_zero_depth(self):
        d = tube(1 / 64)
        const = derive_constants(
            200.0, 2, 20.0, d.h, mode="practical:1e12", window_extent=8.0
        )
        plan = plan_cuts(d, (), const)
        t, led = select_cut_depth(d, plan, const)
        assert t == 0.0
        assert all(m == 0.0 for m in led["mass"])
        assert all(s == 0.0 for s in led["sigma"])

    def test_depth_reads_the_strip_width_from_the_constants(self):
        # the strips a plan holds play no part in the scan
        d, plan, const = self._square_cut(0.25, 0.75)
        fresh = select_cut_depth(d, plan, const)
        assert select_cut_depth(d, replace(plan, strips_to_remove=()), const) == fresh

    def test_ledger_is_strict_json_where_no_column_is_kept(self):
        # the two strips share an edge at t = 0, so they discard every column
        d, plan, const = self._square_cut(0.375, 0.625)
        t, led = select_cut_depth(d, plan, const)
        assert led["mass"][0] == pytest.approx(1.0)
        assert led["rescaled_perimeter"][0] == "inf"
        assert all(isinstance(v, float) for v in led["rescaled_perimeter"][1:])
        assert led["chosen_index"] > 0 and t > 0
        json.dumps(led, allow_nan=False)


class TestComponentCleanup:
    @staticmethod
    def _two_squares(h=1 / 64):
        n = int(round(0.4 / h))
        gap = int(round(2.0 / h))
        mask = np.zeros((n + gap + n, n), dtype=bool)
        mask[:n] = True
        mask[n + gap :] = True
        return from_mask(mask, h), n, gap

    @staticmethod
    def _constants(C0, r0=0.1):
        # C0 * r0 = min(c/2, 1/(2K)) is c/2 while C0 * r0 <= 1/(2K) = 1/2
        const = SurgeryConstants(
            N=2, K=1.0, k=1, P=10.0, volume=1.0, c=2 * C0 * r0, r0=r0
        )
        assert const.C0 == C0
        return with_cut(const, m_hat=0.1, l0=1.0, p=10)

    def test_far_component_replaced_by_ball(self):
        d, n, gap = self._two_squares()
        f = solve_torsion(d)
        X = ((0.0, 0.5),)  # covers the left square only
        out, info = component_cleanup(d, X, f, self._constants(C0=1.0))
        assert info["discarded_components"] == 1
        assert info["discarded_measure"] == pytest.approx(0.4 * 0.4, rel=0.1)
        assert measure(out) == pytest.approx(measure(d), rel=1e-9)
        assert len(connected_components(out)) == 2
        names = [r.name for r in info["checks"]]
        assert "component_spectral_floor" in names
        assert "positive_energy" in names
        assert all(r.passed for r in info["checks"])

    def test_high_torsion_component_kept_and_flagged(self):
        d, _, _ = self._two_squares()
        f = solve_torsion(d)
        X = ((0.0, 0.5),)
        out, info = component_cleanup(d, X, f, self._constants(C0=1e-6))
        assert out.equals(d)
        assert info["discarded_components"] == 0
        assert any("component_torsion_above_threshold" in fl for fl in info["flags"])
        assert any(not r.passed for r in info["checks"])

    def test_component_field_restricts_or_solves(self):
        d, _, _ = self._two_squares()
        f = solve_torsion(d)
        left, right = connected_components(d)
        whole = surgery._component_field(left, f)
        assert np.array_equal(whole.values, np.where(left.occupancy, f.values, 0.0))
        # the right square less its first row, which the parent keeps
        occ = right.occupancy.copy()
        occ[np.flatnonzero(occ.any(axis=1))[0]] = False
        part = GridDomain(h=d.h, origin=d.origin, occupancy=occ)
        solved = surgery._component_field(part, f)
        assert np.array_equal(solved.values, solve_torsion(part).values)

    @given(
        shape=st.sampled_from([(9, 9), (12, 6), (5, 5, 5), (6, 4, 5)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_component_field_restricts_whole_components_only(self, shape, seed):
        # a component of a random subset is whole iff its face dilation
        # misses the rest of the parent; random parent values tell the
        # restricted field from a solved one
        rng = np.random.default_rng(seed)
        d = from_mask(rng.random(shape) < 0.7, 1 / 16)
        f = TorsionField(d, np.where(d.occupancy, rng.random(d.shape) + 1, 0.0), 1e-14)
        sub = d.occupancy & (rng.random(d.shape) < 0.8)
        if not sub.any():
            return
        face = ndimage.generate_binary_structure(d.N, 1)
        for comp in connected_components(GridDomain(d.h, d.origin, sub)):
            rest = d.occupancy & ~comp.occupancy
            whole = not (ndimage.binary_dilation(comp.occupancy, face) & rest).any()
            got = surgery._component_field(comp, f)
            want = np.where(comp.occupancy, f.values, 0.0) if whole else (
                solve_torsion(comp).values
            )
            assert np.array_equal(got.values, want)

    def test_component_at_the_active_edge_is_kept(self):
        # a 4x4 component ends 2 r0 (8 columns) left of a hot column; off a
        # dyadic origin hot - 2 r0 rounds above that column's centre
        h, r0, hot = 1 / 64, 4 / 64, 60
        mask = np.zeros((80, 8), dtype=bool)
        mask[hot - 11 : hot - 7, 2:6] = True
        mask[hot - 6 : hot + 7, 2:6] = True
        d = from_mask(mask, h, origin=(0.1, 0.0))
        x = d.centers(0)
        assert x[hot] - 2 * r0 > x[hot - 8]
        X = ((x[hot] - 2 * r0, x[hot] + 2 * r0),)
        constants = self._constants(C0=1.0, r0=r0)
        out, info = component_cleanup(d, X, solve_torsion(d), constants)
        assert out is d
        assert info["discarded_components"] == 0

    def test_everything_active_is_noop(self):
        d, _, _ = self._two_squares()
        f = solve_torsion(d)
        X = ((-1.0, 10.0),)
        out, info = component_cleanup(d, X, f, self._constants(C0=1.0))
        assert out is d
        assert info["discarded_components"] == 0


class TestStripSurgery:
    def test_dumbbell_guarantees(self, cut_dumbbell):
        d, out, report = cut_dumbbell
        assert report.verdict == "pass"
        assert report.passed
        assert report.flags == ()
        assert abs(report.after["measure"] - 1.0) <= 1e-12
        assert report.after["perimeter"] < report.before["perimeter"] - 1.0
        for lam_a, lam_b in zip(report.after["spectrum"], report.before["spectrum"]):
            assert lam_a <= lam_b * (1 + 1e-3)
        assert report.after["diam_e1"] <= report.diameter_bound["total"]
        assert report.plan.mass_removed <= report.constants.m_hat
        assert len(connected_components(out)) == 3
        assert report.after["diam_e1"] < report.before["diam_e1"]

    @pytest.mark.parametrize("name", ["perimeter_non_increase", "diam_e1_bound"])
    def test_geometry_checks_carry_the_rounding_slack(self, cut_dumbbell, name):
        _, _, report = cut_dumbbell
        (check,) = [c for c in report.checks if c.name == name]
        assert check.note == ""
        assert check.tolerance == _GEOMETRY_SLACK * max(abs(check.lhs), abs(check.rhs))

    def test_verdict_is_derived_from_checks(self, cut_dumbbell):
        _, _, report = cut_dumbbell
        failing = IneqReport.compare("x", 2.0, 1.0, 0.0)
        failed = replace(report, checks=report.checks + (failing,))
        assert failed.verdict == "fail"
        assert failed.passed is False
        assert report.passed
        assert replace(report, changed=False).verdict == "no-op"

    def test_disk_is_verified_noop(self):
        d = ball(1 / 96)
        out, report = strip_surgery(
            solve_torsion(d), eigenvalues(d, k=1), K=100.0, k=1, mode="practical:1e9"
        )
        assert report.verdict == "no-op"
        assert out.equals(normalized(d))
        assert all(c.passed for c in report.checks)

    @pytest.mark.parametrize(
        "name",
        ["ball-small-cells", "tube", "blobs-2", "perforated-40", "perforated-coarse"],
    )
    def test_unchanged_raster_is_a_noop(self, name):
        # these unit-measure copies measure 1 only to an ulp, so rescaling the
        # unchanged raster a second time would move h
        d = generate(next(s for s in default_corpus(1 / 64) if s.name == name))
        f, s = solve_raster(d, k=3)
        out, report = strip_surgery(f, s, K=100.0, k=3, mode="practical:1e6")
        assert report.verdict == "no-op"
        assert out.equals(normalized(d))
        assert report.after == report.before

    def test_tube_becomes_ball(self):
        d = tube(1 / 128)
        out, report = strip_surgery(
            solve_torsion(d), eigenvalues(d, k=2), K=200.0, k=2, mode="practical:1e12"
        )
        assert report.verdict == "pass"
        assert "empty_active_region" in report.flags
        assert len(connected_components(out)) == 1
        assert report.after["perimeter"] < report.before["perimeter"]
        assert report.after["diam_e1"] <= report.diameter_bound["total"]
        # whole spectrum above K: the eigenvalue guarantee is vacuous
        eig_checks = [c for c in report.checks if c.name.startswith("eigenvalue_")]
        assert eig_checks and all("outside the guarantee" in c.note for c in eig_checks)

    def test_perimeter_bound_guard(self):
        d = ball(1 / 96)
        f, s = solve_torsion(d), eigenvalues(d, k=1)
        with pytest.raises(ValueError, match="perimeter"):
            strip_surgery(f, s, K=100.0, k=1, P=1.0)

    def test_short_spectrum_raises_before_the_cut(self, monkeypatch):
        def cut(*args):
            raise AssertionError("the cut stage ran")

        monkeypatch.setattr(surgery, "_cut_stage", cut)
        d = ball(1 / 32)
        f, s = solve_raster(d, k=2)
        with pytest.raises(ValueError, match="holds 2 eigenvalues, fewer than k = 3"):
            strip_surgery(f, s, K=100.0, k=3)

    def test_failed_strip_test_keeps_the_strip(self, tailed_disk, monkeypatch):
        monkeypatch.setattr(surgery, "strip_max", lambda f, s: math.inf)
        out, report = strip_surgery_of(tailed_disk)
        strip_rows = checks_named(report, "strip_test")
        assert len(strip_rows) == 2 and not any(c.passed for c in strip_rows)
        failed = [fl for fl in report.flags if fl.startswith("strip_test_failed:")]
        assert failed == [
            f"strip_test_failed:{c.context['center']:.6g}" for c in strip_rows
        ]
        assert report.plan.strips_to_remove == ()
        assert report.verdict == "fail"
        assert np.array_equal(out.occupancy, tailed_disk[0].occupancy)

    def test_each_planned_strip_is_evaluated_once(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(
            surgery, "strip_max", lambda f, s: evaluated.append(s) or strip_max(f, s)
        )
        d = tube(1 / 64)
        f, s = solve_raster(d, k=2)
        _, report = strip_surgery(f, s, K=200.0, k=2, mode="practical:1e12")
        assert len(report.plan.anchors) == 2
        assert [strip.center for strip in evaluated] == [
            c.context["center"] for c in checks_named(report, "strip_test")
        ]

    def test_emptying_removal_is_flagged(self, tailed_disk, monkeypatch):
        def empty(d, strips):
            raise EmptyDomainError("strip removal emptied the domain")

        monkeypatch.setattr(surgery, "remove_strips", empty)
        out, report = strip_surgery_of(tailed_disk)
        assert "removal_would_empty_domain" in report.flags
        assert report.plan.strips_to_remove == ()
        assert report.plan.mass_removed == 0.0
        assert all(c.passed for c in report.checks) and report.passed
        assert np.array_equal(out.occupancy, tailed_disk[0].occupancy)

    def test_strip_mass_above_threshold_is_flagged(self, tailed_disk, monkeypatch):
        derive = surgery.derive_constants
        monkeypatch.setattr(
            surgery, "derive_constants", lambda *a, **kw: tight(derive(*a, **kw))
        )
        out, report = strip_surgery_of(tailed_disk)
        assert report.flags == (
            "slide_search", "mass_threshold_unmet", "strip_mass_exceeds_threshold"
        )
        assert report.plan.mass_removed > report.constants.m_hat
        # the flags are diagnostics: the re-measured guarantees still hold
        assert all(c.passed for c in report.checks)
        assert report.verdict == "pass"
        assert out.cell_count < tailed_disk[0].cell_count

    def test_infeasible_cut_depth_voids_the_perimeter_check(
        self, tailed_disk, monkeypatch
    ):
        select = surgery.select_cut_depth

        def flagged(*args, **kwargs):
            t, ledger = select(*args, **kwargs)
            return t, {**ledger, "flagged": True}

        monkeypatch.setattr(surgery, "select_cut_depth", flagged)
        _, report = strip_surgery_of(tailed_disk)
        assert "cut_depth_infeasible" in report.flags
        (row,) = checks_named(report, "perimeter_non_increase")
        assert row.passed and row.note == (
            "cut-depth scan found no depth within the perimeter budget"
        )
        assert set(row.context) == {"before", "after"}
        assert report.passed

    def test_report_serializes(self, cut_dumbbell):
        _, _, report = cut_dumbbell
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert '"verdict": "pass"' in blob

    def test_int_thresholds_are_written_as_floats(self):
        # the checks and the ledger read K and P from the constants
        d = dumbbell(1 / 192, bulb_radius=0.42, neck_length=1.8)
        _, report = strip_surgery(
            solve_torsion(d), eigenvalues(d, k=3), K=200, k=3, P=10,
            mode="practical:1e12",
        )  # fmt: skip
        assert report.changed
        rows = [c for c in report.checks if c.name.startswith("eigenvalue_")]
        assert [c.context["K"] for c in rows] == [200.0] * 3
        assert all(type(c.context["K"]) is float for c in rows)
        assert type(report.ledger["P"]) is float and report.ledger["P"] == 10.0


class TestSubsolutionTruncate:
    def test_zero_penalty_is_identity(self, blob):
        f, band = factored_torsion(blob)
        out, log, _ = subsolution_truncate(f, 0.0, r0=4 * blob.h, k=2, factor=band)
        assert out is f
        assert log == ()

    def test_strict_descent(self, blob):
        f, band = factored_torsion(blob)
        f, log, _ = subsolution_truncate(f, 0.01, r0=4 * blob.h, k=2, factor=band)
        out = f.domain
        assert len(log) >= 1
        assert all(entry["delta"] < 0 for entry in log)
        values = [log[0]["value_before"]] + [entry["value_after"] for entry in log]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(entry["cells_removed"] > 0 for entry in log)
        assert measure(out) < measure(blob)
        known = {"sublevel", "edge_strip_low", "edge_strip_high"}
        assert all(entry["move"] in known for entry in log)

    def test_returns_the_final_domains_factor(self, blob):
        f0, band0 = factored_torsion(blob)
        f, log, band = subsolution_truncate(f0, 0.01, r0=4 * blob.h, k=2, factor=band0)
        assert log and band is not band0 and band.band is not None
        band.stencil.check(f.domain)  # the final raster's band, for its eigensolve
        assert np.array_equal(solve_torsion(f.domain, band).values, f.values)
        # no move: the start domain's own factor comes back, unreleased
        _, log, same = subsolution_truncate(f0, 0.0, r0=4 * blob.h, k=2, factor=band0)
        assert log == () and same is band0 and band0.band is not None

    def test_negative_penalty_rejected(self, blob):
        f, band = factored_torsion(blob)
        with pytest.raises(ValueError):
            subsolution_truncate(f, -1.0, r0=4 * blob.h, k=2, factor=band)

    @pytest.mark.parametrize(
        "mode", ["faithful", "practical:1e3", "practical:1e6", "practical:1e12"]
    )
    @pytest.mark.parametrize("seed", [3, 10, 12, 16, 18])
    def test_skips_change_nothing(self, monkeypatch, seed, mode):
        blob = blob_union(1 / 64, seed=seed)
        _, report = bounded_surgery(blob, K=100.0, k=2, mode=mode)
        d = normalized(blob)  # the raster the report's descent starts from
        c, r0 = report.constants.c, report.constants.r0
        f0, band0 = factored_torsion(d)
        ref_field, ref_log, ref_solves = solve_every_candidate(f0, c, r0)
        solves = []

        def counting(cand):
            solves.append(cand)
            return factored_torsion(cand)

        monkeypatch.setattr("eigsurgery.surgery.factored_torsion", counting)
        field, log, _ = subsolution_truncate(f0, c, r0=r0, k=2, factor=band0)
        assert log == ref_log == report.log
        assert field.domain.equals(ref_field.domain)
        assert np.array_equal(field.values, ref_field.values)
        assert len(solves) <= ref_solves

    def test_logs_what_each_screen_settled(self, monkeypatch, caplog):
        blob = blob_union(1 / 64, seed=10)
        _, report = bounded_surgery(blob, K=100.0, k=2, mode="practical:1e6")
        c, r0 = report.constants.c, report.constants.r0
        f0, band0 = factored_torsion(normalized(blob))
        steps, solves = [], []

        def listing(f, r0, k):
            steps.append(_descent_candidates(f, r0, k))
            return steps[-1]

        def counting(cand):
            solves.append(cand)
            return factored_torsion(cand)

        monkeypatch.setattr("eigsurgery.surgery._descent_candidates", listing)
        monkeypatch.setattr("eigsurgery.surgery.factored_torsion", counting)
        with caplog.at_level(logging.INFO, logger="eigsurgery.surgery"):
            _, log, _ = subsolution_truncate(f0, c, r0=r0, k=2, factor=band0)
        [message] = [r.getMessage() for r in caplog.records if "descent" in r.getMessage()]
        moves, candidates, m_matrix, one_point, two_point, repeated, solved = map(
            int, re.findall(r"\d+", message)
        )
        assert moves == len(log) == len(report.log)
        assert candidates == sum(map(len, steps))
        assert candidates == m_matrix + one_point + two_point + repeated + solved
        assert solved == len(solves)
        assert m_matrix > 0 and one_point > 0 and two_point > 0


def solve_every_candidate(f, c, r0):
    """Reference descent: solves every candidate and checks its bounds."""
    value = torsion_energy(f) + c * measure(f.domain)
    floor = pde._lambda1_floor(f.domain)  # below every later domain's lambda_1
    band = pde.factor_laplacian(f.domain)
    log = []
    solves = 0
    for _ in range(DESCENT_MOVE_LIMIT):
        if f.max <= 0:
            break
        slack = _descent_slack(f, value)
        energy = torsion_energy(f)
        best = None
        for kind, tau, cand in _descent_candidates(f, r0, 2):
            fc, fc_band = factored_torsion(cand)
            solves += 1
            val = torsion_energy(fc) + c * measure(cand)
            assert val >= _energy_bound(f, cand) + c * measure(cand) - slack
            for rise in _removal_bounds(f, band, floor, cand):
                assert val >= energy + rise + c * measure(cand) - slack
            if val < value and (best is None or val < best[3]):
                best = (kind, tau, fc, val, fc_band)
        if best is None:
            break
        kind, tau, fc, val, band = best
        log.append(
            {
                "move": kind,
                "tau": tau,
                "value_before": value,
                "value_after": val,
                "delta": val - value,
                "cells_removed": f.domain.cell_count - fc.domain.cell_count,
            }
        )
        f, value = fc, val
    return f, tuple(log), solves


def small_masks() -> dict[str, np.ndarray]:
    """A 2-D disk with a hole and a 3-D box with a notch, a few hundred cells."""
    y, x = np.mgrid[-7:8, -7:8]
    disk = (x * x + y * y <= 45) & ~((x - 2) ** 2 + y * y <= 2)
    box = np.ones((6, 7, 5), dtype=bool)
    box[:2, :3, 2:] = False
    return {"2d": disk, "3d": box}


def without(d: GridDomain, cells: np.ndarray) -> GridDomain:
    """``d`` with the occupied cells of the given row numbers removed."""
    occ = d.occupancy.copy()
    occ.flat[np.flatnonzero(d.occupancy)[cells]] = False
    return GridDomain(d.h, d.origin, occ)


class TestRemovalBound:
    """The Schur-complement identity behind the descent's second and third screens."""

    @pytest.mark.parametrize("dim", ["2d", "3d"])
    def test_energy_rise_is_the_schur_complement(self, dim):
        d = from_mask(small_masks()[dim], 1 / 8)
        A, _ = pde.build_laplacian(d)
        G = np.linalg.inv(A.toarray())
        f, band = factored_torsion(d)
        w = f.values.ravel()[np.flatnonzero(d.occupancy)]
        floor = pde._lambda1_floor(d)
        rng = np.random.default_rng(1)
        n = w.size
        ulps = 4 * n * np.finfo(float).eps
        sets = [np.array([0]), np.array([n // 2]), np.arange(n // 2, n // 2 + 2)]
        sets += [np.arange(n // 3, n // 3 + 4)]
        sets += [rng.choice(n, size=m, replace=False) for m in (2, 7, n // 4)]
        for R in sets:
            cand = without(d, R)
            rise = torsion_energy(solve_torsion(cand)) - torsion_energy(f)
            exact = 0.5 * d.h**d.N * w[R] @ np.linalg.solve(G[np.ix_(R, R)], w[R])
            assert rise == pytest.approx(exact, rel=1e-9)
            one, two = _removal_bounds(f, band, floor, cand)
            if R.size == 1:  # Cauchy-Schwarz is an equality on one cell
                assert one == pytest.approx(exact, rel=1e-9)
                assert two == one  # the Gram matrix is singular
            else:  # the second point helps
                assert two > one
            if R.size <= 2:  # two-point Gauss is exact on two cells
                assert two == pytest.approx(exact, rel=1e-9)
            assert 0 < one * (1 - ulps) <= two <= exact
            assert two <= rise

    @pytest.mark.parametrize("seed", [3, 10])
    def test_bound_is_below_every_solved_candidate(self, seed):
        # a descent that solves every candidate, as bounded_surgery's; the
        # floor is the start domain's, as in the descent
        blob = blob_union(1 / 64, seed=seed)
        _, report = bounded_surgery(blob, K=100.0, k=2, mode="practical:1e6")
        c, r0 = report.constants.c, report.constants.r0
        f, band = factored_torsion(normalized(blob))
        floor = pde._lambda1_floor(f.domain)
        value = torsion_energy(f) + c * measure(f.domain)
        moves = 0
        while True:
            best = None
            for _, _, cand in _descent_candidates(f, r0, 2):
                fc, fc_band = factored_torsion(cand)
                one, two = _removal_bounds(f, band, floor, cand)
                assert torsion_energy(f) + one <= torsion_energy(fc)
                assert torsion_energy(f) + two <= torsion_energy(fc)
                val = torsion_energy(fc) + c * measure(cand)
                if val < value and (best is None or val < best[0]):
                    best = (val, fc, fc_band)
            if best is None:
                break
            value, f, band = best
            moves += 1
        assert moves == len(report.log)


class TestVerifyChoicec:
    def test_equal_domains_equalities(self):
        d = square(1 / 64)
        s = eigenvalues(d, k=2)
        reports = verify_choicec(d, d, k=2, K=100.0, s_before=s, s_after=s)
        assert all(r.passed for r in reports)
        rescaled = [r for r in reports if r.name.startswith("rescaled")]
        assert all(r.margin == 0.0 for r in rescaled)

    def test_whisker_trim_passes(self):
        # A thin whisker adds volume but no spectrum, so removing it lowers
        # the scale-invariant product lambda_i * |domain|^{2/N}.
        h = 1 / 64
        n = 64
        mask = np.zeros((n + 32, n), dtype=bool)
        mask[:n, :] = True
        mask[n:, n // 2 - 1 : n // 2 + 1] = True
        whiskered = from_mask(mask, h)
        bare = from_mask(mask[:n], h)
        reports = verify_choicec(
            whiskered, bare, k=2, K=100.0,
            s_before=eigenvalues(whiskered, k=2), s_after=eigenvalues(bare, k=2),
        )
        assert all(r.passed for r in reports)
        rescaled = [r for r in reports if r.name.startswith("rescaled")]
        assert all(r.margin > 0 for r in rescaled)

    def test_eigenvalues_above_K_are_outside_the_guarantee(self):
        d = square(1 / 64)
        s = eigenvalues(d, k=2)
        assert s[1] > 10.0
        reports = verify_choicec(d, d, k=2, K=10.0, s_before=s, s_after=s)
        rescaled = [r for r in reports if r.name.startswith("rescaled")]
        assert [r.name for r in rescaled] == [
            "rescaled_eigenvalue_1", "rescaled_eigenvalue_2"
        ]
        for i, r in enumerate(rescaled, start=1):
            assert r.passed and r.note == (
                f"eigenvalue {i} starts above K: outside the guarantee"
            )
            assert r.context == {"index": i, "K": 10.0, "before": s[i], "after": s[i]}
        # the growth sandwich is checked whatever K is
        growth = [r for r in reports if r.name.startswith("eigenvalue_growth")]
        assert len(growth) == 2 and all(r.passed and r.margin == 0 for r in growth)

    def test_non_subset_rejected(self):
        a = square(1 / 64)
        b = from_mask(np.ones((32, 32), dtype=bool), 1 / 64, origin=(5.0, 5.0))
        s_a, s_b = eigenvalues(a, k=1), eigenvalues(b, k=1)
        with pytest.raises(ValueError, match="contained"):
            verify_choicec(a, b, k=1, K=100.0, s_before=s_a, s_after=s_b)


class TestBoundedSurgery:
    def test_faithful_is_verified_noop(self, blob):
        # the second input accepts no move although its normalized measure
        # is not exactly 1, so re-normalizing it would change its spacing
        cases = ((blob, "faithful"), (blob_union(1 / 32, seed=11), "practical:1e6"))
        for d, mode in cases:
            out, report = bounded_surgery(d, K=100.0, k=2, mode=mode)
            assert report.verdict == "no-op"
            assert report.log == ()
            assert out.equals(normalized(d))
            by_name = {c.name: c for c in report.checks}
            assert by_name["energy_comparison"].margin == 0.0
            assert by_name["torsion_floor"].passed
            assert by_name["volume_floor"].passed
            assert all(c.passed for c in report.checks)

    def test_practical_descent_guarantees(self, blob):
        out, report = bounded_surgery(blob, K=100.0, k=2, mode="practical:1e6")
        assert report.verdict == "pass"
        assert len(report.log) >= 1
        by_name = {c.name: c for c in report.checks}
        assert by_name["descent_monotone"].lhs < 0
        assert by_name["volume_floor"].passed
        assert by_name["torsion_floor"].passed
        assert abs(measure(out) - 1.0) <= 1e-12
        assert all(c.passed for c in report.checks)

    def test_descent_keeps_k_cells(self):
        # unbounded, this descent ends on one cell, below the k = 2
        # eigenvalues its report checks; it now stops on nine, where the
        # floors fail and the report says so
        d = blob_union(1 / 64, seed=46)
        out, report = bounded_surgery(d, K=100.0, k=2, mode="practical:1e12")
        assert report.verdict == "fail"
        assert out.cell_count == 9
        assert [c.name for c in report.checks if not c.passed] == [
            "torsion_floor", "volume_floor",
            "eigenvalue_growth_1", "eigenvalue_growth_2",
        ]

    def test_no_descent_raises_at_k_5(self):
        for seed in range(60):
            d = blob_union(1 / 64, seed=seed)
            out, report = bounded_surgery(d, K=100.0, k=5, mode="practical:1e12")
            assert out.cell_count >= 5 and len(report.after["spectrum"]) == 5, seed

    def test_measure_domain_fields(self, blob):
        info = measure_domain(blob, eigenvalues(blob, k=3), k=2)
        assert set(info) == {"measure", "perimeter", "diam_e1", "diameter", "spectrum"}
        assert len(info["spectrum"]) == 2
        assert info["spectrum"][0] < info["spectrum"][1]


def sparse_only(monkeypatch) -> None:
    """Put every raster on the sparse kind, and fail on any band routine."""

    def no_band(*args):
        raise AssertionError("a band routine ran on the sparse kind")

    monkeypatch.setattr(pde, "_BAND_ENTRIES", 0)
    monkeypatch.setattr(pde, "_band_cholesky", no_band)
    monkeypatch.setattr(pde, "_band_inertia", no_band)


class TestSparseKind:
    """The descent's Schur screens and candidate solves, and the strip
    suite, run on sparse factors as on bands."""

    @pytest.mark.parametrize("seed", [3, 10, 16, 19])
    def test_descent_matches_the_band(self, monkeypatch, seed):
        def descend():
            out, report = bounded_surgery(
                blob_union(1 / 64, seed=seed), K=100.0, k=2, mode="practical:1e6"
            )
            return report.verdict, report.log, out.cell_count

        verdict, log, cells = descend()
        assert log
        sparse_only(monkeypatch)
        got_verdict, got_log, got_cells = descend()
        assert (got_verdict, len(got_log), got_cells) == (verdict, len(log), cells)
        # the same moves; the solves differ in the last bits, and so do the energies
        for got, want in zip(got_log, log):
            assert got == pytest.approx(want, rel=1e-9)

    def test_strip_suite_matches_the_band(self, monkeypatch):
        config = RunConfig(K=200.0, k=3, mode="practical:1e12")

        def verdicts():
            return [
                (row["id"], row["passed"], row["surgery"]["verdict"],
                 [c["pass"] for c in row["surgery"]["checks"]])
                for row in run_suite(surgery_corpus(1 / 64), config).rows
            ]

        band = verdicts()
        sparse_only(monkeypatch)
        assert verdicts() == band


class TestWindowedMaxMatchesStripMax:
    def test_hundred_sampled_strips(self, disk_field):
        f = disk_field
        d = f.domain
        r0 = 5.3 / 96  # deliberately not a multiple of h
        filtered = _windowed_column_max(f, r0)
        xs = d.centers(0)
        assert filtered.shape == xs.shape
        rng = np.random.default_rng(0)
        idx = rng.integers(0, xs.size, size=120)
        for j in idx:
            assert filtered[j] == strip_max(f, Strip(float(xs[j]), 2 * r0))

    @pytest.mark.parametrize("corpus", [surgery_corpus, default_corpus])
    def test_every_column_at_lattice_widths(self, corpus):
        # at r0 = 4h, the production width, the doubled strip's edges land
        # on column centres; at 4.5h, on cell faces
        for spec in corpus(1 / 96):
            d = generate(spec)
            f = solve_torsion(d)
            xs = d.centers(0)
            for r0 in (4 * d.h, 4.5 * d.h):
                filtered = _windowed_column_max(f, r0)
                for j, x in enumerate(xs):
                    strip = Strip(float(x), 2 * r0)
                    assert filtered[j] == strip_max(f, strip), (spec.name, r0, j)


class TestDescentCandidates:
    @given(
        shape=st.sampled_from([(9, 9), (12, 6), (5, 5, 5)]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_move_keeps_k_to_all_but_one_cells(self, shape, seed, k):
        rng = np.random.default_rng(seed)
        mask = rng.random(shape) < 0.7
        mask.flat[0] = True
        d = from_mask(mask, 1 / 16)
        f = solve_torsion(d)
        every = _descent_candidates(f, 4 * d.h, 1)
        moves = _descent_candidates(f, 4 * d.h, k)
        for _, _, cand in moves:
            assert k <= cand.cell_count <= d.cell_count - 1
            assert cand.shape == d.shape and cand.origin == d.origin
            assert not (cand.occupancy & ~d.occupancy).any()
        # the floor only drops moves: those that keep fewer than k cells
        assert [(kind, tau, cand.cell_count) for kind, tau, cand in moves] == [
            (kind, tau, cand.cell_count)
            for kind, tau, cand in every
            if cand.cell_count >= k
        ]


def edge_strips(f, r0):
    """The descent's two edge-strip candidates from ``f.domain``, by kind."""
    return {
        kind: cand for kind, _, cand in _descent_candidates(f, r0, 1)
        if kind.startswith("edge_strip")
    }


def placed(f, origin, flip=False):
    """``f`` on the same raster at another origin, mirrored along axis 0 if asked."""
    occ, values = f.domain.occupancy, f.values
    if flip:
        occ, values = occ[::-1], values[::-1]
    return TorsionField(GridDomain(f.domain.h, origin, occ), values, f.residual)


class TestEdgeStrips:
    """The descent's edge strips are columns: the same count at both ends,
    under a mirror and at any window origin."""

    @pytest.fixture(scope="class")
    def starts(self):
        fields = []
        for seed in range(60):
            d = normalized(blob_union(1 / 64, seed=seed))
            fields.append(solve_torsion(d))
        return fields

    def test_mirror_swaps_low_and_high_bit_for_bit(self, starts):
        for seed, f in enumerate(starts):
            d, r0 = f.domain, 4 * f.domain.h
            reflected = (-(d.origin[0] + d.shape[0] * d.h),) + d.origin[1:]
            edges = edge_strips(f, r0)
            mirror = edge_strips(placed(f, reflected, flip=True), r0)
            for kind, other in (("edge_strip_low", "edge_strip_high"),
                                ("edge_strip_high", "edge_strip_low")):
                got = mirror[kind].occupancy
                assert np.array_equal(got, edges[other].occupancy[::-1]), (seed, kind)

    @pytest.mark.parametrize("offset", [1 / 3, 0.37, 2.5])
    def test_cell_counts_do_not_depend_on_the_origin(self, starts, offset):
        for seed, f in enumerate(starts):
            d, r0 = f.domain, 4 * f.domain.h
            moved = (d.origin[0] + offset * (1 + d.h),) + d.origin[1:]
            counts = {k: c.cell_count for k, c in edge_strips(f, r0).items()}
            shifted = edge_strips(placed(f, moved), r0)
            assert {k: c.cell_count for k, c in shifted.items()} == counts, seed

    def test_five_columns_at_either_end_at_r0_4h(self, starts):
        for seed, f in enumerate(starts):
            occ = f.domain.occupancy
            first, *_, last = np.flatnonzero(occ.any(axis=1))
            low, high = occ.copy(), occ.copy()
            low[first : first + 5] = False
            high[last - 4 : last + 1] = False
            edges = edge_strips(f, 4 * f.domain.h)
            assert np.array_equal(edges["edge_strip_low"].occupancy, low), seed
            assert np.array_equal(edges["edge_strip_high"].occupancy, high), seed


STRIP_CHECKS = (
    ("unit_measure", True),
    ("perimeter_non_increase", True),
    ("eigenvalue_1_non_increase", True),
    ("eigenvalue_2_non_increase", True),
    ("eigenvalue_3_non_increase", True),
    ("diam_e1_bound", True),
)
DESCENT_CHECKS = ("descent_monotone", "energy_comparison", "torsion_floor",
                  "volume_floor", "rescaled_eigenvalue_1", "eigenvalue_growth_1",
                  "rescaled_eigenvalue_2", "eigenvalue_growth_2")


def layout(report):
    return [(c.name, c.passed) for c in report.checks], report.flags, report.verdict


class TestReportLayout:
    """Order, names and outcomes of every check: reports are compared byte for
    byte across runs, so a reordered check is a changed report."""

    def test_cut_dumbbell(self, cut_dumbbell):
        _, _, report = cut_dumbbell
        cut = [("strip_test", True)] * 4 + [
            ("component_spectral_floor", True), ("positive_energy", True)
        ]
        assert layout(report) == (cut + list(STRIP_CHECKS), (), "pass")

    def test_tube_noop(self):
        d = tube(1 / 64)
        _, report = strip_surgery(
            solve_torsion(d), eigenvalues(d, k=3), K=200.0, k=3, mode="practical:1e12"
        )
        cut = [("strip_test", True)] * 2
        assert layout(report) == (cut + list(STRIP_CHECKS), (), "no-op")

    @pytest.mark.parametrize(
        "seed, failing, verdict",
        [
            (3, (), "pass"),
            (16, ("torsion_floor", "volume_floor", "eigenvalue_growth_1",
                  "eigenvalue_growth_2"), "fail"),
        ],
    )
    def test_descent(self, seed, failing, verdict):
        _, report = bounded_surgery(
            blob_union(1 / 64, seed=seed), K=100, k=2, mode="practical:1e6"
        )
        checks = [(name, name not in failing) for name in DESCENT_CHECKS]
        assert layout(report) == (checks, (), verdict)
