"""Inequality checkers: oracle values, extremal margins, report plumbing."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eigsurgery.corpus import ball, dumbbell, square
from eigsurgery.domain import GridDomain, from_mask, measure
from eigsurgery.inequalities import (
    GAMMA_STABILITY_CONSTANT,
    IneqReport,
    check_berezin_li_yau,
    check_density_lemma,
    check_gamma_stability,
    check_positive_energy,
    check_ratio_bound,
    check_saint_venant,
    check_talenti,
    check_vdb,
    default_m_table,
    default_tolerance,
    li_yau_constant,
    max_index_below,
    vdb_constant,
)
from eigsurgery.pde import TorsionField, eigenvalues, solve_torsion


def single_cell(h: float = 0.02) -> GridDomain:
    return from_mask(np.ones((1, 1), dtype=bool), h)


def gamma_report(d1: GridDomain, d2: GridDomain, k: int) -> IneqReport:
    return check_gamma_stability(
        d1, d2, k, eigenvalues(d1, k=k), eigenvalues(d2, k=k),
        solve_torsion(d1), solve_torsion(d2),
    )


class TestSaintVenant:
    def test_unit_square(self):
        d = square(1 / 128, aligned="node")
        r = check_saint_venant(d, solve_torsion(d))
        assert r.passed
        assert r.lhs == pytest.approx(0.03514, rel=0.02)
        # exact formula against the raster measure, loose against continuum
        assert r.rhs == pytest.approx(measure(d) ** 2 / (8 * math.pi), rel=1e-12)
        assert r.rhs == pytest.approx(1 / (8 * math.pi), rel=0.04)

    def test_disk_near_extremal(self):
        d = ball(1 / 256)
        r = check_saint_venant(d, solve_torsion(d))
        assert r.passed
        assert abs(r.relative_margin) < 0.03

    def test_single_cell(self):
        # A one-cell raster is far below resolution: the discrete torsion
        # integral h^4/4 overshoots the continuum bound |A|^2/(8 pi) at any h,
        # so the checker must report an honest failure.
        h = 0.02
        d = single_cell(h)
        r = check_saint_venant(d, solve_torsion(d))
        assert not r.passed
        assert r.lhs == pytest.approx(h**4 / 4, rel=1e-9)
        assert r.rhs == pytest.approx(h**4 / (8 * math.pi), rel=1e-9)


class TestTalenti:
    def test_disk_near_extremal(self):
        d = ball(1 / 256)
        r = check_talenti(d, solve_torsion(d))
        assert r.passed
        assert abs(r.relative_margin) < 0.02

    def test_unit_square(self):
        d = square(1 / 128, aligned="node")
        r = check_talenti(d, solve_torsion(d))
        assert r.passed
        assert r.lhs == pytest.approx(0.07367, rel=0.02)
        assert r.rhs == pytest.approx(measure(d) / (4 * math.pi), rel=1e-12)
        assert r.rhs == pytest.approx(1 / (4 * math.pi), rel=0.04)

    def test_single_cell_formula(self):
        # Discrete max torsion on one cell is h^2/4 against the continuum
        # bound h^2/(4 pi): a scale-independent factor-of-pi violation that
        # the checker reports faithfully rather than masking.
        h = 0.02
        d = single_cell(h)
        r = check_talenti(d, solve_torsion(d))
        assert not r.passed
        assert r.lhs == pytest.approx(h**2 / 4, rel=1e-9)
        assert r.rhs == pytest.approx((h**2 / math.pi) / 4, rel=1e-9)


class TestVdb:
    def test_unit_square_margins(self):
        d = square(1 / 128, aligned="node")
        r = check_vdb(d, solve_torsion(d), eigenvalues(d, k=1))
        assert r.passed
        lam1 = r.context["lambda1"]
        assert lam1 == pytest.approx(2 * math.pi**2, rel=0.01)
        assert r.rhs == pytest.approx((4 + 6 * math.log(2)) / lam1, rel=1e-9)
        assert r.context["lower"] < r.lhs < r.rhs

    def test_disk(self):
        d = ball(1 / 128)
        r = check_vdb(d, solve_torsion(d), eigenvalues(d, k=1))
        assert r.passed

    def test_dumbbell(self):
        d = dumbbell(1 / 96)
        r = check_vdb(d, solve_torsion(d), eigenvalues(d, k=1))
        assert r.passed

    @pytest.mark.parametrize("N", range(1, 9))
    def test_chain_factor_is_twice_the_constant_bit_for_bit(self, N):
        # the descent's chain factor is written 2 * vdb_constant(N); it must
        # equal the literal 8 + 6 N log 2 it replaced, to the last bit
        assert vdb_constant(N) == 4 + 3 * N * math.log(2)
        assert 2 * vdb_constant(N) == 8 + 6 * N * math.log(2)


class TestBerezinLiYau:
    def test_constant_n2(self):
        assert li_yau_constant(2) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_unit_square_k1_k3(self):
        d = square(1 / 96, aligned="node")
        s = eigenvalues(d, k=3)
        r1 = check_berezin_li_yau(d, 1, spectrum=s)
        assert r1.passed
        assert r1.lhs == pytest.approx(2 * math.pi / measure(d), rel=1e-12)
        assert r1.lhs == pytest.approx(2 * math.pi, rel=0.04)
        r3 = check_berezin_li_yau(d, 3, spectrum=s)
        assert r3.passed
        assert r3.lhs == pytest.approx(6 * math.pi / measure(d), rel=1e-12)
        assert r3.rhs == pytest.approx(5 * math.pi**2, rel=0.01)


class TestMaxIndexBelow:
    def test_at_constant(self):
        assert max_index_below(2 * math.pi, 1.0, N=2) == 1

    def test_zero_threshold(self):
        assert max_index_below(0.0, 1.0) == 0
        assert max_index_below(-5.0, 1.0) == 0

    def test_k100(self):
        assert max_index_below(100.0, 1.0, N=2) == math.floor(100 / (2 * math.pi)) == 15


class TestRatioBound:
    def test_k1_trivial(self):
        d = square(1 / 64)
        r = check_ratio_bound(d, 1, eigenvalues(d, k=1))
        assert r.passed and r.lhs == pytest.approx(1.0)

    def test_square_k2(self):
        d = square(1 / 96, aligned="node")
        r = check_ratio_bound(d, 2, eigenvalues(d, k=2))
        assert r.passed
        assert r.lhs == pytest.approx(2.5, rel=0.01)
        assert r.rhs == pytest.approx(2.5387, rel=1e-3)

    def test_disk_k2_at_bound(self):
        d = ball(1 / 128)
        r = check_ratio_bound(d, 2, eigenvalues(d, k=2))
        assert r.passed
        assert r.lhs == pytest.approx(r.rhs, rel=0.02)

    def test_m_table_defaults(self):
        table = default_m_table(4, N=2)
        assert table[1] == 1.0
        assert table[2] == pytest.approx(2.5387, rel=1e-3)
        assert table[3] == pytest.approx(table[2] * 3.0, rel=1e-12)
        assert table[4] == pytest.approx(table[2] * 9.0, rel=1e-12)

    def test_missing_entry_raises(self):
        d = square(1 / 32)
        with pytest.raises(KeyError):
            check_ratio_bound(d, 3, eigenvalues(d, k=3), m_table={1: 1.0, 2: 2.54})


class TestGammaStability:
    def test_equal_domains(self):
        d = ball(1 / 48, normalize=False)
        r = gamma_report(d, d, k=1)
        assert r.passed
        assert r.lhs == pytest.approx(0.0, abs=1e-10)

    def test_square_minus_strip(self):
        d2 = square(1 / 64)
        occ = d2.occupancy.copy()
        occ[10:13, :] = False
        d1 = GridDomain(h=d2.h, origin=d2.origin, occupancy=occ)
        r = gamma_report(d1, d2, k=1)
        assert r.passed
        assert r.lhs > 0

    def test_nested_disks(self):
        d2 = ball(1 / 96, radius=0.55, normalize=False)
        d1 = ball(1 / 96, radius=0.50, normalize=False)
        r = gamma_report(d1, d2, k=1)
        assert r.passed

    def test_inclusion_enforced(self):
        d2 = ball(1 / 48, radius=0.3, normalize=False)
        d1 = ball(1 / 48, radius=0.4, normalize=False)
        with pytest.raises(ValueError, match="contained"):
            gamma_report(d1, d2, k=1)

    def test_constant_interpretations(self):
        # the source's e^{1/4pi} is read as e^(1/(4 pi)), not e^(1/4) pi
        assert GAMMA_STABILITY_CONSTANT == math.exp(1 / (4 * math.pi))
        assert GAMMA_STABILITY_CONSTANT == pytest.approx(1.0828, abs=1e-4)


class TestDensityLemma:
    def test_delta0_formula(self):
        # theta = 0.01, N = 2 -> delta0 = sqrt(0.01 * 4) = 0.2
        f = solve_torsion(ball(1 / 64, normalize=False))
        r = check_density_lemma(f, (0.0, 0.0), theta=0.01, delta=0.1)
        assert r.context["delta0"] == pytest.approx(0.2)

    def test_disk_center_passes(self):
        f = solve_torsion(ball(1 / 128, normalize=False))
        theta = f.max * 0.9
        r = check_density_lemma(f, (0.0, 0.0), theta=theta, delta=0.05)
        assert r.passed and r.note == ""

    def test_point_outside_precondition(self):
        f = solve_torsion(ball(1 / 64, normalize=False))
        r = check_density_lemma(f, (10.0, 10.0), theta=0.01, delta=0.1)
        assert r.passed and "below theta" in r.note

    def test_delta_too_large_precondition(self):
        f = solve_torsion(ball(1 / 64, normalize=False))
        r = check_density_lemma(f, (0.0, 0.0), theta=0.001, delta=1.0)
        assert "exceeds delta0" in r.note


class TestPositiveEnergy:
    def test_empty_A(self):
        parent = ball(1 / 48, normalize=False)
        f = solve_torsion(parent)
        empty = GridDomain(
            h=parent.h, origin=parent.origin, occupancy=np.zeros(parent.shape, bool)
        )
        f_empty = TorsionField(empty, np.zeros(empty.shape), 0.0)
        r = check_positive_energy(empty, f_empty, f, c=1e-6, C0r0=1e-5)
        assert r.passed and r.note == "empty A"

    def test_low_torsion_subset_passes(self):
        d = dumbbell(1 / 128, neck_cells=2, normalize=False)
        f = solve_torsion(d)
        # the neck mid-section has tiny torsion values
        xs = d.centers(0)
        neck_cols = np.abs(xs) < 0.05
        occ = d.occupancy & neck_cols[:, None]
        sub = GridDomain(h=d.h, origin=d.origin, occupancy=occ)
        w_on_A = float(f.values[occ].max())
        r = check_positive_energy(
            sub, solve_torsion(sub), f, c=2 * w_on_A, C0r0=w_on_A * 1.5
        )
        assert r.passed and r.note == ""
        assert r.rhs >= 0

    def test_precondition_violated(self):
        d = ball(1 / 48, normalize=False)
        f = solve_torsion(d)
        r = check_positive_energy(d, f, f, c=1e-6, C0r0=f.max / 2)
        assert r.passed and "exceeds C0 r0" in r.note


class TestReportPlumbing:
    def test_invariant_pass_iff_margin(self):
        r = IneqReport.compare("x", 1.0, 2.0, 0.0)
        assert r.passed == (r.margin >= -r.tolerance)
        r2 = IneqReport.compare("x", 2.0, 1.0, 1e-6)
        assert not r2.passed

    @given(
        lhs=st.floats(allow_nan=False, allow_infinity=False),
        rhs=st.floats(allow_nan=False, allow_infinity=False),
        rel_tol=st.floats(0.0, 1.0),
        m=st.floats(allow_nan=False),
    )
    def test_pass_is_read_from_the_margin(self, lhs, rhs, rel_tol, m):
        r = IneqReport.compare("x", lhs, rhs, rel_tol)
        assert r.passed == (r.margin >= -r.tolerance)
        assert replace(r, margin=m).passed == (m >= -r.tolerance)

    @pytest.mark.parametrize(
        "lhs, rhs, rel_tol, passed",
        [
            (math.inf, 1.0, 1e-3, False),
            (1.0, -math.inf, 1e-3, False),
            (5.0, math.inf, 0.0, True),
            (100.0, math.inf, 1e-12, True),
            (math.nan, 1.0, 1e-3, False),
            (1.0, math.nan, 1e-3, False),
        ],
    )
    def test_no_relative_slack_at_infinity(self, lhs, rhs, rel_tol, passed):
        r = IneqReport.compare("x", lhs, rhs, rel_tol)
        assert r.passed is passed
        assert math.isfinite(r.tolerance)
        json.dumps({"tolerance": r.tolerance, "pass": r.passed}, allow_nan=False)

    def test_default_tolerance(self):
        assert default_tolerance(1 / 256) == pytest.approx(5 / 256)
        assert default_tolerance(1e-9) == 1e-6


class TestInputGuards:
    @pytest.fixture(scope="class")
    def fields(self):
        d = ball(1 / 32)
        other = square(1 / 32, normalize=True)
        return d, solve_torsion(d), solve_torsion(other)

    @pytest.mark.parametrize("x", [(0.0, 0.0, 0.0), (0.0,)])
    def test_density_point_has_one_coordinate_per_axis(self, fields, x):
        _, f, _ = fields
        with pytest.raises(ValueError, match=f"{len(x)} coordinates, the raster 2 axes"):
            check_density_lemma(f, x, theta=0.01, delta=0.1)

    @pytest.mark.parametrize(
        "check",
        [
            lambda d, f: check_saint_venant(d, f),
            lambda d, f: check_talenti(d, f),
            lambda d, f: check_vdb(d, f, eigenvalues(d, k=1)),
            lambda d, f: check_positive_energy(d, f, f, c=1.0, C0r0=1.0),
        ],
        ids=["saint_venant", "talenti", "vdb", "positive_energy"],
    )
    def test_field_of_another_raster_is_refused(self, fields, check):
        d, _, g = fields
        with pytest.raises(ValueError, match="not the field of the raster"):
            check(d, g)

    @pytest.mark.parametrize("wrong", [0, 1])
    def test_gamma_stability_refuses_either_foreign_field(self, fields, wrong):
        d, f, g = fields
        s = eigenvalues(d, k=1)
        pair = [f, f]
        pair[wrong] = g
        with pytest.raises(ValueError, match="not the field of the raster"):
            check_gamma_stability(d, d, 1, s, s, *pair)


def _continuum_reports() -> dict[str, tuple[GridDomain, IneqReport]]:
    """Every continuum report, with the raster it is judged on."""
    d = ball(1 / 32)
    f, s = solve_torsion(d), eigenvalues(d, k=2)
    occ = d.occupancy.copy()
    occ[: d.shape[0] // 4] = False
    sub = GridDomain(h=d.h, origin=d.origin, occupancy=occ)
    peak = np.unravel_index(f.values.argmax(), d.shape)
    centre = tuple(d.centers(axis)[i] for axis, i in enumerate(peak))
    return {
        "saint_venant": (d, check_saint_venant(d, f)),
        "talenti": (d, check_talenti(d, f)),
        "vdb": (d, check_vdb(d, f, s)),
        "berezin_li_yau": (d, check_berezin_li_yau(d, 2, s)),
        "ratio_bound": (d, check_ratio_bound(d, 2, s)),
        "gamma_stability": (
            sub,
            check_gamma_stability(
                sub, d, 1, eigenvalues(sub, k=1), s, solve_torsion(sub), f
            ),
        ),
        "density_lemma": (
            d, check_density_lemma(f, centre, theta=0.9 * f.max, delta=0.1)
        ),
        "positive_energy": (d, check_positive_energy(d, f, f, c=1.0, C0r0=f.max)),
    }


class TestContinuumSlack:
    @pytest.fixture(scope="class")
    def reports(self):
        return _continuum_reports()

    @pytest.mark.parametrize(
        "name",
        [
            "saint_venant", "talenti", "vdb", "berezin_li_yau", "ratio_bound",
            "gamma_stability", "density_lemma", "positive_energy",
        ],
    )
    def test_slack_and_context_come_from_the_raster(self, reports, name):
        d, r = reports[name]
        assert r.name == name and r.tolerance > 0
        scale = max(abs(r.lhs), abs(r.rhs))
        if name == "vdb":  # the smaller of the upper and the lower side's
            scale = min(scale, max(abs(r.context["lower"]), abs(r.lhs)))
        assert r.tolerance == default_tolerance(d.h) * scale
        assert (r.context["h"], r.context["N"], r.context["measure"]) == (
            d.h, d.N, measure(d)
        )
