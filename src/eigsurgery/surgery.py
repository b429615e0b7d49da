"""Domain surgery: constant selection, strip tests, cut planning, descent.

The strip pipeline removes low-torsion strips orthogonal to the first axis,
discards the components that end up far from the active (high-torsion)
region, replaces them by a single ball of equal measure, and rescales back
to unit measure.  The descent pipeline greedily truncates low-torsion cells
against the penalized energy E + c|.|.  Both return the surgered domain
together with a report that re-measures every guarantee (measure, perimeter,
directional diameter, eigenvalues) instead of assuming it.

All constants are derived from the spectral threshold ``K``, the eigenvalue
count ``k`` and the perimeter bound ``P``; the theoretical values are
astronomically conservative, so a "practical" mode scaling the energy
penalty by a user factor is provided and recorded in every report.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace as dc_replace
from typing import Any, Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from eigsurgery.domain import (
    EmptyDomainError,
    GridDomain,
    Strip,
    _normalized,
    connected_components,
    diam_e,
    diameter,
    face_pairs,
    measure,
    perimeter,
    remove_strips,
    replace_components_with_ball,
    unit_ball_volume,
)
from eigsurgery.inequalities import (
    GAMMA_STABILITY_CONSTANT,
    IneqReport,
    _json_number,
    check_positive_energy,
    default_m_table,
    vdb_constant,
)
from eigsurgery.pde import (
    DEFAULT_CG_TOL,
    Factor,
    Spectrum,
    TorsionField,
    _bisect,
    _lambda1_floor,
    ball_lambda1,
    eigenvalues,
    embed_union,
    factored_torsion,
    solve_torsion,
    strip_max,
    torsion_energy,
)

logger = logging.getLogger(__name__)

# Accepted moves after which the descent stops.
DESCENT_MOVE_LIMIT = 50
# Relative slack of every exact-geometry comparison (measure, perimeter,
# diam_e1, their budgets): it covers only floating-point rounding, of cell
# and face counts times powers of h and of the unit-measure rescale.
_GEOMETRY_SLACK = 1e-12

__all__ = [
    "SurgeryConstants",
    "SurgeryPlan",
    "SurgeryReport",
    "bounded_surgery",
    "choose_c",
    "choose_cut_constants",
    "choose_strip_constants",
    "component_cleanup",
    "derive_constants",
    "detect_active_region",
    "energy_volume_constant",
    "measure_domain",
    "parse_mode",
    "plan_cuts",
    "select_cut_depth",
    "strip_removal_test",
    "strip_surgery",
    "subsolution_truncate",
    "verify_choicec",
]


# ---------------------------------------------------------------------------
# constants


def parse_mode(mode: str) -> float:
    """Energy-penalty scaling for ``"faithful"`` or ``"practical:<factor>"``.

    A practical factor must be finite and above 1; factor 1 is spelled
    ``"faithful"``.
    """
    if mode == "faithful":
        return 1.0
    if mode.startswith("practical:"):
        factor = float(mode[len("practical:") :])
        if not (math.isfinite(factor) and factor > 1):
            raise ValueError(
                f"practical-mode factor must be finite and above 1, got {factor} "
                "(factor 1 is spelled mode='faithful')"
            )
        return factor
    raise ValueError(f"mode must be 'faithful' or 'practical:<factor>', got {mode!r}")


def energy_volume_constant(N: int) -> float:
    """The constant ``(2N)^{(N+2)/2} omega_N / (N (N+2))``; equals 2*pi at N=2."""
    return (2 * N) ** ((N + 2) / 2) * unit_ball_volume(N) / (N * (N + 2))


def choose_c(
    K: float, k: int, volume: float = 1.0, N: int = 2
) -> tuple[float, dict[str, Any]]:
    """Energy-penalty constant: the minimum of four admissible bounds.

    The four bounds control, in order: the penalized-energy excess against
    the domain volume, the bare threshold scale, the eigenvalue chain through
    the ratio bound ``M_k`` of :func:`default_m_table`, and the
    gamma-stability remainder.  The trace names the active bound.  The chain
    bound carries ``k^4``, as written in the source formula (the factor
    ``k^2`` appears twice), and the chain factor is twice the van den Berg
    constant (:func:`vdb_constant`), because the torsion floor at most
    halves the peak.  Raises ``ValueError`` naming ``K`` and ``k`` where
    a bound overflows a float or the constant underflows to zero.
    """
    if not (K > 0 and math.isfinite(K) and volume > 0):
        raise ValueError("K must be positive and finite, and volume positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    chain = 2 * vdb_constant(N)
    C_N = energy_volume_constant(N)
    try:
        M_k = float(default_m_table(k, N)[k])
        bounds = {
            "energy_volume": C_N / (2 * volume * (2 * K) ** ((N + 2) / 2)),
            "scale_threshold": C_N * K ** (-(N + 2) / 2),
            "spectral_chain": ball_lambda1(N)
            / (2 * M_k * chain * GAMMA_STABILITY_CONSTANT * k**4 * K ** (N / 2 + 2)),
            "stability": 1.0 / (8 * k**2 * GAMMA_STABILITY_CONSTANT * K ** (N / 2 + 1)),
        }
    except OverflowError:
        raise ValueError(f"the penalty bounds overflow at K = {K:g}, k = {k}") from None
    active = min(bounds, key=lambda name: (bounds[name], name))
    if not bounds[active] > 0:
        raise ValueError(f"the penalty constant underflows to 0 at K = {K:g}, k = {k}")
    trace = {
        "bounds": {name: float(v) for name, v in sorted(bounds.items())},
        "active": active,
        "M_k": M_k,
        "k_power": 4,
        "gamma_constant": GAMMA_STABILITY_CONSTANT,
        "chain_factor": float(chain),
        "ball_lambda1": ball_lambda1(N),
        "energy_volume_constant": float(C_N),
    }
    return float(bounds[active]), trace


def choose_strip_constants(h: float, window_extent: float | None = None) -> float:
    """Strip half-width ``r0 = max(4h, 0.01 * window_extent)``, so a strip is
    always at least four cells wide."""
    if not h > 0:
        raise ValueError("h must be positive")
    geom = 0.01 * window_extent if window_extent is not None else 0.0
    return float(max(4 * h, geom))


def choose_cut_constants(P: float, N: int = 2) -> tuple[float, float, int]:
    """Mass threshold, slide length and slide count for the cut planner.

    ``m_hat`` is the largest mass for which (a) the rescaled-perimeter slack
    ``(1-m)^{(N-1)/N} >= 1 - m^{(N-1)/N}/(2P)`` holds up to ``m_hat`` and
    (b) the spectral floor of a replaced component survives the final
    rescale: ``(1-m_hat)^{2/N} >= 1/2``.  The slide length ``l0`` is 1.01
    times its strict lower bound ``4N m_hat^(1/N) / (2 omega_N^(1/N) - 1)``,
    and the slide count is ``p = ceil(1/m_hat)``.  Raises ``ValueError``
    naming ``P`` where ``m_hat`` underflows a normal float, at ``P`` above
    about 6.7e153 in 2-D.
    """
    if not (P > 0 and math.isfinite(P)):
        raise ValueError("perimeter bound P must be positive and finite")
    q = (N - 1) / N

    def slack(m: float) -> float:
        # (1-m)^q - 1 written so that it does not cancel at small m
        return math.expm1(q * math.log1p(-m)) + m**q / (2 * P)

    hi = 1 - 1e-12
    if slack(hi) >= 0:
        root = hi
    else:
        # slack rises from 0 with infinite slope and is concave, so it has a
        # single positive root; the condition holds on (0, root].  Since
        # (1-m)^q >= 1-m, slack > 0 below (2P)^-N, so half of that brackets
        # it from below.
        root = _bisect(slack, 0.5 * (2 * P) ** (-N), hi)
    spectral_cap = 1 - 2 ** (-N / 2)
    m_hat = min(root, spectral_cap)
    if m_hat < np.finfo(float).tiny:
        raise ValueError(f"perimeter bound P = {P:g} is too large: m_hat underflows")
    l0 = 1.01 * 4 * N * m_hat ** (1 / N) / (2 * unit_ball_volume(N) ** (1 / N) - 1)
    p = math.ceil(1 / m_hat)
    return float(m_hat), float(l0), int(p)


@dataclass(frozen=True)
class SurgeryConstants:
    """The inputs of one surgery run's constant chain, with provenance trace.

    The rest of the chain is derived, each constant by its one rule: ``C0``,
    ``delta`` and ``beta`` when read, and ``m_hat``, ``l0`` and ``p``
    (:func:`choose_cut_constants`) once, at construction, so a bad ``P``
    raises here.
    """

    N: int
    K: float
    k: int
    P: float
    volume: float
    c: float
    r0: float
    trace: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("K", "P", "volume", "c", "r0"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"constant {name} must be positive, got {value!r}")
        if self.N < 1 or self.k < 1:
            raise ValueError("N and k must be positive integers")
        object.__setattr__(self, "_cut", choose_cut_constants(self.P, self.N))

    @property
    def C0(self) -> float:
        """Strip-test constant, with ``C0 * r0 = min(c/2, 1/(2K))``."""
        return min(self.c / 2, 1 / (2 * self.K)) / self.r0

    @property
    def m_hat(self) -> float:
        """Mass threshold of the cut planner."""
        return self._cut[0]

    @property
    def l0(self) -> float:
        """Slide length of the cut planner."""
        return self._cut[1]

    @property
    def p(self) -> int:
        """Slide count of the cut planner, ``ceil(1/m_hat)``."""
        return self._cut[2]

    @property
    def delta(self) -> float:
        """Slide step of the cut planner, ``4 r0 + l0``: one collar's width."""
        return 4 * self.r0 + self.l0

    @property
    def beta(self) -> float:
        """Volume floor of the descent, ``omega_N (N/K)^{N/2} volume``."""
        return unit_ball_volume(self.N) * (self.N / self.K) ** (self.N / 2) * self.volume

    def to_dict(self) -> dict[str, Any]:
        derived = ("C0", "m_hat", "l0", "p", "beta")
        return {**asdict(self), **{name: getattr(self, name) for name in derived}}


def derive_constants(
    K: float,
    k: int,
    P: float,
    h: float,
    volume: float = 1.0,
    mode: str = "faithful",
    window_extent: float | None = None,
    N: int = 2,
) -> SurgeryConstants:
    """Full constant chain for one run; the practical factor scales c only."""
    factor = parse_mode(mode)
    c_base, trace = choose_c(K, k, volume=volume, N=N)
    trace = dict(trace)
    trace.update(
        {
            "mode": mode,
            "practical_factor": factor,
            "c_faithful": c_base,
            "r0_source": "max(4h, fraction*extent)",
        }
    )
    return SurgeryConstants(
        N=N,
        K=float(K),
        k=int(k),
        P=float(P),
        volume=float(volume),
        c=float(c_base * factor),
        r0=choose_strip_constants(h, window_extent=window_extent),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# strip test and active region


def _strip_test(f: TorsionField, strip: Strip, threshold: float) -> IneqReport:
    """The ``strip_test`` check of ``strip``: the torsion over the doubled
    strip is at most ``threshold``."""
    doubled = Strip(center=strip.center, half_width=2 * strip.half_width)
    return IneqReport.compare(
        "strip_test",
        strip_max(f, doubled),
        threshold,
        0.0,
        {"center": strip.center, "half_width": strip.half_width},
    )


def strip_removal_test(
    f: TorsionField, x1: float, r: float, C0: float, r0: float
) -> bool:
    """True iff the torsion over the doubled strip S_{2r}(x1) is at most C0*r0.

    This is the strip pipeline's own test (:func:`_strip_test`).
    """
    if not 0 < r <= r0 * (1 + 1e-12):
        raise ValueError(f"strip half-width r = {r:g} must lie in (0, r0 = {r0:g}]")
    return _strip_test(f, Strip(center=x1, half_width=r), C0 * r0).passed


def _merge_intervals(
    intervals: Sequence[tuple[float, float]], gap: float = 0.0
) -> list[tuple[float, float]]:
    """Merge sorted intervals whose separation is <= gap."""
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged:
            if lo - merged[-1][1] <= gap + 1e-12:
                merged[-1][1] = max(merged[-1][1], hi)
                continue
        merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _per_column(a: np.ndarray, reduce: Callable[..., Any] = np.sum) -> np.ndarray:
    """``reduce`` of ``a`` over every axis but the first: one entry per column."""
    return reduce(a, axis=tuple(range(1, a.ndim)))


def _occupied_span(d: GridDomain) -> tuple[float, float]:
    """Centres of the lowest and highest occupied first-axis columns of ``d``."""
    xs = d.centers(0)[_per_column(d.occupancy, np.any)]
    return float(xs[0]), float(xs[-1])


def _windowed_column_max(f: TorsionField, r0: float) -> np.ndarray:
    """Per first-axis column, the torsion maximum over the doubled strip.

    Entry ``j`` is the maximum of ``f`` over the columns of
    ``Strip(x_j, 2 * r0)``, the cells that ``strip_max`` reads: by the rule
    of :meth:`Strip.columns`, the columns at most ``floor(2 * r0 / h)``
    away from column ``j``, a column ``2 * r0`` away included.  The window
    is read off the strip about the first column.  Columns beyond the
    window count as zero, which the field is there.
    """
    d = f.domain
    colmax = _per_column(f.values, np.max)
    win = Strip(float(d.centers(0)[0]), 2 * r0).columns(d).stop - 1
    return sliding_window_view(np.pad(colmax, win), 2 * win + 1).max(axis=1)


def detect_active_region(
    f: TorsionField, C0: float, r0: float
) -> tuple[tuple[float, float], ...]:
    """Intervals of first-axis positions whose doubled strip holds torsion above C0*r0.

    Computes the sliding-window maximum of the per-column torsion maximum
    (window half-width 2*r0) and marks a column hot where it exceeds C0*r0,
    exactly where :func:`strip_removal_test` fails.  Each hot column is
    widened by 2*r0 on either side; overlapping widenings merge, so the
    returned intervals are at least 4*r0 wide.
    """
    hot = f.domain.centers(0)[_windowed_column_max(f, r0) > C0 * r0]
    widened = zip((hot - 2 * r0).tolist(), (hot + 2 * r0).tolist())
    return tuple(_merge_intervals(widened))


# ---------------------------------------------------------------------------
# cut planning


@dataclass(frozen=True)
class SurgeryPlan:
    """Where to cut: active region, gaps, slide index, strips and depth."""

    active_region: tuple[tuple[float, float], ...]
    segments: tuple[tuple[float, float], ...]
    slide_index: int
    anchors: tuple[tuple[float, float], ...]  # (strip center at t=0, direction)
    strips_to_remove: tuple[Strip, ...]
    cut_depth: float
    t_max: float
    y_mass: float
    mass_removed: float = 0.0
    sigma: float = 0.0
    p_inside: float = 0.0
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        order = sorted(self.strips_to_remove, key=lambda s: s.center)
        for a, b in zip(order, order[1:]):
            if b.lo < a.hi:
                raise ValueError("planned strips overlap")

    def to_dict(self) -> dict[str, Any]:
        return {
            "active_region": [list(iv) for iv in self.active_region],
            "segments": [list(iv) for iv in self.segments],
            "slide_index": self.slide_index,
            "anchors": [[base, direction] for base, direction in self.anchors],
            "strips": [[s.center, s.half_width] for s in self.strips_to_remove],
            "cut_depth": self.cut_depth,
            "t_max": self.t_max,
            "y_mass": self.y_mass,
            "mass_removed": self.mass_removed,
            "sigma": self.sigma,
            "p_inside": self.p_inside,
            "flags": list(self.flags),
        }


def _strips_at(
    anchors: Sequence[tuple[float, float]], r0: float, t: float
) -> tuple[Strip, ...]:
    return tuple(
        Strip(center=base + direction * t, half_width=r0)
        for base, direction in anchors
    )


def plan_cuts(
    d: GridDomain,
    X: Sequence[tuple[float, float]],
    constants: SurgeryConstants,
) -> SurgeryPlan:
    """Plan the strips: merge short gaps, choose the slide, place anchors.

    Gaps of the active region no longer than ``2 delta`` are absorbed into
    it, where ``delta = 4 r0 + l0`` (:attr:`SurgeryConstants.delta`) is one
    collar's width and one slide step.  The collar mass, within ``delta``
    outside both edges and inside both ends of every gap, is evaluated at
    slide 0 first.  Only if it exceeds ``m_hat`` does the slide search run:
    it absorbs every gap, so the active region is one interval and only the
    two tail strips slide, and it takes the first slide ``s`` in
    ``[0, p-1]`` whose tail collars, moved ``s delta`` outwards, hold at
    most ``m_hat``, falling back to the first slide of least mass with a
    flag.

    Absorbing every gap is the paper's merge of the gaps shorter than
    ``2 p delta``, by this lemma.  For N >= 2, on the unit-measure copy
    that ``_setup`` builds, ``r0`` is at least 0.01 times the occupied
    extent and ``P`` at least 4, the least perimeter of a rectilinear set
    of unit measure in 2-D, so ``p >= 17`` and ``2 p delta >= 8 p r0`` is
    at least 1.36 times the extent, while every gap lies inside the
    occupied span.  For N = 1 (``p = 4``), or for constants built by hand,
    absorbing every gap is the rule, not a consequence of the lemma.

    Strip centers are emitted as (base, direction) anchors; the cut depth
    ``t`` shifts each strip by ``direction * t`` away from the active
    region and is chosen later by :func:`select_cut_depth`.  An empty
    active region is one with no gaps, its edges at the occupied span and
    slide 0.
    """
    r0, m_hat, p, delta = constants.r0, constants.m_hat, constants.p, constants.delta
    col_mass = _per_column(d.occupancy) * d.h**d.N
    vol = float(col_mass.sum())
    flags: list[str] = []
    active: list[tuple[float, float]] = []
    segments: list[tuple[float, float]] = []
    slide, y_mass = 0, 0.0

    def collar_mass(s: int) -> float:
        """Mass within ``delta`` outside the edges, moved ``s delta``
        outwards, and inside the gap ends (which exist only at slide 0).

        Each collar is the closed window of ``delta`` beside an edge, and its
        columns are those of the strip it spans (:meth:`Strip.columns`).
        """
        shift, half = s * delta, delta / 2
        centres = [lo_edge - shift - half, hi_edge + shift + half]
        for a, b in segments:
            centres += [a + half, b - half]
        hit = np.zeros(d.shape[0], dtype=bool)
        for centre in centres:
            hit[Strip(centre, half).columns(d)] = True
        return float(col_mass[hit].sum())

    if not X:
        flags.append("empty_active_region")
        lo_edge, hi_edge = _occupied_span(d)
    else:
        active = _merge_intervals(X, gap=2 * delta)
        segments = [(a[1], b[0]) for a, b in zip(active, active[1:])]
        lo_edge, hi_edge = active[0][0], active[-1][1]
        y_mass = collar_mass(0)
        if y_mass > m_hat * vol:
            flags.append("slide_search")
            # absorb every gap, then take the first slide in 0..p-1 under
            # the threshold, else the first of least mass
            active, segments = [(lo_edge, hi_edge)], []
            masses: list[float] = []
            for s in range(p):
                masses.append(collar_mass(s))
                if masses[-1] <= m_hat * vol:
                    break
            else:
                flags.append("mass_threshold_unmet")
            y_mass = min(masses)
            slide = masses.index(y_mass)

    shift = slide * delta
    anchor_list = [(lo_edge - shift - 2 * r0, -1.0)]
    for a, b in segments:
        anchor_list.append((a + 2 * r0, 1.0))
        anchor_list.append((b - 2 * r0, -1.0))
    anchor_list.append((hi_edge + shift + 2 * r0, 1.0))
    anchors = tuple(anchor_list)

    plan = SurgeryPlan(
        active_region=tuple(active),
        segments=tuple(segments),
        slide_index=slide,
        anchors=anchors,
        strips_to_remove=_strips_at(anchors, r0, 0.0),
        cut_depth=0.0,
        t_max=constants.l0,
        y_mass=y_mass,
        flags=tuple(flags),
    )
    logger.info(
        "cut plan: %d active interval(s), %d gap(s), slide %d, collar mass %.3g",
        len(plan.active_region),
        len(plan.segments),
        plan.slide_index,
        plan.y_mass,
    )
    return plan


def _discard_column_mask(d: GridDomain, strips: Sequence[Strip]) -> np.ndarray:
    """Columns of ``d`` removed or orphaned by the strips: tails, strips, gap middles.

    The strips alternate direction (away from the active region), so the
    discarded set per gap is the single run from the low strip's first
    column to the high strip's last, and the two tails run to the window's
    ends.  The columns are the strips' own (:meth:`Strip.columns`), so the
    mask matches :func:`eigsurgery.domain.remove_strips` bit for bit.
    """
    cols = [s.columns(d) for s in sorted(strips, key=lambda s: s.center)]
    mask = np.zeros(d.shape[0], dtype=bool)
    mask[: cols[0].stop] = True
    mask[cols[-1].start :] = True
    for lo, hi in zip(cols[1::2], cols[2::2]):
        mask[lo.start : hi.stop] = True
    return mask


def select_cut_depth(
    d: GridDomain,
    plan: SurgeryPlan,
    constants: SurgeryConstants,
) -> tuple[float, dict[str, Any]]:
    """Scan cut depths t in {0, h, ..., t_max} and pick by the perimeter ledger.

    For each t the removed mass m(t), the fresh cut surface sigma(t) and the
    boundary surface p(t) carried away are computed exactly on the raster;
    the rescaled perimeter is ``(1 - m)^{-(N-1)/N} (Per - p + sigma)``, and
    infinite where the strips leave no column.  The smallest rescaled
    perimeter wins (smallest t breaks ties); it is flagged if it exceeds
    Per, since then no depth qualifies.  The strips have the half-width
    ``constants.r0``, and the perimeter bound ``constants.P`` is recorded in
    the ledger; the ledger writes an infinite value as ``"inf"``.
    """
    if len(plan.anchors) < 2 or len(plan.anchors) % 2 != 0:
        raise ValueError("plan must carry an even number (>= 2) of strip anchors")
    h = d.h
    N = d.N
    occ = d.occupancy
    col_mass = _per_column(occ) * h**N
    # per first-axis column (flat position // column): the faces it shares
    # with the next column, its axis-0 face pairs, and the boundary faces its
    # cells own, 2N per cell less one per face pair end
    pairs = face_pairs(occ)
    column = occ[0].size
    adjacent = np.bincount(pairs[0][0] // column, minlength=occ.shape[0] - 1)
    ends = np.concatenate([np.concatenate(pq) for pq in pairs]) // column
    own_faces = 2 * N * _per_column(occ) - np.bincount(ends, minlength=occ.shape[0])
    per_before = perimeter(d)
    vol = float(col_mass.sum())
    face_unit = h ** (N - 1)

    t_grid = np.arange(0.0, plan.t_max + h / 2, h)
    masses, sigmas, p_inner, kept_pers, rescaled = [], [], [], [], []
    for t in t_grid:
        strips = _strips_at(plan.anchors, constants.r0, float(t))
        discard = _discard_column_mask(d, strips)
        m = float(col_mass[discard].sum())
        cut_faces = int(adjacent[discard[:-1] != discard[1:]].sum())
        p_faces = int(own_faces[discard].sum())
        sigma = cut_faces * face_unit
        p_in = p_faces * face_unit
        kept = per_before - p_in + sigma
        frac = m / vol
        value = (
            (1 - frac) ** (-(N - 1) / N) * kept if frac < 1 else math.inf
        )
        masses.append(m)
        sigmas.append(sigma)
        p_inner.append(p_in)
        kept_pers.append(kept)
        rescaled.append(value)

    idx = int(np.argmin(rescaled))
    flagged = bool(rescaled[idx] > per_before * (1 + _GEOMETRY_SLACK))
    ledger = {
        "t": [float(t) for t in t_grid],
        "mass": masses,
        "sigma": sigmas,
        "p_inside": p_inner,
        "kept_perimeter": kept_pers,
        "rescaled_perimeter": [_json_number(v) for v in rescaled],
        "perimeter_before": per_before,
        "volume": vol,
        "P": constants.P,
        "chosen_index": idx,
        "chosen_t": float(t_grid[idx]),
        "flagged": flagged,
    }
    return float(t_grid[idx]), ledger


# ---------------------------------------------------------------------------
# component cleanup


def _component_field(comp: GridDomain, f: TorsionField) -> TorsionField:
    """Torsion function of ``comp``, a component of a subdomain of ``f.domain``.

    A whole component of ``f.domain``, one that no face pair of the parent
    (:func:`~eigsurgery.domain.face_pairs`) joins to the rest, takes ``f``
    restricted to it, since the stencil decouples components exactly; its
    relative residual is at most the parent's times
    ``sqrt(parent cells / component cells)``.  Any other is solved.
    """
    occ = comp.occupancy.ravel()
    if any((occ[p] != occ[q]).any() for p, q in face_pairs(f.domain.occupancy)):
        return solve_torsion(comp)
    return TorsionField(
        domain=comp,
        values=np.where(comp.occupancy, f.values, 0.0),
        residual=f.residual * math.sqrt(f.domain.cell_count / comp.cell_count),
    )


def component_cleanup(
    d: GridDomain,
    X: Sequence[tuple[float, float]],
    f: TorsionField,
    constants: SurgeryConstants,
) -> tuple[GridDomain, dict[str, Any]]:
    """Replace components whose projection misses the active region by one ball.

    A component misses ``X`` when none of its first-axis columns is a column
    of an interval of ``X`` read as a strip (:meth:`Strip.columns`).

    Every such component must carry torsion at most ``C0 * r0`` (measured on
    the parent field, which dominates the component's own torsion exactly);
    a violating component is kept and flagged.  For each replaced component
    the spectral floor ``(1/max w) (1 - m_hat)^{2/N} >= K`` and the positive
    penalized energy ``E + c|.| >= 0`` are recorded; the energy needs the
    component's own torsion (:func:`_component_field`).
    """
    threshold = constants.C0 * constants.r0
    rescale_factor = (1 - constants.m_hat) ** (2 / d.N)  # of the final rescale
    checks: list[IneqReport] = []
    flags: list[str] = []
    discarded = 0
    discarded_measure = 0.0
    discard = np.zeros(d.shape, dtype=bool)
    active = np.zeros(d.shape[0], dtype=bool)  # columns of X, by the strip rule
    for lo, hi in X:
        active[Strip((lo + hi) / 2, (hi - lo) / 2).columns(d)] = True
    for comp in connected_components(d):
        if (active & _per_column(comp.occupancy, np.any)).any():
            continue
        wmax = float(f.values[comp.occupancy].max())
        comp_measure = measure(comp)
        if wmax > threshold:
            flags.append(
                f"component_torsion_above_threshold:{wmax:.6g}>{threshold:.6g}"
            )
            checks.append(
                IneqReport.compare(
                    "component_torsion_cap",
                    wmax,
                    threshold,
                    0.0,
                    {"component_measure": comp_measure},
                    note="component kept: torsion exceeds the removal threshold",
                )
            )
            continue
        discarded += 1
        discarded_measure += comp_measure
        discard |= comp.occupancy
        lam1_floor = (1.0 / wmax if wmax > 0 else math.inf) * rescale_factor
        checks.append(
            IneqReport.compare(
                "component_spectral_floor",
                constants.K,
                lam1_floor,
                1e-12,
                {"component_measure": comp_measure, "max_torsion": wmax},
            )
        )
        fA = _component_field(comp, f)
        checks.append(check_positive_energy(comp, fA, f, constants.c, threshold))

    if discarded:
        d = replace_components_with_ball(d, discard)
        logger.info(
            "component cleanup: replaced %d component(s) of measure %.6g by a ball",
            discarded,
            discarded_measure,
        )
    return d, {
        "discarded_components": discarded,
        "discarded_measure": discarded_measure,
        "checks": checks,
        "flags": flags,
    }


# ---------------------------------------------------------------------------
# reports


def measure_domain(d: GridDomain, s: Spectrum, k: int) -> dict[str, Any]:
    """Geometry of a domain and the lowest ``k`` values of its spectrum ``s``."""
    return {
        "measure": measure(d),
        "perimeter": perimeter(d),
        "diam_e1": diam_e(d, 0),
        "diameter": diameter(d),
        "spectrum": [s[i] for i in range(1, k + 1)],
    }


@dataclass(frozen=True)
class SurgeryReport:
    """Everything one surgery run measured, checked and decided."""

    kind: str  # "strip" or "bounded"
    mode: str
    constants: SurgeryConstants
    plan: SurgeryPlan | None
    before: dict[str, Any]
    after: dict[str, Any]
    diameter_bound: dict[str, Any]
    checks: tuple[IneqReport, ...]
    flags: tuple[str, ...]
    changed: bool  # whether the surgery changed the domain
    ledger: dict[str, Any] = field(default_factory=dict)
    log: tuple[dict[str, Any], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        """``"fail"`` if any check fails, else ``"pass"`` if the surgery
        changed the domain and ``"no-op"`` if not."""
        if not self.passed:
            return "fail"
        return "pass" if self.changed else "no-op"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "constants": self.constants.to_dict(),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "before": self.before,
            "after": self.after,
            "diameter_bound": self.diameter_bound,
            "checks": [c.to_dict() for c in self.checks],
            "flags": list(self.flags),
            "verdict": self.verdict,
            "ledger": self.ledger,
            "log": list(self.log),
        }


def _setup(
    d: GridDomain, K: float, k: int, P: float | None, mode: str
) -> tuple[GridDomain, float, SurgeryConstants]:
    """Set-up shared by both pipelines: the unit-measure copy of ``d``, its
    scale factor and the constants derived on the copy.

    ``P`` defaults to 1.02 times the copy's perimeter; a stated ``P`` must
    not be below it.
    """
    d0, t0 = _normalized(d)
    per0 = perimeter(d0)
    if P is None:
        P = per0 * 1.02
    elif per0 > P * (1 + 1e-9):
        raise ValueError(f"perimeter {per0:g} exceeds the stated bound P = {P:g}")
    lo, hi = _occupied_span(d0)
    constants = derive_constants(
        K, k, P, d0.h, volume=measure(d0), mode=mode,
        window_extent=hi - lo + d0.h, N=d0.N,
    )
    return d0, t0, constants


def _report(
    kind: str, changed: bool, checks: list[IneqReport], **fields: Any
) -> SurgeryReport:
    """Report tail shared by both pipelines: the report and its logged verdict."""
    report = SurgeryReport(kind=kind, checks=tuple(checks), changed=changed, **fields)
    logger.info("%s surgery verdict: %s (%d checks)", kind, report.verdict, len(checks))
    return report


# ---------------------------------------------------------------------------
# strip pipeline


def _cut_stage(
    f: TorsionField, constants: SurgeryConstants
) -> tuple[GridDomain, SurgeryPlan, dict[str, Any], list[IneqReport], list[str]]:
    """Plan and cut the strips of the unit-measure ``d0 = f.domain``, then clean up.

    Detects the active region of ``f`` (the torsion function of ``d0``),
    plans the strips, scans the cut depth, tests every strip and removes the
    ones that pass, and replaces the far components by a ball.  Returns the
    cleaned domain, the plan as executed, the cut-depth ledger, the strip
    and cleanup checks, and the flags raised.
    """
    d0, r0 = f.domain, constants.r0
    X = detect_active_region(f, constants.C0, r0)
    logger.info("active region: %d interval(s)", len(X))
    plan = plan_cuts(d0, X, constants)
    flags = list(plan.flags)
    t, ledger = select_cut_depth(d0, plan, constants)
    if ledger["flagged"]:
        flags.append("cut_depth_infeasible")

    checks: list[IneqReport] = []
    kept_strips = []
    for strip in _strips_at(plan.anchors, r0, t):
        test = _strip_test(f, strip, constants.C0 * r0)
        checks.append(test)
        if test.passed:
            kept_strips.append(strip)
        else:
            flags.append(f"strip_test_failed:{strip.center:.6g}")

    d_cut = d0
    if kept_strips:
        try:
            d_cut = remove_strips(d0, kept_strips)
        except EmptyDomainError:
            flags.append("removal_would_empty_domain")
            kept_strips = []

    # net mass actually removed (the slab middles come back as the ball)
    strip_mass = measure(d0) - measure(d_cut)
    if strip_mass > constants.m_hat * measure(d0) * (1 + _GEOMETRY_SLACK):
        flags.append("strip_mass_exceeds_threshold")
    idx = ledger["chosen_index"]
    plan = dc_replace(
        plan,
        cut_depth=t,
        strips_to_remove=tuple(kept_strips),
        mass_removed=strip_mass,
        sigma=ledger["sigma"][idx],
        p_inside=ledger["p_inside"][idx],
        flags=tuple(flags),
    )

    d_clean, cleanup = component_cleanup(d_cut, plan.active_region, f, constants)
    checks += cleanup["checks"]
    flags += cleanup["flags"]
    return d_clean, plan, ledger, checks, flags


def _above_K(name: str, i: int, K: float, before: float, after: float) -> IneqReport:
    """The vacuous report of eigenvalue ``i``, which starts above ``K``."""
    return IneqReport.precondition_unmet(
        name,
        {"index": i, "K": K, "before": before, "after": after},
        f"eigenvalue {i} starts above K: outside the guarantee",
    )


def _check_stage(
    plan: SurgeryPlan, ledger: dict[str, Any], constants: SurgeryConstants,
    before: dict[str, Any], after: dict[str, Any],
) -> tuple[list[IneqReport], dict[str, Any]]:
    """Re-measured guarantees of a strip surgery, and its diameter bound.

    Checks exact unit measure, perimeter non-increase (void on a flagged cut
    depth), eigenvalue non-increase for every index whose starting
    eigenvalue is at most ``constants.K``, and ``diam_e1`` against the bound
    computed from the plan: ``base`` plus a slide allowance of the gap term
    ``4 n_gaps p delta`` and the tails' outward slide ``2 slide delta``.
    """
    K, r0, delta, N = constants.K, constants.r0, constants.delta, constants.N
    n_gaps = len(plan.segments)
    h1_active = sum(hi - lo for lo, hi in plan.active_region)
    base = (
        2 * (h1_active + n_gaps * (2 * delta) + 2 * r0 * (n_gaps + 2))
        + 2 * unit_ball_volume(N) ** (-1 / N)
    )
    # each tail anchor moves slide * delta outwards
    slide_allowance = 4 * n_gaps * constants.p * delta + 2 * plan.slide_index * delta
    diameter_bound = {
        "base": base,
        "slide_allowance": slide_allowance,
        "total": base + slide_allowance,
        "rescaled_total": (base + slide_allowance)
        * (1 - constants.m_hat) ** (-1 / N),
    }

    checks = [
        IneqReport.compare(
            "unit_measure",
            abs(after["measure"] - 1.0),
            _GEOMETRY_SLACK,
            0.0,
            {"measure": after["measure"]},
        )
    ]
    if ledger["flagged"]:
        checks.append(
            IneqReport.precondition_unmet(
                "perimeter_non_increase",
                {"before": before["perimeter"], "after": after["perimeter"]},
                "cut-depth scan found no depth within the perimeter budget",
            )
        )
    else:
        checks.append(
            IneqReport.compare(
                "perimeter_non_increase",
                after["perimeter"],
                before["perimeter"],
                _GEOMETRY_SLACK,
                {"cut_depth": plan.cut_depth},
            )
        )
    pairs = zip(before["spectrum"], after["spectrum"])
    for i, (lam_before, lam_after) in enumerate(pairs, start=1):
        name = f"eigenvalue_{i}_non_increase"
        if lam_before <= K:
            checks.append(
                IneqReport.compare(
                    name,
                    lam_after,
                    lam_before,
                    1e-3,  # relative guard against the two solves' error
                    {"index": i, "K": K},
                )
            )
        else:
            checks.append(_above_K(name, i, K, lam_before, lam_after))
    checks.append(
        IneqReport.compare(
            "diam_e1_bound",
            after["diam_e1"],
            diameter_bound["total"],
            _GEOMETRY_SLACK,
            {"base": base, "rescaled_total": diameter_bound["rescaled_total"]},
        )
    )
    return checks, diameter_bound


def strip_surgery(
    f: TorsionField,
    s: Spectrum,
    K: float,
    k: int,
    P: float | None = None,
    mode: str = "faithful",
    seed: int = 0,
) -> tuple[GridDomain, SurgeryReport]:
    """Cut low-torsion strips, replace far components by a ball, rescale.

    Takes the torsion function ``f`` of the input ``f.domain`` and a spectrum
    ``s`` of it with at least ``k`` eigenvalues, rescaled exactly to unit
    measure; only a surgery that changes the occupancy solves again.  The
    cut stage (:func:`_cut_stage`) plans, tests and removes the strips and
    replaces the far components; the check stage (:func:`_check_stage`)
    re-measures every guarantee on the result.  Returns the surgered
    unit-measure domain and the report.  A run that changes nothing is a
    verified no-op.  Raises ``ValueError``, before any cut, if ``s`` holds
    fewer than ``k`` eigenvalues.
    """
    if s.k < k:
        raise ValueError(f"the spectrum holds {s.k} eigenvalues, fewer than k = {k}")
    d0, t0, constants = _setup(f.domain, K, k, P, mode)
    f = f.rescaled(t0, d0)
    d_clean, plan, ledger, checks, flags = _cut_stage(f, constants)
    before = measure_domain(d0, s.rescaled(t0), k)
    changed = not np.array_equal(d_clean.occupancy, d0.occupancy)
    if changed:
        d_out, _ = _normalized(d_clean)
        after = measure_domain(d_out, eigenvalues(d_out, k=k, seed=seed), k)
    else:
        d_out, after = d0, before
    more, diameter_bound = _check_stage(plan, ledger, constants, before, after)
    return d_out, _report(
        "strip",
        changed,
        checks + more,
        mode=mode,
        constants=constants,
        plan=plan,
        before=before,
        after=after,
        diameter_bound=diameter_bound,
        flags=tuple(dict.fromkeys(flags)),
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# descent pipeline


def _descent_candidates(
    f: TorsionField, r0: float, k: int
) -> list[tuple[str, float | None, GridDomain]]:
    """One descent step's moves from ``f.domain``: ``(kind, tau, candidate)``.

    Each move is the mask of the cells it keeps, on ``f.domain``'s window.
    First the removal of the sublevel set {w < tau} for tau on the geometric
    ladder ``max(w)/2, max(w)/4, ...`` (capping tau at half the maximum keeps
    the torsion peak within a factor two per move), then the removal of
    either edge strip along the first axis: the strip of width ``r0`` from
    the lowest (highest) occupied column's centre inwards, which by the rule
    of :meth:`Strip.columns` is that column and the next ``floor(r0 / h)``,
    5 columns at ``r0 = 4h``, at either end.  A move is offered iff it
    removes a cell and keeps at least ``k`` cells, so that the descended
    raster still has the ``k`` eigenvalues its report checks.  Equal
    sublevel sets may be offered twice; the descent's settled set skips the
    copy.
    """
    d = f.domain
    top, low = f.max / 2, float(f.values[d.occupancy].min())
    ladder = [top * 2.0 ** (-j) for j in range(20)]
    # a rung at or below the least value removes nothing, so it is not built
    moves = [
        ("sublevel", tau, d.occupancy & (f.values >= tau)) for tau in ladder if tau > low
    ]
    lo, hi = _occupied_span(d)
    for kind, strip in (
        ("edge_strip_low", Strip(lo + r0 / 2, r0 / 2)),
        ("edge_strip_high", Strip(hi - r0 / 2, r0 / 2)),
    ):
        kept = d.occupancy.copy()
        kept[strip.columns(d)] = False
        moves.append((kind, None, kept))
    return [
        (kind, tau, GridDomain(d.h, d.origin, kept))
        for kind, tau, kept in moves
        if k <= int(kept.sum()) < d.cell_count
    ]


def _energy_bound(f: TorsionField, cand: GridDomain) -> float:
    """Lower bound on the torsion energy of a subdomain of ``f.domain``.

    Removing cells leaves a principal submatrix of the M-matrix, so the
    candidate's torsion function is at most ``f`` on the cells it keeps
    and its energy is at least ``-1/2`` times the integral of ``f`` there.
    """
    d = f.domain
    return -0.5 * float(f.values[cand.occupancy].sum()) * d.h**d.N


def _descent_slack(f: TorsionField, value: float) -> float:
    """How far a computed candidate value may fall below its computed bound.

    ``value`` is the penalized energy ``E + c|.|`` of ``f.domain``.  A solve
    with relative residual ``r <= DEFAULT_CG_TOL`` shifts the sum of any
    subset of the field by at most ``|1^T A^-1 r| <= |w|_2 |r|_2``
    (``A^-1 >= 0``), that is by ``DEFAULT_CG_TOL * sqrt(n) |E|`` in energy;
    this holds for both the candidate's solve and ``f``, and each sum and
    the final addition round by at most ``n`` ulps of the value's terms,
    which are at most ``|E| + c|.| = value - 2E`` in size.  The same slack
    serves :func:`_removal_bounds`' screens, whose bounds are ``E`` plus a
    rise that carries its own error terms.
    """
    n = f.domain.cell_count
    eps = float(np.finfo(float).eps)
    scale = value - 2 * torsion_energy(f)
    return 4 * (DEFAULT_CG_TOL * math.sqrt(n) + n * eps) * scale


def _removal_bounds(
    f: TorsionField, factor: Factor, floor: float, cand: GridDomain
) -> Iterator[float]:
    """Lower bounds on ``E(cand) - E(f.domain)``: one back-solve, then two.

    ``factor`` is the factor of ``f.domain``'s Laplacian ``A`` and
    ``floor`` a lower bound on its lambda_1 (:func:`pde._lambda1_floor`).
    Removing the cells R leaves the principal submatrix on the rest, and its
    Schur complement gives the energy's rise exactly:
    ``1/2 h^N w_R^T (G_RR)^-1 w_R`` with ``G = A^-1`` and ``w = A^-1 1``.
    By Cauchy-Schwarz in the inner product of ``G_RR``, every ``u`` that
    vanishes off R gives ``w_R^T (G_RR)^-1 w_R >= (u^T w)^2 / (u^T G u)``.

    The first bound takes ``u_1``, the computed ``w`` on R, which makes it
    exact for a single cell, and ``g_1 = G u_1``, one back-solve.  The
    second is the two-point Gauss rule of the same quadratic form: the best
    ``u = U c`` in the span of ``u_1`` and ``u_2 = (g_1)_R``, with
    ``c = M^-1 a`` for the Gram ``M = [u_i^T g_j]`` and ``a = [u_i^T w]``,
    so one more back-solve ``g_2 = G u_2`` and ``g = c_1 g_1 + c_2 g_2``.
    It is exact when |R| <= 2, and it is yielded as the larger of the two
    bounds; when ``M`` is singular to rounding (a single cell) or ``c`` is
    not finite, that is the first.  A caller that stops after the first
    skips the second back-solve.

    Each bound is rigorous for whatever ``u`` and ``g`` were computed: both
    ``w`` and ``g`` carry solve errors, and ``|A^-1| <= 1 / floor``, so
    ``u^T w`` is lowered by ``|u| |A w - 1| / floor`` and ``u^T g`` raised
    by ``|u| |A g - u| / floor``.  Both residuals are taken from the
    stencil, where each entry rounds by at most ``2N + 2`` ulps of
    ``|A| |x| + |b|``, and ``|A| <= 4N / h^2``; that is added to each.  The
    dot products and norms round by at most ``n`` ulps each, so the result
    is shrunk by ``4 n`` ulps.
    """
    d = f.domain
    cells = factor.stencil.cells
    n = cells.size
    eps = float(np.finfo(float).eps)
    noise = (2 * d.N + 2) * eps
    a_norm = 4 * d.N / (d.h * d.h)
    w = f.values.ravel()[cells]
    r_w = math.sqrt(n) * (f.residual + noise) + noise * a_norm * float(np.linalg.norm(w))

    def bound(u: np.ndarray, g: np.ndarray) -> float:
        norm_u = float(np.linalg.norm(u))
        uw = float(u @ w) - norm_u * r_w / floor
        if uw <= 0:
            return 0.0  # removing cells never lowers the energy
        r_g = float(np.linalg.norm(factor.residual(g, u))) + noise * (
            a_norm * float(np.linalg.norm(g)) + norm_u
        )
        ugu = float(u @ g) + norm_u * r_g / floor
        return 0.5 * d.h**d.N * uw * uw / ugu * (1 - 4 * n * eps)

    kept = cand.occupancy.ravel()[cells]
    u1 = np.where(kept, 0.0, w)
    g1 = factor.solve(u1)
    rise = bound(u1, g1)
    yield rise
    u2 = np.where(kept, 0.0, g1)
    g2 = factor.solve(u2)
    m11, m12 = float(u1 @ g1), float(u1 @ g2)
    m21, m22 = float(u2 @ g1), float(u2 @ g2)
    a1, a2 = float(u1 @ w), float(u2 @ w)
    det = m11 * m22 - m12 * m21
    # Cauchy-Schwarz makes det >= 0, with equality when u_2 is parallel to
    # u_1, as on one cell; there the products round det to a few ulps
    if det > 4 * eps * m11 * m22:
        c1, c2 = (m22 * a1 - m12 * a2) / det, (m11 * a2 - m21 * a1) / det
        if math.isfinite(c1) and math.isfinite(c2):
            rise = max(rise, bound(c1 * u1 + c2 * u2, c1 * g1 + c2 * g2))
    yield rise


def subsolution_truncate(
    f: TorsionField,
    c: float,
    r0: float,
    k: int,
    factor: Factor,
) -> tuple[TorsionField, tuple[dict[str, Any], ...], Factor]:
    """Greedy monotone descent of E + c|.| over sublevel and edge-strip moves.

    No move leaves fewer than ``k`` cells (:func:`_descent_candidates`).
    Starts from the torsion function ``f`` of ``f.domain`` and that raster's
    factor ``factor`` (:func:`pde.factored_torsion`, band or sparse),
    which is left unreleased.  Each step accepts the candidate move (see
    :func:`_descent_candidates`) of least penalized energy if it strictly
    decreases the energy; descent stops when none does or after
    ``DESCENT_MOVE_LIMIT`` accepted moves.  Ties are settled on the computed
    floating-point values: the first in candidate order wins among bit-equal
    values, but moves whose exact energies are equal (mirror images, say)
    usually differ in the last bits, and then rounding picks the winner.

    A candidate is solved only when it can win, which three screens decide
    against ``target + slack``: ``target`` is the smaller of the current
    value and the best candidate value, and the slack,
    :func:`_descent_slack`, covers the solve errors and the rounding.
    First, every candidate is a subset of the current domain, so its energy
    is at least the free M-matrix bound of :func:`_energy_bound`;
    candidates are visited in ascending bound and the rest are skipped once
    a bound exceeds the threshold.  A candidate that passes gets the
    Schur-complement bounds of :func:`_removal_bounds` on the current
    domain's factor: second, the one-point bound, one back-solve, and
    third, only if that does not settle it, the two-point bound, one more.
    It is skipped as soon as a bound exceeds the threshold.  The current
    domain's factor lives for the whole step, and the winner's becomes the
    next step's.  The bounds' lambda_1 floor is computed once, on the start
    domain: every later domain is a subset of it, so by interlacing its
    lambda_1 is at least as large.  An occupancy settled earlier in the
    descent, solved or skipped, is not tried again: it lost to its first
    copy in the same step, or to the move accepted in an earlier step, so
    it cannot beat the current value, which only decreased since.  The
    INFO log line counts the candidates, how many each screen settled, the
    repeats and the solves.  Returns the torsion function of the final
    domain, a subsolution with respect to this move class only, the move
    log, and the final domain's factor, unreleased, for its
    eigensolve: ``factor`` itself when no move was accepted.
    """
    if c < 0:
        raise ValueError("penalty constant c must be nonnegative")
    factor.stencil.check(f.domain)
    value = torsion_energy(f) + c * measure(f.domain)
    floor = _lambda1_floor(f.domain)
    settled: set[tuple[tuple[int, ...], bytes]] = set()
    log: list[dict[str, Any]] = []
    tally = dict.fromkeys(
        ("candidates", "m_matrix", "one_point", "two_point", "repeated", "solved"), 0
    )
    for _ in range(DESCENT_MOVE_LIMIT):
        candidates = _descent_candidates(f, r0, k)
        penalties = [c * measure(cand) for _, _, cand in candidates]
        bounds = [
            _energy_bound(f, cand) + p for (_, _, cand), p in zip(candidates, penalties)
        ]
        slack = _descent_slack(f, value)
        energy = torsion_energy(f)
        best: tuple[float, int, TorsionField, Factor] | None = None
        tally["candidates"] += len(candidates)
        order = sorted(range(len(candidates)), key=lambda i: (bounds[i], i))
        for pos, i in enumerate(order):
            target = value if best is None else min(value, best[0])
            if bounds[i] > target + slack:
                tally["m_matrix"] += len(order) - pos
                break  # every later bound is at least as large
            cand = candidates[i][2]
            key = (cand.shape, np.packbits(cand.occupancy).tobytes())
            if key in settled:
                tally["repeated"] += 1
                continue
            settled.add(key)
            rises = _removal_bounds(f, factor, floor, cand)
            screen = next(
                (
                    s
                    for s, rise in zip(("one_point", "two_point"), rises)
                    if energy + rise + penalties[i] > target + slack
                ),
                None,
            )
            if screen is not None:
                tally[screen] += 1
                continue
            tally["solved"] += 1
            fc, fac = factored_torsion(cand)
            val = torsion_energy(fc) + penalties[i]
            if val < value and (best is None or (val, i) < best[:2]):
                best = (val, i, fc, fac)
            del fc, fac  # a loser's factor is freed before the next factorization
        if best is None:
            break
        val, i, fc, factor = best
        kind, tau, cand = candidates[i]
        log.append(
            {
                "move": kind,
                "tau": tau,
                "value_before": value,
                "value_after": val,
                "delta": val - value,
                "cells_removed": f.domain.cell_count - cand.cell_count,
            }
        )
        f, value = fc, val
    logger.info(
        "descent accepted %d move(s) over %d candidate(s): %d settled by the "
        "M-matrix bound, %d by the one-point bound, %d by the two-point bound, "
        "%d repeated, %d solved",
        len(log),
        *tally.values(),
    )
    return f, tuple(log), factor


def verify_choicec(
    before: GridDomain,
    after: GridDomain,
    k: int,
    K: float,
    s_before: Spectrum,
    s_after: Spectrum,
) -> list[IneqReport]:
    """Eigenvalue guarantees of the penalized minimizer, per index 1..k.

    For each index the rescaled monotonicity
    ``lambda_i(after) |after|^{2/N} <= lambda_i(before) |before|^{2/N}``
    (reported only while ``lambda_i(before) <= K``) and the growth sandwich
    ``lambda_i(before) <= lambda_i(after) <= 2 vdb_constant(N) M_i
    lambda_i(before)`` are checked on the given spectra ``s_before`` and
    ``s_after`` of the two domains, with ``M_i`` from :func:`default_m_table`
    and relative tolerance 1e-6.  Requires ``after`` to be contained in
    ``before`` cell-wise (both pre-rescale).
    """
    a_mask, b_mask = embed_union(after, before, after.occupancy, before.occupancy)
    if (a_mask & ~b_mask).any():
        raise ValueError("after-domain must be contained in the before-domain")
    N = before.N
    table = default_m_table(k, N)
    rel_tol = 1e-6
    vol_b, vol_a = measure(before), measure(after)
    chain = 2 * vdb_constant(N)
    reports: list[IneqReport] = []
    for i in range(1, k + 1):
        ctx = {"index": i, "K": K, "before": s_before[i], "after": s_after[i]}
        if s_before[i] <= K:
            reports.append(
                IneqReport.compare(
                    f"rescaled_eigenvalue_{i}",
                    s_after[i] * vol_a ** (2 / N),
                    s_before[i] * vol_b ** (2 / N),
                    rel_tol,
                    ctx,
                )
            )
        else:
            reports.append(
                _above_K(f"rescaled_eigenvalue_{i}", i, K, s_before[i], s_after[i])
            )
        upper = chain * table[i] * s_before[i]
        lower_margin = s_after[i] - s_before[i]
        upper_report = IneqReport.compare(
            f"eigenvalue_growth_{i}",
            s_after[i],
            upper,
            rel_tol,
            {**ctx, "chain_factor": chain, "M_i": table[i], "lower_margin": lower_margin},
            note="lower side lambda_i(before) <= lambda_i(after) folded into margin",
        )
        reports.append(dc_replace(upper_report, margin=min(upper_report.margin, lower_margin)))
    return reports


def bounded_surgery(
    d: GridDomain,
    K: float,
    k: int,
    mode: str = "faithful",
    seed: int = 0,
) -> tuple[GridDomain, SurgeryReport]:
    """Energy descent with the derived penalty, then rescale to unit measure.

    The report asserts strict monotonicity of every accepted move, the
    penalized-energy comparison against the input, the torsion-peak floor
    ``max w(after) >= max w(before) / 2``, the volume floor ``beta``, and the
    per-index eigenvalue guarantees of :func:`verify_choicec`.  Diameter and
    perimeter are measured and reported without an a-priori bound.  No move
    leaves fewer than ``k`` cells, so both rasters have the ``k`` eigenvalues
    the report checks.  When no move is accepted the normalized input itself
    is returned (a no-op).  Raises ``ValueError`` if ``d`` has fewer than
    ``k`` cells (:func:`eigenvalues`).
    """
    d0, _, constants = _setup(d, K, k, None, mode)
    f0, factor0 = factored_torsion(d0)
    f1, log, factor1 = subsolution_truncate(
        f0, constants.c, r0=constants.r0, k=k, factor=factor0
    )
    s0 = eigenvalues(d0, factor0, k=k, seed=seed)  # releases factor0: after the descent
    d_desc = f1.domain
    before = measure_domain(d0, s0, k)
    if log:
        s1 = eigenvalues(d_desc, factor1, k=k, seed=seed)
        d_out, t1 = _normalized(d_desc)
        after = measure_domain(d_out, s1.rescaled(t1), k)
    else:
        s1, d_out, after = s0, d0, before

    checks: list[IneqReport] = []
    if log:
        worst_delta = max(entry["delta"] for entry in log)
        checks.append(
            IneqReport.compare("descent_monotone", worst_delta, 0.0, 0.0, {"moves": len(log)})
        )
    else:
        checks.append(
            IneqReport.precondition_unmet(
                "descent_monotone", {"moves": 0}, "no descent move accepted"
            )
        )
    value_before = torsion_energy(f0) + constants.c * measure(d0)
    value_after = torsion_energy(f1) + constants.c * measure(d_desc)
    checks.append(
        IneqReport.compare(
            "energy_comparison",
            value_after,
            value_before,
            max(2 * DEFAULT_CG_TOL, 1e-12),
            {"c": constants.c},
        )
    )
    checks.append(
        IneqReport.compare(
            "torsion_floor",
            0.5 * f0.max,
            f1.max,
            1e-12,
            {"before_max": f0.max, "after_max": f1.max},
        )
    )
    checks.append(
        IneqReport.compare(
            "volume_floor",
            constants.beta,
            measure(d_desc),
            _GEOMETRY_SLACK,
            {"beta": constants.beta, "mode": mode},
        )
    )
    checks.extend(verify_choicec(d0, d_desc, k, K, s0, s1))

    return d_out, _report(
        "bounded",
        bool(log),
        checks,
        mode=mode,
        constants=constants,
        plan=None,
        before=before,
        after=after,
        diameter_bound={
            "measured_diameter": after["diameter"],
            "measured_diam_e1": after["diam_e1"],
            "measured_perimeter": after["perimeter"],
        },
        flags=(),
        log=log,
    )
