"""Executable checkers for the spectral inequalities the surgery relies on.

Each checker returns a structured :class:`IneqReport` carrying both sides of
the inequality in the convention ``lhs <= rhs``; ``margin = rhs - lhs`` and
the check passes iff ``margin >= -tolerance``.  The verdict is derived from
the margin and never stored.  Tolerances are relative to the magnitude of
the compared quantities, and an infinite magnitude gets no relative slack.
Checkers whose hypotheses are not met report ``precondition unmet`` instead
of a failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np
from eigsurgery.domain import GridDomain, measure, unit_ball_volume
from eigsurgery.pde import (
    Spectrum,
    TorsionField,
    _bessel_first_zero,
    embed_union,
    gamma_distance,
    torsion_energy,
)

logger = logging.getLogger(__name__)

__all__ = [
    "GAMMA_STABILITY_CONSTANT",
    "IneqReport",
    "check_berezin_li_yau",
    "check_density_lemma",
    "check_gamma_stability",
    "check_positive_energy",
    "check_ratio_bound",
    "check_saint_venant",
    "check_talenti",
    "check_vdb",
    "default_m_table",
    "default_tolerance",
    "li_yau_constant",
    "max_index_below",
    "vdb_constant",
]


def default_tolerance(h: float) -> float:
    """Relative check tolerance: max(1e-6, 5h).

    Geometric quantities carry O(h) raster error, and so do spectral ones:
    the node-exclusion Laplacian puts the Dirichlet condition half a cell
    outside the raster set, so its eigenvalues are O(h) below the set's.
    On ``ball``, lambda_1 sits 2.0e-2 (relative) below the Faber-Krahn
    value at h = 1/64 and 1.0e-2 below at 1/128.  The three balls of the
    default corpus pass Saint-Venant only because each deficit is about
    half of the 5h term.
    """
    return max(1e-6, 5.0 * h)


@dataclass(frozen=True)
class IneqReport:
    """Outcome of one inequality check, in the convention ``lhs <= rhs``."""

    name: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    context: dict[str, Any] = field(default_factory=dict)
    note: str = ""

    @classmethod
    def compare(
        cls,
        name: str,
        lhs: float,
        rhs: float,
        rel_tol: float,
        context: dict[str, Any] | None = None,
        note: str = "",
    ) -> "IneqReport":
        scale = max(abs(lhs), abs(rhs))
        return cls(
            name=name,
            lhs=float(lhs),
            rhs=float(rhs),
            margin=float(rhs - lhs),
            tolerance=float(rel_tol * scale if math.isfinite(scale) else 0.0),
            context=dict(context or {}),
            note=note,
        )

    @classmethod
    def precondition_unmet(
        cls, name: str, context: dict[str, Any] | None = None, note: str = ""
    ) -> "IneqReport":
        """A vacuous report for checks whose hypotheses do not hold."""
        return cls(
            name=name,
            lhs=0.0,
            rhs=0.0,
            margin=0.0,
            tolerance=0.0,
            context=dict(context or {}),
            note=note or "precondition unmet",
        )

    @property
    def passed(self) -> bool:
        """The one pass rule: ``margin >= -tolerance`` (NaN fails)."""
        return bool(self.margin >= -self.tolerance)

    @property
    def relative_margin(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        return self.margin / scale if scale > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """The report as strict JSON values: a non-finite number is written
        as its name, ``"inf"``, ``"-inf"`` or ``"nan"``."""
        return {
            "name": self.name,
            "lhs": _json_number(self.lhs),
            "rhs": _json_number(self.rhs),
            "margin": _json_number(self.margin),
            "tolerance": _json_number(self.tolerance),
            "pass": self.passed,
            "context": self.context,
            "note": self.note,
        }


def _json_number(x: float) -> float | str:
    """``x``, or ``repr(x)`` where strict JSON has no number for it."""
    return x if math.isfinite(x) else repr(x)


def _context(d: GridDomain, **extra: Any) -> dict[str, Any]:
    ctx: dict[str, Any] = {"h": d.h, "N": d.N, "measure": measure(d)}
    ctx.update(extra)
    return ctx


def _continuum(
    name: str, d: GridDomain, lhs: float, rhs: float, **context: Any
) -> IneqReport:
    """A continuum inequality judged on the raster ``d``.

    The one place its slack is set: ``default_tolerance(d.h)``, the O(h)
    gap between the FD raster and the continuum; the context records the
    raster's ``h``, ``N`` and measure, then ``context``.
    """
    return IneqReport.compare(name, lhs, rhs, default_tolerance(d.h), _context(d, **context))


def _same_raster(d: GridDomain, f: TorsionField) -> None:
    """Raise ``ValueError`` unless ``f`` is the torsion field of raster ``d``."""
    if not f.domain.equals(d):
        raise ValueError("the torsion field is not the field of the raster checked")


def check_saint_venant(d: GridDomain, f: TorsionField) -> IneqReport:
    """Saint-Venant: the ball maximizes the L1 norm of the torsion function.

    ``integral(w) <= |O|^{(N+2)/N} * omega_N^{-2/N} / (N (N+2))``.
    """
    _same_raster(d, f)
    N = d.N
    vol = measure(d)
    omega = unit_ball_volume(N)
    rhs = vol ** ((N + 2) / N) * omega ** (-2 / N) / (N * (N + 2))
    return _continuum("saint_venant", d, f.integral, rhs)


def check_talenti(d: GridDomain, f: TorsionField) -> IneqReport:
    """Talenti: ``max w <= (|O| / omega_N)^{2/N} / (2N)``."""
    _same_raster(d, f)
    N = d.N
    rhs = (measure(d) / unit_ball_volume(N)) ** (2 / N) / (2 * N)
    return _continuum("talenti", d, f.max, rhs)


def vdb_constant(N: int) -> float:
    """The van den Berg constant ``4 + 3 N log 2``: ``max w <= it / lambda_1``."""
    return 4 + 3 * N * math.log(2)


def check_vdb(d: GridDomain, f: TorsionField, spectrum: Spectrum) -> IneqReport:
    """Double-sided torsion/eigenvalue bound.

    ``1/lambda_1 <= max w <= vdb_constant(N) / lambda_1``.  The report's
    lhs/rhs form the upper side; the lower side is folded into the margin
    (the minimum of the two margins decides the verdict) and recorded in the
    context.
    """
    _same_raster(d, f)
    lam1 = spectrum[1]
    lower = 1.0 / lam1
    upper = vdb_constant(d.N) / lam1
    up = _continuum("vdb", d, f.max, upper, lambda1=lam1, lower=lower)
    low = _continuum("vdb_lower", d, lower, f.max)
    return replace(
        up,
        margin=min(up.margin, low.margin),
        tolerance=min(up.tolerance, low.tolerance),
        note="double-sided: margin is the worse of the two sides",
    )


def li_yau_constant(N: int) -> float:
    """The explicit Berezin-Li-Yau constant ``(N/(N+2)) 4 pi^2 omega_N^{-2/N}``.

    At N=2 this evaluates to ``2 pi``.
    """
    return (N / (N + 2)) * 4 * math.pi**2 * unit_ball_volume(N) ** (-2 / N)


def check_berezin_li_yau(d: GridDomain, k: int, spectrum: Spectrum) -> IneqReport:
    """Berezin-Li-Yau: ``lambda_k >= C_N (k / |O|)^{2/N}``."""
    C = li_yau_constant(d.N)
    lhs = C * (k / measure(d)) ** (2 / d.N)
    return _continuum("berezin_li_yau", d, lhs, spectrum[k], k=k, constant=C)


def max_index_below(K: float, volume: float, N: int = 2) -> int:
    """Counting bound: at most ``(K / C_N)^{N/2} |O|`` eigenvalues below K."""
    if K <= 0:
        return 0
    return int(math.floor((K / li_yau_constant(N)) ** (N / 2) * volume))


def default_m_table(k_max: int, N: int = 2) -> dict[int, float]:
    """Eigenvalue-ratio bounds ``lambda_k / lambda_1 <= M_k``.

    ``M_1 = 1``; ``M_2 = (j_{N/2,1} / j_{N/2-1,1})^2`` is the sharp
    Ashbaugh-Benguria bound.  For k > 2 no sharp constants are available and
    the documented literature default chains the Payne-Polya-Weinberger
    neighbor bound ``lambda_{k+1}/lambda_k <= 1 + 4/N``:
    ``M_k = M_2 * (1 + 4/N)^{k-2}``.
    """
    m2 = (_bessel_first_zero(N / 2) / _bessel_first_zero(N / 2 - 1)) ** 2
    table = {1: 1.0}
    if k_max >= 2:
        table[2] = m2
    for k in range(3, k_max + 1):
        table[k] = m2 * (1 + 4 / N) ** (k - 2)
    return table


def check_ratio_bound(
    d: GridDomain,
    k: int,
    spectrum: Spectrum,
    m_table: Mapping[int, float] | None = None,
) -> IneqReport:
    """Ratio bound ``1 <= lambda_k / lambda_1 <= M_k``.

    ``M_k`` comes from ``m_table``, by default :func:`default_m_table`.
    """
    table = dict(m_table) if m_table is not None else default_m_table(k, d.N)
    if k not in table:
        raise KeyError(f"no ratio bound M_{k} available; provide it in m_table")
    ratio = spectrum[k] / spectrum[1]
    return _continuum("ratio_bound", d, ratio, table[k], k=k, M_k=table[k])


# The eigenvalue-stability constant written ``e^{1/4pi}`` in the source,
# read as ``e^(1/(4 pi))`` (about 1.0828).
GAMMA_STABILITY_CONSTANT = math.exp(1 / (4 * math.pi))


def check_gamma_stability(
    d1: GridDomain,
    d2: GridDomain,
    k: int,
    s1: Spectrum,
    s2: Spectrum,
    f1: TorsionField,
    f2: TorsionField,
) -> IneqReport:
    """Gamma-stability of eigenvalues for nested domains ``d1 <= d2``:

    ``|1/lambda_k(d1) - 1/lambda_k(d2)|
        <= 2 k^2 e^{1/(4 pi)} lambda_k(d2)^{N/2} d_gamma(d1, d2)``
    on the spectra ``s1``, ``s2`` and torsion functions ``f1``, ``f2``.
    """
    _same_raster(d1, f1)
    _same_raster(d2, f2)
    a1, a2 = embed_union(d1, d2, d1.occupancy, d2.occupancy)
    if (a1 & ~a2).any():
        raise ValueError("gamma stability requires d1 to be contained in d2")
    dg = gamma_distance(d1, d2, f1, f2)
    lhs = abs(1 / s1[k] - 1 / s2[k])
    rhs = 2 * k**2 * GAMMA_STABILITY_CONSTANT * s2[k] ** (d1.N / 2) * dg
    return _continuum("gamma_stability", d1, lhs, rhs, k=k, gamma_distance=dg)


def check_density_lemma(
    f: TorsionField,
    x: Sequence[float],
    theta: float,
    delta: float,
) -> IneqReport:
    """Density of torsion mass near a point where the function is large.

    If ``w(x) >= theta`` and ``delta <= delta_0 = sqrt(theta (N+2))`` then
    ``integral_{B_delta(x)} w >= theta omega_N delta^N / 2``.
    """
    d = f.domain
    N = d.N
    if len(x) != N:
        raise ValueError(f"the point has {len(x)} coordinates, the raster {N} axes")
    delta0 = math.sqrt(theta * (N + 2))
    ctx = _context(d, theta=theta, delta=delta, delta0=delta0)
    idx = tuple(
        int(round((xi - oi) / d.h - 0.5)) for xi, oi in zip(x, d.origin)
    )
    inside = all(0 <= i < s for i, s in zip(idx, d.shape))
    w_at_x = float(f.values[idx]) if inside else 0.0
    if delta > delta0:
        return IneqReport.precondition_unmet(
            "density_lemma", ctx, f"delta {delta:g} exceeds delta0 {delta0:g}"
        )
    if w_at_x < theta:
        return IneqReport.precondition_unmet(
            "density_lemma", ctx, f"w(x) = {w_at_x:g} below theta = {theta:g}"
        )
    grids = [d.centers(axis) for axis in range(N)]
    mesh = np.meshgrid(*grids, indexing="ij")
    dist2 = sum((m - xi) ** 2 for m, xi in zip(mesh, x))
    ball_mask = dist2 < delta**2
    integral = float(f.values[ball_mask].sum()) * d.h**N
    lhs = theta * unit_ball_volume(N) * delta**N / 2
    return _continuum(
        "density_lemma", d, lhs, integral, theta=theta, delta=delta, delta0=delta0
    )


def check_positive_energy(
    dA: GridDomain,
    f: TorsionField,
    parent_field: TorsionField,
    c: float,
    C0r0: float,
) -> IneqReport:
    """Positive penalized energy of low-torsion subsets.

    If ``A`` is a subset of the parent domain with ``max_A w_parent <= C0 r0``
    then ``E(A) + c |A| >= 0``; ``f`` is the torsion function of ``A``.
    """
    _same_raster(dA, f)
    parent = parent_field.domain
    ctx = _context(dA, c=c, C0r0=C0r0)
    if dA.cell_count == 0:
        return IneqReport.compare("positive_energy", 0.0, 0.0, 0.0, ctx, note="empty A")
    a_mask, p_mask = embed_union(dA, parent, dA.occupancy, parent.occupancy)
    if (a_mask & ~p_mask).any():
        raise ValueError("A must be a subset of the parent domain")
    _, w_parent = embed_union(dA, parent, dA.occupancy * 0.0, parent_field.values)
    w_on_A = float(w_parent[a_mask].max(initial=0.0))
    if w_on_A > C0r0:
        return IneqReport.precondition_unmet(
            "positive_energy",
            ctx,
            f"max w on A = {w_on_A:g} exceeds C0 r0 = {C0r0:g}",
        )
    value = torsion_energy(f) + c * measure(dA)
    return _continuum("positive_energy", dA, 0.0, value, c=c, C0r0=C0r0)

