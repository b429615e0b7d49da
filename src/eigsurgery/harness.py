"""Batch runner: corpus suites, report files, and grid-convergence studies.

A suite run takes a list of corpus specs and a shared :class:`RunConfig`,
generates each domain, gates it through the basic torsion/eigenvalue sanity
checks, evaluates the inequality battery, performs strip surgery, and emits
one report row per domain.  Failures are isolated per domain: a crash in one
generator or solver becomes an error row and the rest of the corpus still
runs.  Rows are merged in corpus order (by domain id), never in completion
order, so repeated runs of the same corpus produce byte-identical reports.

Reports are persisted as append-only JSON lines plus a summary CSV that is
regenerated from the full JSONL log after every append.  No timestamps or
hostnames are recorded anywhere.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace as dc_replace
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Mapping, Sequence

from eigsurgery.corpus import CorpusSpec, generate
from eigsurgery.domain import GridDomain, measure, perimeter
from eigsurgery.inequalities import (
    IneqReport,
    check_berezin_li_yau,
    check_ratio_bound,
    check_saint_venant,
    check_talenti,
    check_vdb,
)
from eigsurgery.pde import Spectrum, TorsionField, solve_raster
from eigsurgery.surgery import SurgeryReport, parse_mode, strip_surgery

logger = logging.getLogger(__name__)

# Eigenvalues the battery reads: Berezin-Li-Yau orders 1..5, ratio order 2.
BATTERY_K = 5

__all__ = [
    "BATTERY_K",
    "RunConfig",
    "SuiteResult",
    "inequality_battery",
    "run_one",
    "run_suite",
    "write_reports",
    "summary_table",
    "convergence_study",
    "richardson",
]


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Shared settings for every run in a batch: each default and each rule.

    ``K`` and ``P`` are positive finite real numbers, ``k`` and ``workers``
    positive integers and ``seed`` a non-negative integer; bools are not
    numbers here.  ``P = None`` derives the perimeter budget per domain as
    1.02 times the measured perimeter of the unit-measure normalization, so
    every corpus member is admissible by construction.  ``mode`` is either
    ``"faithful"`` or ``"practical:<factor>"`` with a finite factor above 1
    (the rule of :func:`~eigsurgery.surgery.parse_mode`); the factor scales
    only the energy-penalty constant and is recorded in each report.
    ``out_dir`` is a directory path or ``None``.  A bad value raises
    ``ValueError`` whose message starts with the setting's name.  The strip
    half-width ``r0`` is not a setting: the constant chain derives it from
    the grid and the domain's extent.
    """

    K: float = 100.0
    k: int = 3
    P: float | None = None
    mode: str = "faithful"
    seed: int = 0
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self) -> None:
        _admit("K", self.K, Real, 0, "a positive finite number")
        _admit("k", self.k, Integral, 0, "a positive integer")
        if self.P is not None:
            _admit("P", self.P, Real, 0, "a positive finite number or None")
        _admit("seed", self.seed, Integral, -1, "a non-negative integer")
        _admit("workers", self.workers, Integral, 0, "a positive integer")
        if not isinstance(self.mode, str):
            raise ValueError(f"mode: expected a string, got {self.mode!r}")
        try:
            parse_mode(self.mode)
        except ValueError as exc:
            raise ValueError(f"mode: {exc}") from exc
        if not isinstance(self.out_dir, (str, type(None))):
            raise ValueError(f"out_dir: expected a path string, got {self.out_dir!r}")


def _admit(name: str, value: Any, kind: type, above: int, wanted: str) -> None:
    """Raise unless ``value`` is a non-bool ``kind`` in ``(above, inf)``."""
    if isinstance(value, bool) or not isinstance(value, kind) or not (
        above < value < math.inf
    ):
        raise ValueError(f"{name}: expected {wanted}, got {value!r}")


# --------------------------------------------------------------------------
# single-domain run


def inequality_battery(
    d: GridDomain, f: TorsionField, s: Spectrum
) -> tuple[list[IneqReport], list[IneqReport]]:
    """The sanity gate and the inequality battery of ``d``.

    Takes the torsion function ``f`` of ``d`` and a spectrum ``s`` of it with
    at least :data:`BATTERY_K` eigenvalues.  Returns the gate (Saint-Venant,
    Talenti, torsion vs lambda_1 bracket) and the battery (Berezin-Li-Yau of
    orders 1..5, eigenvalue ratio of order 2).
    """
    sanity = [
        check_saint_venant(d, f),
        check_talenti(d, f),
        check_vdb(d, f, spectrum=s),
    ]
    battery = [check_berezin_li_yau(d, j, spectrum=s) for j in range(1, BATTERY_K + 1)]
    battery.append(check_ratio_bound(d, 2, spectrum=s))
    return sanity, battery


def run_one(spec: CorpusSpec, config: RunConfig = RunConfig()) -> dict[str, Any]:
    """Run the full pipeline on one corpus spec and return its report row.

    Pipeline: generate -> sanity gate (Saint-Venant, Talenti, torsion vs
    lambda_1 bracket) -> inequality battery (Berezin-Li-Yau, eigenvalue
    ratios) -> strip surgery.  A failed sanity check stops the row before
    surgery.  Exceptions propagate; :func:`run_suite` isolates them.
    """
    d = generate(spec)
    f, s = solve_raster(d, k=max(config.k, BATTERY_K), seed=config.seed)
    sanity, checks = inequality_battery(d, f, s)
    geometry = {
        "measure": measure(d),
        "perimeter": perimeter(d),
        "spectrum": list(s.eigenvalues),
    }
    if not all(r.passed for r in sanity):
        logger.error("domain %s failed the sanity gate", spec.name)
        return _row(spec, "sanity_failed", geometry=geometry, sanity=sanity)
    _, report = strip_surgery(
        f, s, K=config.K, k=config.k, P=config.P, mode=config.mode, seed=config.seed
    )
    return _row(
        spec,
        "ok",
        geometry=geometry,
        sanity=sanity,
        inequalities=checks,
        surgery=report,
    )


def _row(
    spec: CorpusSpec,
    status: str,
    *,
    error: str | None = None,
    geometry: dict[str, Any] | None = None,
    sanity: Sequence[IneqReport] = (),
    inequalities: Sequence[IneqReport] = (),
    surgery: SurgeryReport | None = None,
) -> dict[str, Any]:
    """The one shape of a report row: ok, sanity-failed and error rows alike.

    A row passes iff it reached surgery and every check it holds passes.
    """
    checks = (*sanity, *inequalities)
    return {
        "id": spec.name,
        "spec": asdict(spec),
        "status": status,
        "error": error,
        "geometry": geometry,
        "sanity": [r.to_dict() for r in sanity],
        "inequalities": [r.to_dict() for r in inequalities],
        "surgery": None if surgery is None else surgery.to_dict(),
        "passed": surgery is not None and surgery.passed and all(r.passed for r in checks),
    }


def _safe_run(spec: CorpusSpec, config: RunConfig) -> dict[str, Any]:
    try:
        return run_one(spec, config)
    except Exception as exc:  # per-domain isolation
        logger.exception("domain %s failed", spec.name)
        return _row(spec, "error", error=f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# suite


@dataclass(frozen=True)
class SuiteResult:
    """Rows (one dict per corpus member, in corpus order) and their exit code."""

    rows: tuple[dict[str, Any], ...]

    @property
    def exit_code(self) -> int:
        """0 when every row passes (an empty corpus passes), else 1."""
        return 0 if all(r["passed"] for r in self.rows) else 1

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in self.rows
        )


def _usable_cpus() -> int:
    """The CPUs this process may run on (all CPUs where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_suite(
    specs: Sequence[CorpusSpec], config: RunConfig = RunConfig()
) -> SuiteResult:
    """Run every corpus member and merge the rows in corpus order.

    Returns exit code 0 when every row passes (an empty corpus passes), and
    1 when any row errors or fails a check.  The members are processed by a
    thread pool of ``config.workers`` threads, capped at one per CPU this
    process may run on: band factors, band solves and band inertia counts
    release the GIL, so threads overlap them, while more threads than cores
    only add factor memory.  A raster above the band-size bound gets the
    sparse kind of :class:`pde.Factor`, whose solves hold the GIL, so its
    torsion solve and Lanczos steps do not overlap.  One thread is the
    serial run.  Rows are merged by corpus position, never by completion
    order.  When ``config.out_dir`` is set the rows are appended to
    ``reports.jsonl`` there and ``summary.csv`` is regenerated from the
    whole log.
    """
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate domain ids in corpus: {dupes}")

    workers = min(config.workers, _usable_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        result = SuiteResult(rows=tuple(pool.map(lambda sp: _safe_run(sp, config), specs)))

    if logger.isEnabledFor(logging.INFO):
        logger.info("suite finished: %d rows, exit %d\n%s",
                    len(result.rows), result.exit_code, summary_table(result.rows))
    if config.out_dir is not None:
        write_reports(result, config.out_dir)
    return result


_CSV_COLUMNS = (
    "id",
    "status",
    "passed",
    "measure",
    "perimeter",
    "lambda_1",
    "checks_passed",
    "checks_total",
    "surgery_verdict",
    "flags",
    "error",
)


def _summary_record(row: Mapping[str, Any]) -> dict[str, Any]:
    geom = row.get("geometry") or {}
    spectrum = geom.get("spectrum") or []
    checks = list(row.get("sanity") or []) + list(row.get("inequalities") or [])
    surgery = row.get("surgery") or {}
    checks += list(surgery.get("checks") or [])
    return {
        "id": row["id"],
        "status": row["status"],
        "passed": row["passed"],
        "measure": geom.get("measure", ""),
        "perimeter": geom.get("perimeter", ""),
        "lambda_1": spectrum[0] if spectrum else "",
        "checks_passed": sum(1 for c in checks if c.get("pass")),
        "checks_total": len(checks),
        "surgery_verdict": surgery.get("verdict", ""),
        "flags": ";".join(surgery.get("flags") or []),
        "error": row.get("error") or "",
    }


def summary_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Fixed-width text table of the per-domain outcomes."""
    recs = [_summary_record(r) for r in rows]
    cols = ("id", "status", "passed", "checks_passed", "checks_total",
            "surgery_verdict", "flags")
    cells = [cols] + [[str(rec[c]) for c in cols] for rec in recs]
    widths = [max(len(line[i]) for line in cells) for i in range(len(cols))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in cells
    )


def write_reports(result: SuiteResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Append rows to ``reports.jsonl`` and regenerate ``summary.csv``.

    The JSONL log is the authoritative record and is only ever appended to;
    the CSV is rebuilt from the full log so the two never diverge.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path = out / "reports.jsonl"
    with jsonl_path.open("a", encoding="ascii") as fh:
        fh.write(result.to_jsonl())

    all_rows = [
        json.loads(line)
        for line in jsonl_path.read_text(encoding="ascii").splitlines()
        if line.strip()
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in all_rows:
        writer.writerow(_summary_record(row))
    csv_path = out / "summary.csv"
    csv_path.write_text(buf.getvalue(), encoding="ascii")
    return jsonl_path, csv_path


# --------------------------------------------------------------------------
# convergence study


def richardson(h_values: Sequence[float], values: Sequence[float]) -> dict[str, float]:
    """Observed order and extrapolated limit from three refined values.

    Requires three grid spacings with a uniform refinement ratio r (h0/h1 ==
    h1/h2).  Order p = log((v0 - v1) / (v1 - v2)) / log(r); the limit is
    v2 + (v2 - v1) / (r^p - 1).  Raises ``ValueError`` when the differences
    change sign, vanish or are equal (order 0).
    """
    if len(h_values) != 3 or len(values) != 3:
        raise ValueError("richardson extrapolation needs exactly three levels")
    h0, h1, h2 = h_values
    if not h0 > h1 > h2 > 0:
        raise ValueError(f"grid spacings must decrease, got {h_values}")
    r = h0 / h1
    if abs(h1 / h2 - r) > 1e-9 * r:
        raise ValueError(f"refinement ratio must be uniform, got {h_values}")
    v0, v1, v2 = values
    d01, d12 = v0 - v1, v1 - v2
    if d12 == 0 or d01 * d12 <= 0:
        raise ValueError(
            "differences are not monotone with refinement; cannot estimate order"
        )
    p = math.log(d01 / d12) / math.log(r)
    if r**p == 1.0:
        raise ValueError("equal differences give order 0; cannot extrapolate a limit")
    limit = v2 + (v2 - v1) / (r**p - 1.0)
    return {"order": p, "limit": limit}


_STUDY_FIELDS = ("lambda_1", "torsion_max", "torsion_integral")


def convergence_study(
    spec: CorpusSpec,
    h_list: Sequence[float],
    seed: int = 0,
) -> dict[str, Any]:
    """Re-rasterize one spec on several grids and extrapolate the limits.

    Returns a dict with one row per grid spacing (coarse to fine) holding
    lambda_1, the torsion maximum and the torsion integral, plus a Richardson
    extrapolation over the three finest levels when at least three spacings
    are given (fields that are non-monotone under refinement extrapolate to
    ``None``).
    """
    hs = sorted(set(h_list), reverse=True)
    if not hs:
        raise ValueError("h_list must contain at least one grid spacing")
    rows: list[dict[str, Any]] = []
    for h in hs:
        d = generate(dc_replace(spec, h=h))
        f, s = solve_raster(d, k=1, seed=seed)
        rows.append(
            {
                "h": h,
                "measure": measure(d),
                "lambda_1": s[1],
                "torsion_max": f.max,
                "torsion_integral": f.integral,
            }
        )
        logger.info("study %s h=%g lambda_1=%.9g", spec.name, h, s[1])

    extrapolation: dict[str, Any] | None = None
    if len(rows) >= 3:
        tail = rows[-3:]
        hs3 = [row["h"] for row in tail]
        extrapolation = {"h_values": hs3}
        for name in _STUDY_FIELDS:
            try:
                extrapolation[name] = richardson(hs3, [row[name] for row in tail])
            except ValueError:
                extrapolation[name] = None
    return {"spec": asdict(spec), "rows": rows, "extrapolation": extrapolation}
