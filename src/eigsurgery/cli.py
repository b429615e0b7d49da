"""Command-line interface.

Subcommands: ``gen``, ``torsion``, ``spectrum``, ``check``, ``surgery``,
``bounded-surgery``, ``study``.  Repeated settings (K, k, P, h, seed, mode,
workers, output directory) resolve once, before any work, in precedence
order:

1. command-line flags,
2. ``EIGSURGERY_``-prefixed environment variables (variable name = setting
   name with its case preserved, e.g. ``EIGSURGERY_K``, ``EIGSURGERY_k``,
   ``EIGSURGERY_mode``, ``EIGSURGERY_workers``),
3. a ``key=value`` config file passed with ``--config`` (``#`` comments),
4. built-in defaults.

Grid spacings accept fractions (``--h 1/256``).  Results print as JSON with
sorted keys on stdout; diagnostics go to stderr.  Exit codes: 0 on success
(for ``check``/``surgery``/``bounded-surgery``: all checks passed), 1 when a
check or suite run failed, 2 on usage or runtime errors.  Every setting but
``h`` is a :class:`~eigsurgery.harness.RunConfig` field (``out`` is
``out_dir``), and ``RunConfig`` holds its default and its rule; a bad value
exits 2 before any domain is made, on every path.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from eigsurgery.corpus import (
    CorpusSpec,
    default_corpus,
    generate,
    surgery_corpus,
)
from eigsurgery.domain import (
    GridDomain,
    load_domain,
    measure,
    perimeter,
    save_domain,
)
from eigsurgery.harness import (
    BATTERY_K,
    RunConfig,
    convergence_study,
    inequality_battery,
    run_suite,
    summary_table,
)
from eigsurgery.inequalities import IneqReport
from eigsurgery.pde import (
    eigenvalues,
    save_field,
    save_spectrum,
    solve_raster,
    solve_torsion,
    torsion_energy,
)
from eigsurgery.surgery import bounded_surgery, strip_surgery

logger = logging.getLogger(__name__)

ENV_PREFIX = "EIGSURGERY_"


def _spacing(text: str) -> float:
    """Parse a positive finite grid spacing, accepting fractions like ``1/256``."""
    if "/" in text:
        num, den = (float(part) for part in text.split("/", 1))
        value = num / den if den else math.nan
    else:
        value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"expected a positive finite value, got {text!r}")
    return value


def _optional(cast: Callable[[str], Any]) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        return None if text.lower() in ("none", "") else cast(text)

    return parse


DEFAULT_H = 1 / 256

# name -> (cast from text, help); cases are significant (K vs k).  Every name
# but h is a RunConfig field, out standing for out_dir.
_SETTINGS: dict[str, tuple[Callable[[str], Any], str]] = {
    "K": (float, "spectral threshold"),
    "k": (int, "number of eigenvalues under control"),
    "P": (_optional(float), "perimeter budget (default: 1.02 x measured perimeter)"),
    "h": (_spacing, "grid spacing, e.g. 1/256"),
    "seed": (int, "seed for generators and eigensolver start vectors"),
    "mode": (str, "faithful | practical:<factor>"),
    "out": (_optional(str), "output directory"),
    "workers": (int, "thread-pool size for corpus runs, capped at the usable CPUs"),
}


def _read_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ValueError(
                f"{path}:{lineno}: unknown setting {key!r}; "
                f"choose from {sorted(_SETTINGS)}"
            )
        values[key] = value
    return values


def _resolve_settings(args: argparse.Namespace) -> None:
    """Cast each setting the subcommand declares, once, and admit them all.

    A setting takes the first of its flag, its ``EIGSURGERY_`` variable and
    its ``--config`` entry that is present, else its default.  The spacing
    goes to ``args.h`` and the rest to one :class:`RunConfig` in
    ``args.run``.  A value that fails its cast or its rule raises
    ``ValueError`` that starts with the setting's name.
    """
    unknown = sorted(
        name
        for name in os.environ
        if name.startswith(ENV_PREFIX) and name[len(ENV_PREFIX) :] not in _SETTINGS
    )
    if unknown:
        raise ValueError(
            f"unknown environment setting(s) {unknown}; choose from "
            f"{sorted(ENV_PREFIX + key for key in _SETTINGS)}"
        )
    file = _read_config_file(args.config) if args.config else {}
    values: dict[str, Any] = {}
    for key, (cast, _) in _SETTINGS.items():
        if not hasattr(args, key):
            continue
        sources = (getattr(args, key), os.environ.get(ENV_PREFIX + key), file.get(key))
        text = next((t for t in sources if t is not None), None)
        if text is None:
            continue
        try:
            values["out_dir" if key == "out" else key] = cast(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    args.h = values.pop("h", DEFAULT_H)
    args.run = RunConfig(**values)


# --------------------------------------------------------------------------
# argument plumbing


def _add_domain_source(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--spec",
        help="domain generator: ball, square, dumbbell, tube, blob_union, perforated",
    )
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="generator parameter (repeatable); values parse as JSON, else strings",
    )
    p.add_argument("--name", help="domain id (default: the generator name)")
    p.add_argument(
        "--domain", help="path stem of a domain written by gen (.pbm + .json)"
    )


def _parse_params(pairs: Sequence[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects KEY=VALUE, got {pair!r}")
        key, text = pair.split("=", 1)
        try:
            params[key] = json.loads(text)
        except json.JSONDecodeError:
            params[key] = text
    return params


def _spec(args: argparse.Namespace, h: float) -> CorpusSpec:
    """The corpus spec named by ``--spec``, ``--param`` and ``--name``, at ``h``."""
    return CorpusSpec(
        name=args.name or args.spec,
        generator=args.spec,
        h=h,
        seed=args.run.seed,
        params=_parse_params(args.param),
    )


def _domain_from_args(args: argparse.Namespace) -> tuple[str, GridDomain]:
    if args.domain and args.spec:
        raise ValueError("give either --spec or --domain, not both")
    if args.domain:
        path = Path(args.domain)
        return args.name or path.stem, load_domain(path)
    if args.spec:
        spec = _spec(args, args.h)
        return spec.name, generate(spec)
    raise ValueError("a domain is required: pass --spec or --domain")


def _corpus(args: argparse.Namespace) -> list[CorpusSpec]:
    if args.spec or args.domain or args.param or args.name:
        raise ValueError("--corpus takes no --spec, --domain, --param or --name")
    if args.corpus == "default":
        return default_corpus(args.h)
    if args.corpus == "surgery":
        return surgery_corpus(args.h)
    raise ValueError(f"unknown corpus {args.corpus!r}; choose default or surgery")


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _print_report_line(r: IneqReport) -> None:
    verdict = "PASS" if r.passed else "FAIL"
    note = f"  ({r.note})" if r.note else ""
    print(
        f"{verdict} {r.name}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} "
        f"margin={r.margin:.6g}{note}"
    )


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.run.out_dir is None:
        return None
    path = Path(args.run.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# --------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    name, d = _domain_from_args(args)
    info: dict[str, Any] = {
        "id": name,
        "h": d.h,
        "cells": int(d.occupancy.sum()),
        "measure": measure(d),
        "perimeter": perimeter(d),
    }
    out = _out_dir(args)
    if out is not None:
        info["files"] = [str(p) for p in save_domain(d, out / name)]
    _print_json(info)
    return 0


def _cmd_torsion(args: argparse.Namespace) -> int:
    name, d = _domain_from_args(args)
    f = solve_torsion(d)
    info: dict[str, Any] = {
        "id": name,
        "max": f.max,
        "integral": f.integral,
        "energy": torsion_energy(f),
        "residual": f.residual,
    }
    out = _out_dir(args)
    if out is not None:
        bin_path, hdr_path = save_field(f, out / f"{name}-torsion")
        info["files"] = [str(bin_path), str(hdr_path)]
    _print_json(info)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    name, d = _domain_from_args(args)
    s = eigenvalues(d, k=args.run.k, seed=args.run.seed)
    info: dict[str, Any] = {
        "id": name,
        "k": s.k,
        "eigenvalues": list(s.eigenvalues),
        "shift": s.shift,
        "inertia_count": s.inertia_count,
    }
    out = _out_dir(args)
    if out is not None:
        info["files"] = [str(save_spectrum(s, out / f"{name}-spectrum.json"))]
    _print_json(info)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.corpus:
        specs = _corpus(args)
        domains = ((spec.name, generate(spec)) for spec in specs)
    else:
        domains = [_domain_from_args(args)]
    failed = 0
    for name, d in domains:
        f, s = solve_raster(d, k=BATTERY_K, seed=args.run.seed)
        sanity, battery = inequality_battery(d, f, s)
        reports = sanity + battery
        ok = all(r.passed for r in reports)
        failed += not ok
        if args.corpus:
            print(f"{'PASS' if ok else 'FAIL'} {name} "
                  f"({sum(r.passed for r in reports)}/{len(reports)} checks)")
        for r in reports:
            if not (args.corpus and r.passed):
                _print_report_line(r)
    if args.corpus:
        print(f"{len(specs) - failed}/{len(specs)} domains passed")
    return 0 if failed == 0 else 1


def _finish_surgery(
    name: str,
    result: GridDomain,
    report: Any,
    out: Path | None,
) -> int:
    for r in report.checks:
        _print_report_line(r)
    if report.flags:
        print("flags: " + ", ".join(report.flags))
    print(f"verdict: {report.verdict}")
    if out is not None:
        report_path = out / f"{name}-report.json"
        report_path.write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n",
            encoding="ascii",
        )
        save_domain(result, out / f"{name}-after")
        logger.info("wrote %s", report_path)
    return 0 if report.passed else 1


def _cmd_surgery(args: argparse.Namespace) -> int:
    run = args.run
    if args.corpus:
        result = run_suite(_corpus(args), run)
        print(summary_table(result.rows))
        return result.exit_code
    name, d = _domain_from_args(args)
    f, s = solve_raster(d, k=run.k, seed=run.seed)
    result, report = strip_surgery(
        f, s, K=run.K, k=run.k, P=run.P, mode=run.mode, seed=run.seed
    )
    return _finish_surgery(name, result, report, _out_dir(args))


def _cmd_bounded_surgery(args: argparse.Namespace) -> int:
    run = args.run
    name, d = _domain_from_args(args)
    result, report = bounded_surgery(d, K=run.K, k=run.k, mode=run.mode, seed=run.seed)
    return _finish_surgery(name, result, report, _out_dir(args))


def _cmd_study(args: argparse.Namespace) -> int:
    try:
        h_list = [_spacing(part) for part in args.h_list.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"h_list: {exc}") from exc
    if not h_list:
        raise ValueError("h_list must contain at least one grid spacing")
    spec = _spec(args, h_list[0])
    study = convergence_study(spec, h_list, seed=args.run.seed)
    _print_json(study)
    out = _out_dir(args)
    if out is not None:
        (out / f"{spec.name}-study.json").write_text(
            json.dumps(study, sort_keys=True, indent=2) + "\n", encoding="ascii"
        )
    return 0


# --------------------------------------------------------------------------
# parser

# name, help, handler, settings, whether it takes --corpus
_COMMANDS = (
    ("gen", "rasterize a domain and save it as PBM plus a JSON sidecar",
     _cmd_gen, ("h", "seed", "out"), False),
    ("torsion", "solve the torsion problem on a domain",
     _cmd_torsion, ("h", "seed", "out"), False),
    ("spectrum", "lowest Dirichlet eigenvalues of a domain",
     _cmd_spectrum, ("h", "seed", "k", "out"), False),
    ("check", "run the inequality battery",
     _cmd_check, ("h", "seed"), True),
    ("surgery", "strip surgery on a domain or corpus",
     _cmd_surgery, ("K", "k", "P", "h", "seed", "mode", "workers", "out"), True),
    ("bounded-surgery", "penalized-energy descent on a domain",
     _cmd_bounded_surgery, ("K", "k", "h", "seed", "mode", "out"), False),
    ("study", "grid-convergence study for one generator",
     _cmd_study, ("seed", "out"), False),
)  # fmt: skip


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigsurgery",
        description="Rasterized-domain surgery with verified spectral guarantees.",
    )
    parser.add_argument("--config", help="key=value settings file")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="-v info, -vv debug"
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, settings, takes_corpus in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "study":
            p.add_argument("--spec", required=True, help="domain generator name")
            p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
            p.add_argument("--name", help="domain id (default: the generator name)")
            p.add_argument(
                "--h-list",
                default="1/64,1/128,1/256",
                help="comma-separated grid spacings, e.g. 1/64,1/128,1/256",
            )
        else:
            _add_domain_source(p)
        if takes_corpus:
            p.add_argument("--corpus", help="run on a whole corpus: default or surgery")
        for key in settings:
            p.add_argument("--" + key, dest=key, default=None, help=_SETTINGS[key][1])
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = max(logging.WARNING - 10 * args.verbose, logging.DEBUG)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        _resolve_settings(args)
        return args.func(args)
    except Exception as exc:  # any runtime error is exit 2, never a traceback
        logger.error("%s", exc)
        logger.debug("traceback of the error above", exc_info=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
