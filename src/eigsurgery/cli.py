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
check or suite run failed, 2 on usage or runtime errors.  K and P must be
positive and finite, k and workers positive, and a practical factor finite
and above 1, on every path; a bad value exits 2 before any domain is made.
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
from eigsurgery.surgery import bounded_surgery, parse_mode, strip_surgery

logger = logging.getLogger(__name__)

ENV_PREFIX = "EIGSURGERY_"


def _fraction(text: str) -> float:
    """Parse a float, accepting fraction syntax like ``1/256``."""
    if "/" in text:
        num, den = (float(part) for part in text.split("/", 1))
        return num / den if den else math.nan
    return float(text)


def _positive(cast: Callable[[str], Any]) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        value = cast(text)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"expected a positive finite value, got {text!r}")
        return value

    return parse


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def _optional(cast: Callable[[str], Any]) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        return None if text.lower() in ("none", "") else cast(text)

    return parse


def _mode(text: str) -> str:
    parse_mode(text)
    return text


_spacing = _positive(_fraction)

# name -> (cast from string, default, help); cases are significant (K vs k).
_SETTINGS: dict[str, tuple[Callable[[str], Any], Any, str]] = {
    "K": (_positive(float), 100.0, "spectral threshold"),
    "k": (_positive(int), 3, "number of eigenvalues under control"),
    "P": (_optional(_positive(float)), None,
          "perimeter budget (default: 1.02 x measured perimeter)"),
    "h": (_spacing, 1 / 256, "grid spacing, e.g. 1/256"),
    "seed": (_non_negative, 0, "seed for generators and eigensolver start vectors"),
    "mode": (_mode, "faithful", "faithful | practical:<factor>"),
    "out": (_optional(str), None, "output directory"),
    "workers": (_positive(int), 1,
                "thread-pool size for corpus runs, capped at the usable CPUs"),
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
    """Write each setting the subcommand declares onto ``args``, cast once.

    A setting takes the first of its flag, its ``EIGSURGERY_`` variable and
    its ``--config`` entry that is present, else its default.  A value that
    fails its cast raises ``ValueError`` prefixed with the setting's name.
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
    for key, (cast, default, _) in _SETTINGS.items():
        if not hasattr(args, key):
            continue
        sources = (getattr(args, key), os.environ.get(ENV_PREFIX + key), file.get(key))
        text = next((t for t in sources if t is not None), None)
        try:
            setattr(args, key, default if text is None else cast(text))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc


# --------------------------------------------------------------------------
# argument plumbing


def _add_setting_flags(p: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for name in names:
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, default=None, help=_SETTINGS[name][2])


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


def _domain_from_args(args: argparse.Namespace) -> tuple[str, GridDomain]:
    if args.domain and args.spec:
        raise ValueError("give either --spec or --domain, not both")
    if args.domain:
        path = Path(args.domain)
        return args.name or path.stem, load_domain(path)
    if args.spec:
        spec = CorpusSpec(
            name=args.name or args.spec,
            generator=args.spec,
            h=args.h,
            seed=args.seed,
            params=_parse_params(args.param),
        )
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
    if args.out is None:
        return None
    path = Path(args.out)
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
    s = eigenvalues(d, k=args.k, seed=args.seed)
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
        f, s = solve_raster(d, k=BATTERY_K, seed=args.seed)
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


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        K=args.K,
        k=args.k,
        P=args.P,
        mode=args.mode,
        seed=args.seed,
        workers=args.workers,
        out_dir=args.out,
    )


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
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="ascii",
        )
        save_domain(result, out / f"{name}-after")
        logger.info("wrote %s", report_path)
    return 0 if report.passed else 1


def _cmd_surgery(args: argparse.Namespace) -> int:
    if args.corpus:
        result = run_suite(_corpus(args), _run_config(args))
        print(summary_table(result.rows))
        return result.exit_code
    name, d = _domain_from_args(args)
    f, s = solve_raster(d, k=args.k, seed=args.seed)
    result, report = strip_surgery(
        f, s, K=args.K, k=args.k, P=args.P, mode=args.mode, seed=args.seed
    )
    return _finish_surgery(name, result, report, _out_dir(args))


def _cmd_bounded_surgery(args: argparse.Namespace) -> int:
    name, d = _domain_from_args(args)
    result, report = bounded_surgery(
        d, K=args.K, k=args.k, mode=args.mode, seed=args.seed
    )
    return _finish_surgery(name, result, report, _out_dir(args))


def _cmd_study(args: argparse.Namespace) -> int:
    try:
        h_list = [_spacing(part) for part in args.h_list.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"h_list: {exc}") from exc
    if not h_list:
        raise ValueError("h_list must contain at least one grid spacing")
    spec = CorpusSpec(
        name=args.name or args.spec,
        generator=args.spec,
        h=h_list[0],
        seed=args.seed,
        params=_parse_params(args.param),
    )
    study = convergence_study(spec, h_list, seed=args.seed)
    _print_json(study)
    out = _out_dir(args)
    if out is not None:
        (out / f"{spec.name}-study.json").write_text(
            json.dumps(study, sort_keys=True, indent=2) + "\n", encoding="ascii"
        )
    return 0


# --------------------------------------------------------------------------
# parser


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

    p = sub.add_parser(
        "gen",
        parents=[common],
        help="rasterize a domain and save it as PBM plus a JSON sidecar",
    )
    _add_domain_source(p)
    _add_setting_flags(p, ["h", "seed", "out"])
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "torsion",
        parents=[common], help="solve the torsion problem on a domain")
    _add_domain_source(p)
    _add_setting_flags(p, ["h", "seed", "out"])
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser(
        "spectrum",
        parents=[common], help="lowest Dirichlet eigenvalues of a domain")
    _add_domain_source(p)
    _add_setting_flags(p, ["h", "seed", "k", "out"])
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "check",
        parents=[common], help="run the inequality battery")
    _add_domain_source(p)
    p.add_argument("--corpus", help="run on a whole corpus: default or surgery")
    _add_setting_flags(p, ["h", "seed"])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "surgery",
        parents=[common], help="strip surgery on a domain or corpus")
    _add_domain_source(p)
    p.add_argument("--corpus", help="run the batch suite: default or surgery")
    _add_setting_flags(p, ["K", "k", "P", "h", "seed", "mode", "workers", "out"])
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser(
        "bounded-surgery",
        parents=[common], help="penalized-energy descent on a domain"
    )
    _add_domain_source(p)
    _add_setting_flags(p, ["K", "k", "h", "seed", "mode", "out"])
    p.set_defaults(func=_cmd_bounded_surgery)

    p = sub.add_parser(
        "study",
        parents=[common], help="grid-convergence study for one generator")
    p.add_argument("--spec", required=True, help="domain generator name")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--name", help="domain id (default: the generator name)")
    p.add_argument(
        "--h-list",
        default="1/64,1/128,1/256",
        help="comma-separated grid spacings, e.g. 1/64,1/128,1/256",
    )
    _add_setting_flags(p, ["seed", "out"])
    p.set_defaults(func=_cmd_study)

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
