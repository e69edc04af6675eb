"""Command-line interface.

Subcommands:
  crb      bound for one cat state (text or JSON report)
  verify   sweep closed-form families against the numeric engine
  scan     (theta1, theta2) grid scan to CSV
  find-hl  search for Heisenberg-limit points

Angles accept a trailing ``pi`` (``0.75pi``, ``pi``, ``-0.5pi``), which
always means multiples of pi; bare numbers are radians unless --pi-units
is set. Options may also come from a ``key=value`` config file via
--config; explicit flags win over config values.

Exit codes: 0 success, 1 usage/config error, 2 degenerate cat,
3 verification failure, 4 I/O error, 5 no Heisenberg-limit point found.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, Mapping

from .catstate import CatParams, DegenerateCatError, normalization
from .closedform import FAMILIES, ClosedFormCase, sweep_family
from .coherent import CoherentParams, coherent_overlap
from .dicke import SpinJ
from .metrology import Generator, cat_crb
from .scan import (
    MAX_RESOLUTION,
    GridResult,
    HlSearchSpec,
    NoHlFoundError,
    ScanSpec,
    find_hl,
    grid_scan,
)

__all__ = ["main", "parse_angle"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this CLI reserves 2 for
    # degenerate cats, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_angle(token: str, pi_units: bool = False) -> float:
    """'0.75pi' -> 0.75*pi regardless of units; '0.75' -> radians, or
    multiples of pi when pi_units is set."""
    s = str(token).strip().lower()
    try:
        if s.endswith("pi"):
            head = s[:-2].strip()
            if head in ("", "+"):
                factor = 1.0
            elif head == "-":
                factor = -1.0
            else:
                factor = float(head)
            return factor * math.pi
        return float(s) * (math.pi if pi_units else 1.0)
    except ValueError:
        raise _UsageError(f"invalid angle {token!r}") from None


def _parse_j(text: str) -> SpinJ:
    try:
        return SpinJ.from_j(float(text))
    except ValueError as exc:
        raise _UsageError(f"invalid spin {text!r}: {exc}") from None


def _parse_generator(text: str) -> Generator:
    try:
        return Generator[text.strip().upper()]
    except KeyError:
        raise _UsageError(f"generator must be x, y or z, got {text!r}") from None


def _parse_family(text: str) -> ClosedFormCase:
    try:
        return ClosedFormCase(text.strip().lower())
    except ValueError:
        raise _UsageError(f"unknown family {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"invalid integer {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"invalid number {text!r}") from None


def _parse_format(text: str) -> str:
    fmt = text.strip().lower()
    if fmt not in ("text", "json"):
        raise _UsageError(f"format must be text or json, got {text!r}")
    return fmt


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"invalid boolean {text!r}")


_ANGLE_DESTS = ("theta1", "theta2", "phi1", "phi2")

_CONVERTERS: dict[str, Callable[[str], object]] = {
    "j": _parse_j,
    "generator": _parse_generator,
    "family": _parse_family,
    "res": _parse_int,
    "seeds": _parse_int,
    "cap": _parse_float,
    "tol": _parse_float,
    "tolerance": _parse_float,
    "format": _parse_format,
    "output": str,
    "all": _parse_bool,
    "pi_units": _parse_bool,
}
_CONVERTERS.update({name: str for name in _ANGLE_DESTS})

_DEFAULTS: dict[str, dict[str, object]] = {
    "crb": {"phi1": "0", "phi2": "0", "format": "text", "pi_units": False},
    "verify": {"res": 50, "tol": 1e-9, "all": False, "family": None},
    "scan": {
        "phi1": "0",
        "phi2": "0",
        "res": 201,
        "cap": 20.0,
        "output": None,
        "pi_units": False,
    },
    "find-hl": {
        "tolerance": 1e-3,
        "seeds": 16,
        "output": None,
        "format": "text",
    },
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "crb": ("j", "generator", "theta1", "theta2"),
    "verify": (),
    "scan": ("j", "generator"),
    "find-hl": ("j", "generator"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="spincat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="key=value defaults file")
        p.add_argument(
            "--pi-units",
            dest="pi_units",
            action="store_true",
            default=None,
            help="treat bare angle numbers as multiples of pi",
        )

    p = sub.add_parser("crb", help="bound for one cat state")
    add_common(p)
    p.add_argument("--j", help="spin (0.5, 1, 1.5, ...)")
    p.add_argument("--generator", "--gen", dest="generator", help="x, y or z")
    for name in _ANGLE_DESTS:
        p.add_argument(f"--{name}", help=f"{name} angle")
    p.add_argument("--format", help="text or json")

    p = sub.add_parser("verify", help="sweep closed forms against the engine")
    p.add_argument("--config", help="key=value defaults file")
    p.add_argument("--family", help="one family name (default: all)")
    p.add_argument("--all", action="store_true", default=None, help="sweep every family")
    p.add_argument("--res", help="grid resolution per free parameter")
    p.add_argument("--tol", help="max allowed |formula - engine|")

    p = sub.add_parser("scan", help="grid scan over (theta1, theta2)")
    add_common(p)
    p.add_argument("--j", help="spin")
    p.add_argument("--generator", "--gen", dest="generator", help="x, y or z")
    p.add_argument("--phi1", help="first phase")
    p.add_argument("--phi2", help="second phase")
    p.add_argument("--res", help="grid resolution")
    p.add_argument("--cap", help="CSV ceiling for diverging bounds")
    p.add_argument("--output", help="CSV path (default: stdout)")

    p = sub.add_parser("find-hl", help="search for Heisenberg-limit points")
    p.add_argument("--config", help="key=value defaults file")
    p.add_argument("--j", help="spin")
    p.add_argument("--generator", "--gen", dest="generator", help="x, y or z")
    p.add_argument("--tolerance", help="relative acceptance slack")
    p.add_argument("--seeds", help="coarse starts to polish")
    p.add_argument("--output", help="write the report to this path")
    p.add_argument("--format", help="text or json")

    return parser


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise _UsageError(f"{path}:{lineno}: expected key=value")
            entries[key.strip().lower().replace("-", "_")] = value.strip()
    return entries


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge flag values over config values over defaults, then convert.

    Flags and config go through identical converters, so equivalent
    spellings produce byte-identical reports.
    """
    command = args.command
    opts: dict[str, object] = dict(_DEFAULTS[command])
    known = set(opts) | set(_REQUIRED[command])
    if getattr(args, "config", None):
        for key, value in _load_config(args.config).items():
            if key not in known:
                raise _UsageError(f"config key {key!r} not valid for {command!r}")
            opts[key] = value
    for key in known:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            opts[key] = flag_value
    for key in _REQUIRED[command]:
        if opts.get(key) is None:
            raise _UsageError(f"--{key.replace('_', '-')} is required")
    converted: dict[str, object] = {}
    for key, value in opts.items():
        if value is None or not isinstance(value, str):
            converted[key] = value
        else:
            converted[key] = _CONVERTERS[key](value)
    pi_units = bool(converted.get("pi_units"))
    for name in _ANGLE_DESTS:
        if isinstance(converted.get(name), str):
            converted[name] = parse_angle(converted[name], pi_units)
    return converted


def _jf(x: float) -> float:
    # 15 significant digits, the digits the text output prints; fewer than
    # the 17 a double may need to round-trip, but stable across platforms
    return float(f"{x:.15g}")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_crb(opts: Mapping) -> int:
    j: SpinJ = opts["j"]
    try:
        cat = CatParams(
            j,
            CoherentParams(opts["theta1"], opts["phi1"]),
            CoherentParams(opts["theta2"], opts["phi2"]),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        norm = normalization(cat)
    except DegenerateCatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overlap = coherent_overlap(j, cat.p1, cat.p2)
    result = cat_crb(cat, opts["generator"])
    if opts["format"] == "json":
        doc = {
            "j": _jf(j.j),
            "generator": opts["generator"].name,
            "theta1": _jf(cat.p1.theta),
            "theta2": _jf(cat.p2.theta),
            "phi1": _jf(cat.p1.phi),
            "phi2": _jf(cat.p2.phi),
            "overlap": {"re": _jf(overlap.real), "im": _jf(overlap.imag)},
            "normalization": _jf(norm),
            "qfi": _jf(result.qfi),
            "crb": None if result.divergent else _jf(result.crb),
            "divergent": result.divergent,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"j = {j}")
        print(f"generator = {opts['generator'].name}")
        print(f"theta1 = {_fmt(cat.p1.theta)}")
        print(f"theta2 = {_fmt(cat.p2.theta)}")
        print(f"phi1 = {_fmt(cat.p1.phi)}")
        print(f"phi2 = {_fmt(cat.p2.phi)}")
        print(f"overlap = {_fmt(overlap.real)} {overlap.imag:+.15g}j")
        print(f"normalization = {_fmt(norm)}")
        print(f"qfi = {_fmt(result.qfi)}")
        print("crb = divergent" if result.divergent else f"crb = {_fmt(result.crb)}")
    return 0


def _cmd_verify(opts: Mapping) -> int:
    if opts["family"] is not None and opts["all"]:
        raise _UsageError("--family and --all are mutually exclusive")
    if opts["family"] is not None:
        cases = [opts["family"]]
    else:
        cases = list(FAMILIES)
    res = opts["res"]
    tol = opts["tol"]
    if not 2 <= res <= MAX_RESOLUTION:
        raise _UsageError(f"--res must lie in [2, {MAX_RESOLUTION}]")
    if not tol > 0:
        raise _UsageError("--tol must be positive")
    failures = []
    started = time.perf_counter()
    for case in cases:
        report = sweep_family(case, res)
        ok = report.passed(tol)
        if not ok:
            failures.append(case.value)
        print(
            f"{case.value:<28} points={report.points} "
            f"finite={report.finite_points} "
            f"max_dev={report.max_abs_deviation:.3e} "
            f"event_mismatches={report.event_mismatches} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    elapsed = time.perf_counter() - started
    if failures:
        print(
            f"verify: {len(failures)}/{len(cases)} families failed "
            f"(res={res}, tol={tol:g}, {elapsed:.1f}s): {', '.join(failures)}"
        )
        return 3
    print(f"verify: {len(cases)}/{len(cases)} families passed (res={res}, tol={tol:g}, {elapsed:.1f}s)")
    return 0


def _scan_summary(result: GridResult) -> str:
    crb_min, t1, t2 = result.min_point()
    n = result.spec.resolution
    return (
        f"scan: {n}x{n} grid, "
        f"min crb = {_fmt(crb_min)} at theta1 = {_fmt(t1)}, theta2 = {_fmt(t2)}; "
        f"{int(result.overflow.sum())} overflow, "
        f"{int(result.degenerate.sum())} degenerate cells"
    )


def _cmd_scan(opts: Mapping) -> int:
    try:
        spec = ScanSpec(
            j=opts["j"],
            generator=opts["generator"],
            phi1=opts["phi1"],
            phi2=opts["phi2"],
            resolution=opts["res"],
            cap=opts["cap"],
        )
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    result = grid_scan(spec)
    if opts["output"] is None:
        result.to_csv(sys.stdout)
    else:
        try:
            with open(opts["output"], "w", encoding="utf-8", newline="") as fh:
                result.to_csv(fh)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        print(_scan_summary(result))
    return 0


def _cmd_find_hl(opts: Mapping) -> int:
    try:
        spec = HlSearchSpec(
            j=opts["j"],
            generator=opts["generator"],
            tolerance=opts["tolerance"],
            seeds=opts["seeds"],
        )
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    try:
        points = find_hl(spec)
    except NoHlFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    if opts["format"] == "json":
        doc = {
            "j": _jf(spec.j.j),
            "generator": spec.generator.name,
            "target": _jf(spec.target),
            "tolerance": _jf(spec.tolerance),
            "points": [
                {
                    "theta1": _jf(p.theta1),
                    "theta2": _jf(p.theta2),
                    "phi1": _jf(p.phi1),
                    "phi2": _jf(p.phi2),
                    "crb": _jf(p.crb),
                }
                for p in points
            ],
        }
        rendered = json.dumps(doc, indent=2)
    else:
        lines = [
            f"found {len(points)} Heisenberg-limit point(s), "
            f"target {_fmt(spec.target)}, tolerance {spec.tolerance:g}"
        ]
        for p in points:
            lines.append(
                f"theta1 = {_fmt(p.theta1)}  theta2 = {_fmt(p.theta2)}  "
                f"phi1 = {_fmt(p.phi1)}  phi2 = {_fmt(p.phi2)}  crb = {_fmt(p.crb)}"
            )
        rendered = "\n".join(lines)
    if opts["output"] is None:
        print(rendered)
    else:
        try:
            with open(opts["output"], "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        print(f"wrote {len(points)} point(s) to {opts['output']}")
    return 0


_HANDLERS = {
    "crb": _cmd_crb,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "find-hl": _cmd_find_hl,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # remapped usage errors and --help
        return int(exc.code or 0)
    try:
        opts = _resolve_options(args)
        return _HANDLERS[args.command](opts)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
