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

``main(argv)`` may be called repeatedly in one process; it builds its
argument parser on the first call and reuses it for every later one.

Exit codes: 0 success, 3 verification failure. Every other exit goes
through _EXIT_CODES in main, which prints ``error: ...`` on stderr and maps
the error's type to its code: 1 usage/config error, 2 degenerate cat, 4 I/O
error, 5 no Heisenberg-limit point found. A closed stdout pipe also exits
4, but prints nothing.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Mapping

from ._checks import real
from .catstate import CatParams, DegenerateCatError, normalization
from .closedform import _SWEEP_RESOLUTION, FAMILIES, ClosedFormCase, check_tol, sweep_family
from .coherent import CoherentParams, check_theta, coherent_overlap
from .dicke import SpinJ
from .metrology import Generator, cat_crb
from .scan import (
    DEFAULT_CAP,
    DEFAULT_RESOLUTION,
    GridResult,
    HlSearchSpec,
    NoHlFoundError,
    ScanSpec,
    check_cap,
    check_resolution,
    check_seeds,
    check_tolerance,
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


def _converter(parse, message: str):
    """Converter of option text: parse(*args), where a ValueError or
    KeyError becomes a usage error, message formatted with the option's
    text and the exception."""
    def convert(*args):
        try:
            return parse(*args)
        except (ValueError, KeyError) as exc:
            raise _UsageError(message.format(text=args[0], exc=exc)) from None
    return convert


def _ranged(parse, rule):
    """Converter that parses, then checks the value with the library's
    range rule; the rule's message is the usage error's."""
    return _converter(lambda *args: rule(parse(*args)), "{exc}")


_parse_j = _converter(lambda text: SpinJ.from_j(float(text)), "invalid spin {text!r}: {exc}")
_parse_generator = _converter(
    lambda text: Generator[text.strip().upper()], "generator must be x, y or z, got {text!r}"
)
_parse_family = _converter(
    lambda text: ClosedFormCase(text.strip().lower()), "unknown family {text!r}"
)
_parse_int = _converter(int, "invalid integer {text!r}")
_parse_float = _converter(float, "invalid number {text!r}")
_FORMATS = {"text": "text", "json": "json"}
_parse_format = _converter(
    lambda text: _FORMATS[text.strip().lower()], "format must be text or json, got {text!r}"
)
_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)
_parse_bool = _converter(lambda text: _BOOLS[text.strip().lower()], "invalid boolean {text!r}")


# marks an option that has no default and must be given
_REQUIRED = object()

_PI_UNITS = (("--pi-units",), _parse_bool, False, "treat bare angle numbers as multiples of pi")
_SPIN = (("--j",), _parse_j, _REQUIRED, "spin")
_GENERATOR = (("--generator", "--gen"), _parse_generator, _REQUIRED, "x, y or z")
_FORMAT = (("--format",), _parse_format, "text", "text or json")

_RESOLUTION = _ranged(_parse_int, check_resolution)
_TOL = _ranged(_parse_float, functools.partial(check_tol, name="--tol"))
_ANGLES = ("theta1", "theta2", "phi1", "phi2")
# each angle's converter, whose range error names the angle
_THETA1, _THETA2, _PHI1, _PHI2 = (
    _ranged(parse_angle, functools.partial(check_theta if n < 2 else real, name=name))
    for n, name in enumerate(_ANGLES)
)

# Every subcommand's help line and its options in --help order, each as
# (flags, converter, default or _REQUIRED, help). The option's config key
# is its first flag without the dashes. Flags and config values go through
# the same converter in this order, except that the _ANGLES come last
# because their converters also take pi_units. A converter checks the
# value's range with the library's rule as it converts it. _parse_bool
# marks an on/off flag.
_COMMANDS = {
    "crb": ("bound for one cat state", (
        _PI_UNITS,
        (("--j",), _parse_j, _REQUIRED, "spin (0.5, 1, 1.5, ...)"),
        _GENERATOR,
        (("--theta1",), _THETA1, _REQUIRED, "theta1 angle"),
        (("--theta2",), _THETA2, _REQUIRED, "theta2 angle"),
        (("--phi1",), _PHI1, "0", "phi1 angle"),
        (("--phi2",), _PHI2, "0", "phi2 angle"),
        _FORMAT,
    )),
    "verify": ("sweep closed forms against the engine", (
        (("--family",), _parse_family, None, "one family name (default: all)"),
        (("--all",), _parse_bool, False, "sweep every family"),
        (("--res",), _RESOLUTION, _SWEEP_RESOLUTION, "grid resolution per free parameter"),
        (("--tol",), _TOL, 1e-9, "max allowed |formula - engine|"),
    )),
    "scan": ("grid scan over (theta1, theta2)", (
        _PI_UNITS,
        _SPIN,
        _GENERATOR,
        (("--phi1",), _PHI1, "0", "first phase"),
        (("--phi2",), _PHI2, "0", "second phase"),
        (("--res",), _RESOLUTION, DEFAULT_RESOLUTION, "grid resolution"),
        (("--cap",), _ranged(_parse_float, check_cap), DEFAULT_CAP, "CSV ceiling for diverging bounds"),
        (("--output",), str, None, "CSV path (default: stdout)"),
    )),
    "find-hl": ("search for Heisenberg-limit points", (
        _SPIN,
        _GENERATOR,
        (("--tolerance",), _ranged(_parse_float, check_tolerance), HlSearchSpec.tolerance,
         "relative acceptance slack"),
        (("--seeds",), _ranged(_parse_int, check_seeds), HlSearchSpec.seeds,
         "best grid cats to test"),
        (("--output",), str, None, "write the report to this path"),
        _FORMAT,
    )),
}


def _key(flags: tuple[str, ...]) -> str:
    return flags[0].lstrip("-").replace("-", "_")


# built on the first main() call, not at import, and shared by later calls:
# the parser holds only flags, dests and help text (converters run in
# _resolve_options, each parse makes a fresh Namespace, and usage and help
# read sys.stdout, sys.stderr and the terminal width when they print)
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="spincat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_line, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="key=value defaults file")
        for flags, convert, _, help_text in options:
            switch = {"action": "store_true"} if convert is _parse_bool else {}
            p.add_argument(*flags, dest=_key(flags), default=None, help=help_text, **switch)
    return parser


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    # utf-8-sig drops the byte-order mark some editors write first
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise _UsageError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise _UsageError(f"{path}:{lineno}: expected key=value")
        key = key.strip().lower().replace("-", "_")
        if key in entries:
            raise _UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge flag values over config values over defaults, then convert.

    Flags and config go through identical converters, so equivalent
    spellings produce byte-identical reports. Errors are reported in a
    fixed order: an unknown config key, then a missing option, then the
    first value that fails to convert or is out of range, in table order
    with angles last.
    """
    command = args.command
    options = _COMMANDS[command][1]
    converters = {_key(flags): convert for flags, convert, _, _ in options}
    opts: dict[str, object] = {_key(flags): default for flags, _, default, _ in options}
    if args.config:
        for key, value in _load_config(args.config).items():
            if key not in opts:
                raise _UsageError(f"config key {key!r} not valid for {command!r}")
            opts[key] = value
    for key in opts:
        flag_value = getattr(args, key)
        if flag_value is not None:
            opts[key] = flag_value
    for key, value in opts.items():
        if value is _REQUIRED:
            raise _UsageError(f"--{key.replace('_', '-')} is required")
    for key, convert in converters.items():
        if key not in _ANGLES and isinstance(opts[key], str):
            opts[key] = convert(opts[key])
    for key in _ANGLES:
        if key in opts:
            opts[key] = converters[key](opts[key], bool(opts.get("pi_units")))
    return opts


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
    cat = CatParams(
        j,
        CoherentParams(opts["theta1"], opts["phi1"]),
        CoherentParams(opts["theta2"], opts["phi2"]),
    )
    norm = normalization(cat)
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
    spec = ScanSpec(
        j=opts["j"],
        generator=opts["generator"],
        phi1=opts["phi1"],
        phi2=opts["phi2"],
        resolution=opts["res"],
        cap=opts["cap"],
    )
    result = grid_scan(spec)
    if opts["output"] is None:
        result.to_csv(sys.stdout)
    else:
        with open(opts["output"], "w", encoding="utf-8", newline="") as fh:
            result.to_csv(fh)
        print(_scan_summary(result))
    return 0


def _cmd_find_hl(opts: Mapping) -> int:
    spec = HlSearchSpec(
        j=opts["j"],
        generator=opts["generator"],
        tolerance=opts["tolerance"],
        seeds=opts["seeds"],
    )
    points = find_hl(spec)
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
        with open(opts["output"], "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {len(points)} point(s) to {opts['output']}")
    return 0


_HANDLERS = {
    "crb": _cmd_crb,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "find-hl": _cmd_find_hl,
}


# the one mapping from the error that ends a run to its exit code; the
# handlers return 0, or 3 when verification fails
_EXIT_CODES = {_UsageError: 1, DegenerateCatError: 2, OSError: 4, NoHlFoundError: 5}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # remapped usage errors and --help
        return int(exc.code or 0)
    try:
        opts = _resolve_options(args)
        code = _HANDLERS[args.command](opts)
        # a closed pipe shows up here for output still in the buffer
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`spincat scan ... | head`): stop
        # quietly, and send what is still buffered, flushed at interpreter
        # exit, to the null device instead of the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_CODES[OSError]
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
