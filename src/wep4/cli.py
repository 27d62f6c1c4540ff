"""Command line interface: wep4.

Subcommands
    eval       immersion point at one parameter value
    mesh       sample a polar grid, project, and export obj/ply/csv
    verify     run the seeded verification suites (exit 1 on any failure)
    report     fidelity audit of the printed reference displays (CSV)
    curvature  Gauss curvature over a polar grid to CSV
    info       closed-form coefficients of the member as JSON

Defaults can be preloaded from a JSON file via --config; explicit flags
win over config values.  The RNG seed defaults to 42 so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import sys

from .henneberg import FamilyParams, family_member, seed_phi
from .laurent import NonFiniteCoefficientError, evaluate
from .output import open_output
from .weierstrass import AXES

__all__ = ["main", "parse_lambda"]

_LAMBDA_CHARS = re.compile(r"^[0-9eE+\-.i]+$")
# A subcommand parser's _negative_number_matcher: argparse reads a token that starts
# with "-" and names no option as a value only if this matches it, and its own
# pattern takes plain negative numbers only, so "--point -0.5,0.4" would lose its value.
# _ActionsContainer.__init__ sets it on the instance, so it is set after __init__;
# checked on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
_DASH_LED_VALUE = re.compile(r"^-[0-9.i]")
# numpy's messages that mean a value overflowed; it takes w**-k as 1 / w**k,
# so a power that divides by zero overflows too (w = 0 is refused before)
_OVERFLOW = re.compile(r"overflow|divide by zero encountered in power")
# The built-in value of every subcommand flag, by dest; --samples by command.
DEFAULTS = {"m": 1, "n": 1, "lam": "0", "point": None, "out": None, "rmin": 0.5, "rmax": 2.0,
            "nr": 80, "ntheta": 160, "open_seam": False, "project": "xyz", "fmt": "obj",
            "seed": 42, "samples": {"verify": 1000, "report": 200}}
# verify and report draw their samples as whole arrays, so the count is capped.
MAX_SAMPLES = 1_000_000


class UsageError(ValueError):
    pass


def _on_first_call(module: str, name: str):
    """A stand-in for the array module's function (or class) name that imports
    the module when it is first called: eval and info never load numpy.  The
    commands call these module names, which tests and tracers replace."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


PolarGrid = _on_first_call("mesh", "PolarGrid")
export = _on_first_call("mesh", "export")
projection_columns = _on_first_call("mesh", "projection_columns")
sample_grid = _on_first_call("mesh", "sample_grid")
run_verify = _on_first_call("verify", "run_verify")
sample_annulus = _on_first_call("verify", "sample_annulus")
fidelity_report = _on_first_call("fixtures", "fidelity_report")


def parse_lambda(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (no whitespace, trailing i marks the
    imaginary part)."""
    if not text or text.strip() != text or not _LAMBDA_CHARS.match(text):
        raise UsageError(f"bad lambda syntax: {text!r}")
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        raise UsageError(f"bad lambda syntax: {text!r}") from None
    return value


def _poly_json(poly) -> dict:
    return {str(k): [c.real + 0.0, c.imag + 0.0] for k, c in poly}


# Each subcommand's summary and its flags in help order, as (flag, add_argument options).
_MEMBER_FLAGS = (("--m", {"type": int, "help": "first odd order"}),
                 ("--n", {"type": int, "help": "second odd order"}),
                 ("--lambda", {"dest": "lam", "help": "complex weight, e.g. 0, 1, 1+1i, 0.5-2i"}))
_GRID_FLAGS = (("--rmin", {"type": float}), ("--rmax", {"type": float}), ("--nr", {"type": int}),
               ("--ntheta", {"type": int}), ("--open-seam", {"action": "store_true", "help": (
                   "duplicate the theta seam instead of wrapping faces")}))
_DRAW_FLAGS = (("--samples", {"type": int}), ("--seed", {"type": int}))
_SUBCOMMANDS = {
    "eval": ("immersion point at one parameter value",
             _MEMBER_FLAGS + (("--point", {"help": "parameter point 'u,v'"}),)),
    "mesh": ("sample, project, and export a mesh", _MEMBER_FLAGS + _GRID_FLAGS + (
        ("--project", {"help": f"three axes from '{AXES}' (obj/ply only)"}),
        ("--format", {"dest": "fmt", "choices": ["obj", "ply", "csv"]}),
        ("--out", {"help": "output path"}))),
    "verify": ("run the verification suites", _MEMBER_FLAGS + _DRAW_FLAGS),
    "report": ("fidelity audit of reference displays", _MEMBER_FLAGS + _DRAW_FLAGS + (
        ("--out", {"help": "write the CSV here instead of stdout"}),)),
    "curvature": ("Gauss curvature over a grid to CSV", _MEMBER_FLAGS + _GRID_FLAGS + (
        ("--out", {"help": "output CSV path"}),)),
    "info": ("closed-form coefficients as JSON", _MEMBER_FLAGS + (
        ("--out", {"help": "write the JSON here instead of stdout"}),)),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, built with its flags at its first use: until then
    it holds only its table flags and options, so a call builds only its own."""

    def __init__(self, *, flags, **options):
        self._flags, self._options = flags, options

    def __getattr__(self, name):
        # runs only for an attribute not set yet, so a parser that is still
        # a shell builds itself before any parse, help, usage, error or repr
        if "_options" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        super().__init__(**self.__dict__.pop("_options"))
        self._negative_number_matcher = _DASH_LED_VALUE
        for flag, options in self._flags:
            self.add_argument(flag, **options)
        return getattr(self, name)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wep4", description="Closed-form Henneberg-type minimal surfaces in R4")
    parser.add_argument("--config", help="JSON file with default flag values")
    # prog is the prefix argparse would otherwise format a usage line for
    sub = parser.add_subparsers(dest="command", required=True, prog="wep4",
                                parser_class=_SubcommandParser)
    for name, (summary, flags) in _SUBCOMMANDS.items():
        # absent flags stay absent, so parsing over a namespace keeps its values
        sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS, flags=flags)
    return parser


def _config_flags(path: str) -> list[str]:
    """The --config file's keys as flags: --key=value, or a bare --key for true."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except (ValueError, RecursionError) as exc:  # nesting too deep for the decoder
            raise UsageError(f"--config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("--config must contain a JSON object")
    return [f"--{key}" if value is True else f"--{key}={value}"
            for key, value in config.items() if value is not None and value is not False]


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse the --config flags, then argv over them, then fill DEFAULTS."""
    args = parser.parse_args(argv)
    if args.config:
        config, others = parser.parse_known_args([args.command, *_config_flags(args.config)])
        # keys only other subcommands know come back unparsed and are ignored;
        # a key no subcommand knows (a flag or a prefix of one) is refused
        known = ["-h", "--help", *(flag for _, flags in _SUBCOMMANDS.values() for flag, _ in flags)]
        for key in (other.split("=", 1)[0] for other in others):
            if not any(flag.startswith(key) for flag in known):
                raise UsageError(f"--config key {key[2:]!r} is not a flag of any subcommand")
        args = parser.parse_args(argv, config)
    for key, value in DEFAULTS.items():
        vars(args).setdefault(key, value.get(args.command) if key == "samples" else value)
    return args


def _write_text(path, text: str, note: str = "") -> None:
    """Write text to path and say so, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    with open_output(path) as fh:
        fh.write(text.encode("ascii"))
    print(f"wrote {path} {note}".rstrip())


def _format_value(x: float) -> str:
    """x as repr prints it, '.0' dropped from an integral value and -0.0 as 0:
    the scalar reference of the rule that mesh.format_column's kernel
    vectorizes, as math.fsum is to the array TwoSum in laurent.accurate_sum."""
    text = repr(x + 0.0)
    return text[:-2] if text.endswith(".0") else text


def _cmd_eval(args, member) -> int:
    if not args.point:
        raise UsageError("--point is required")
    try:
        u_text, v_text = args.point.split(",")
        w = complex(float(u_text), float(v_text))
    except ValueError:
        raise UsageError(f"bad point {args.point!r}, expected 'u,v'") from None
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise UsageError(f"the point {args.point!r} is not finite")
    if w == 0:
        raise UsageError("the point 0,0 is the puncture")
    try:  # the exact fsum path of each coordinate
        point = evaluate(member.curve, w, real=True)
        finite = all(map(math.isfinite, point))
    except (OverflowError, ZeroDivisionError, ValueError):  # |w|**k out of range, or inf - inf
        finite = False
    if not finite:
        raise UsageError(f"the curve overflows double precision at the point {args.point!r}")
    print(" ".join(map(_format_value, point)))
    return 0


def _sample(args, member):
    """The grid of a mesh or curvature command."""
    if not args.out:
        raise UsageError("--out is required")
    grid = PolarGrid(args.rmin, args.rmax, args.nr, args.ntheta, theta_closed=not args.open_seam)
    return sample_grid(member, grid)


def _cmd_mesh(args, member) -> int:
    if args.fmt != "csv":
        projection_columns(args.project)  # refused before the grid is sampled
    mesh4 = _sample(args, member)
    options = {} if args.fmt == "csv" else {"axes": args.project}
    export(mesh4, args.fmt, args.out, **options)
    print(f"wrote {args.out} ({mesh4.regular.size} vertices, {mesh4.quad_count} quads)")
    return 0


def _draws_from(args) -> tuple[int, int]:
    """The --samples count and --seed of verify or report, checked."""
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be from 1 to {MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    return args.samples, args.seed


def _cmd_verify(args, member) -> int:
    results = run_verify(member, *_draws_from(args))
    for res in results:
        print(res.line())
    failed = sum(not r.skipped and not r.passed for r in results)
    skipped = sum(r.skipped for r in results)
    passed = len(results) - failed - skipped
    print(f"verify: {passed}/{len(results)} suites passed, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


def _cmd_report(args, member) -> int:
    import numpy as np

    samples, seed = _draws_from(args)
    rng_points = sample_annulus(np.random.default_rng(seed), samples, r_lo=0.5, r_hi=1.7)
    report = fidelity_report(member, rng_points)
    _write_text(args.out, report.to_csv(), f"({len(report.rows)} rows)")
    return 0


def _cmd_curvature(args, member) -> int:
    mesh4 = _sample(args, member)
    export(mesh4, "csv", args.out, fields=("u", "v", "E", "K"))
    print(f"wrote {args.out} ({mesh4.regular.size} rows)")
    return 0


def _cmd_info(args, member) -> int:
    params = member.params
    triple = member.triple
    payload = {
        "m": params.m,
        "n": params.n,
        "lambda": [params.lam.real + 0.0, params.lam.imag + 0.0],
        "data": {"f": _poly_json(triple.f), "g": _poly_json(triple.g), "h": _poly_json(triple.h)},
        "phi": [_poly_json(p) for p in member.phi],
        "curve": [_poly_json(p) for p in member.curve],
        "seed": _poly_json(seed_phi(params.m, params.n)),
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {"eval": _cmd_eval, "mesh": _cmd_mesh, "verify": _cmd_verify,
             "report": _cmd_report, "curvature": _cmd_curvature, "info": _cmd_info}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
        member = family_member(FamilyParams(args.m, args.n, parse_lambda(args.lam)))
        command = _COMMANDS[args.command]
        if args.command in ("eval", "info"):  # Python scalars only: no numpy, no numpy error
            return command(args, member)
        import numpy as np

        # values that overflow are refused, never written or printed as inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return command(args, member)
    except (FloatingPointError, NonFiniteCoefficientError) as exc:
        overflow = isinstance(exc, NonFiniteCoefficientError) or _OVERFLOW.match(str(exc))
        what = "the member overflows double precision" if overflow else "floating-point error"
        print(f"wep4: error: {what} ({exc})", file=sys.stderr)
        return 2
    # after the overflow clause, which takes NonFiniteCoefficientError first: the
    # library raises ValueError only to refuse a value from outside the program
    except ValueError as exc:
        print(f"wep4: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    except OSError as exc:
        print(f"wep4: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
