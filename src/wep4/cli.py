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
import json
import re
import sys

import numpy as np

from .fixtures import fidelity_report
from .henneberg import (
    FamilyParams,
    family_curve,
    family_phi,
    family_triple,
    seed_phi,
)
from .geometry import immersion_point
from .laurent import NonFiniteCoefficientError
from .mesh import (AXES, PolarGrid, export, export_csv, format_column, project,
                   projection_columns, sample_grid)
from .verify import run_verify, sample_annulus

__all__ = ["main", "parse_lambda"]

_LAMBDA_CHARS = re.compile(r"^[0-9eE+\-.i]+$")
# argparse takes a token that starts with "-" for an option unless it is a
# plain negative number, so "--point -0.5,0.4" would lose its value.
_DASH_LED_FLAGS = ("--point", "--lambda")
_DASH_LED_VALUE = re.compile(r"^-[0-9.i]")
# The built-in value of every subcommand flag, by dest; --samples by command.
DEFAULTS = {"m": 1, "n": 1, "lam": "0", "point": None, "out": None, "rmin": 0.5, "rmax": 2.0,
            "nr": 80, "ntheta": 160, "open_seam": False, "project": "xyz", "fmt": "obj",
            "seed": 42, "samples": {"verify": 1000, "report": 200}}
# verify and report draw their samples as whole arrays, so the count is capped.
MAX_SAMPLES = 1_000_000


class UsageError(ValueError):
    pass


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


def _params_from(args) -> FamilyParams:
    try:
        return FamilyParams(args.m, args.n, parse_lambda(args.lam))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _grid_from(args) -> PolarGrid:
    try:
        return PolarGrid(args.rmin, args.rmax, args.nr, args.ntheta,
                         theta_closed=not args.open_seam)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _poly_json(poly) -> dict:
    return {str(k): [c.real + 0.0, c.imag + 0.0] for k, c in sorted(poly.terms.items())}


def _add_grid_flags(sub) -> None:
    for flag, kind in (("--rmin", float), ("--rmax", float), ("--nr", int), ("--ntheta", int)):
        sub.add_argument(flag, type=kind)
    sub.add_argument("--open-seam", action="store_true",
                     help="duplicate the theta seam instead of wrapping faces")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wep4",
        description="Closed-form Henneberg-type minimal surfaces in R4",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # absent flags stay absent, so parsing over a namespace keeps its values
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--m", type=int, help="first odd order")
        p.add_argument("--n", type=int, help="second odd order")
        p.add_argument("--lambda", dest="lam", help="complex weight, e.g. 0, 1, 1+1i, 0.5-2i")
        return p

    command("eval", "immersion point at one parameter value").add_argument(
        "--point", help="parameter point 'u,v'")

    p_mesh = command("mesh", "sample, project, and export a mesh")
    _add_grid_flags(p_mesh)
    p_mesh.add_argument("--project", help=f"three axes from '{AXES}' (obj/ply only)")
    p_mesh.add_argument("--format", dest="fmt", choices=["obj", "ply", "csv"])
    p_mesh.add_argument("--out", help="output path")

    p_verify = command("verify", "run the verification suites")
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--seed", type=int)

    p_report = command("report", "fidelity audit of reference displays")
    p_report.add_argument("--samples", type=int)
    p_report.add_argument("--seed", type=int)
    p_report.add_argument("--out", help="write the CSV here instead of stdout")

    p_curv = command("curvature", "Gauss curvature over a grid to CSV")
    _add_grid_flags(p_curv)
    p_curv.add_argument("--out", help="output CSV path")

    command("info", "closed-form coefficients as JSON").add_argument(
        "--out", help="write the JSON here instead of stdout")
    return parser


def _config_flags(path: str) -> list[str]:
    """The --config file's keys as flags: --key=value, or a bare --key for true."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"--config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("--config must contain a JSON object")
    return [f"--{key}" if value is True else f"--{key}={value}"
            for key, value in config.items() if value is not None and value is not False]


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse the --config flags, then argv over them, then fill DEFAULTS."""
    args = parser.parse_args(argv)
    if args.config:
        # keys only other subcommands know come back unparsed and are ignored
        config, _ = parser.parse_known_args([args.command, *_config_flags(args.config)])
        args = parser.parse_args(argv, config)
    for key, value in DEFAULTS.items():
        vars(args).setdefault(key, value.get(args.command) if key == "samples" else value)
    return args


def _attach_dash_led_values(argv: list[str]) -> list[str]:
    """Rewrite '--point -0.5,0.4' as '--point=-0.5,0.4' (and so for --lambda)."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _DASH_LED_FLAGS and _DASH_LED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _write_text(path, text: str, note: str = "") -> None:
    """Write text to path and say so, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path} {note}".rstrip())


def _cmd_eval(args) -> int:
    params = _params_from(args)
    if not args.point:
        raise UsageError("--point is required")
    try:
        u_text, v_text = args.point.split(",")
        w = complex(float(u_text), float(v_text))
    except ValueError:
        raise UsageError(f"bad point {args.point!r}, expected 'u,v'") from None
    if not np.isfinite(w):
        raise UsageError(f"the point {args.point!r} is not finite")
    if w == 0:
        raise UsageError("the point 0,0 is the puncture")
    try:
        point = immersion_point(family_curve(params), w)
    except (OverflowError, ZeroDivisionError):  # |w|**k out of range either way
        point = None
    if point is None or not np.isfinite(point).all():
        raise UsageError(f"the curve overflows double precision at the point {args.point!r}")
    print(" ".join(format_column(point)))
    return 0


def _sample(args):
    """The grid of a mesh or curvature command, refused where it overflows."""
    params = _params_from(args)
    if not args.out:
        raise UsageError("--out is required")
    with np.errstate(all="ignore"):
        mesh4 = sample_grid(params, _grid_from(args))
    if not (np.isfinite(mesh4.xyzw).all() and np.isfinite(mesh4.E).all()):
        raise UsageError("the surface overflows double precision on this grid")
    return mesh4


def _cmd_mesh(args) -> int:
    if args.fmt != "csv":
        try:
            projection_columns(args.project)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    mesh4 = _sample(args)
    if args.fmt == "csv":
        export(mesh4, "csv", args.out)
    else:
        export(project(mesh4, args.project), args.fmt, args.out)
    print(f"wrote {args.out} ({mesh4.E.size} vertices, {len(mesh4.quads)} quads)")
    return 0


def _draws_from(args) -> tuple[int, int]:
    """The --samples count and --seed of verify or report, checked."""
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be from 1 to {MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    return args.samples, args.seed


def _cmd_verify(args) -> int:
    params = _params_from(args)
    results = run_verify(params, *_draws_from(args))
    for res in results:
        print(res.line())
    failed = sum(not r.skipped and not r.passed for r in results)
    skipped = sum(r.skipped for r in results)
    passed = len(results) - failed - skipped
    print(f"verify: {passed}/{len(results)} suites passed, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    params = _params_from(args)
    samples, seed = _draws_from(args)
    rng_points = sample_annulus(np.random.default_rng(seed), samples, r_lo=0.5, r_hi=1.7)
    report = fidelity_report(params, rng_points)
    _write_text(args.out, report.to_csv(), f"({len(report.rows)} rows)")
    return 0


def _cmd_curvature(args) -> int:
    mesh4 = _sample(args)
    export_csv(mesh4, args.out, fields=("u", "v", "E", "K"))
    print(f"wrote {args.out} ({mesh4.E.size} rows)")
    return 0


def _cmd_info(args) -> int:
    params = _params_from(args)
    triple = family_triple(params)
    phi = family_phi(params)
    curve = family_curve(params)
    payload = {
        "m": params.m,
        "n": params.n,
        "lambda": [params.lam.real, params.lam.imag],
        "data": {"f": _poly_json(triple.f), "g": _poly_json(triple.g), "h": _poly_json(triple.h)},
        "phi": [_poly_json(p) for p in phi.parts],
        "curve": [_poly_json(p) for p in curve.parts],
        "seed": _poly_json(seed_phi(params.m, params.n)),
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {"eval": _cmd_eval, "mesh": _cmd_mesh, "verify": _cmd_verify,
             "report": _cmd_report, "curvature": _cmd_curvature, "info": _cmd_info}


def main(argv: list[str] | None = None) -> int:
    argv = _attach_dash_led_values(list(sys.argv[1:] if argv is None else argv))
    parser = _build_parser()
    try:
        args = _parse_args(parser, argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"wep4: error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteCoefficientError as exc:
        # only an overflowing --lambda makes a member's coefficients non-finite
        print(f"wep4: error: --lambda too large: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    except OSError as exc:
        print(f"wep4: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
