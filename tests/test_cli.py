"""Command line surface: parsing, dispatch, exit codes, determinism."""

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wep4 import cli, henneberg
from wep4.cli import DEFAULTS, UsageError, _build_parser, _parse_args, main, parse_lambda
from wep4.fixtures import fidelity_report
from wep4.henneberg import FamilyParams, family_member
from wep4.mesh import CSV_FIELDS, format_column
from wep4.verify import run_verify


def test_parse_lambda_grammar():
    assert parse_lambda("0") == 0
    assert parse_lambda("1") == 1
    assert parse_lambda("-2.5") == -2.5
    assert parse_lambda("2i") == 2j
    assert parse_lambda("-2i") == -2j
    assert parse_lambda("1+1i") == 1 + 1j
    assert parse_lambda("0.5-2i") == 0.5 - 2j
    assert parse_lambda("1e-3+2e2i") == 1e-3 + 200j
    for bad in ("", " 1", "1 + 2i", "i1", "1+2", "abc", "(1+2i)", "infi", "nani"):
        with pytest.raises(UsageError):
            parse_lambda(bad)


def test_eval_prints_point(capsys):
    assert main(["eval", "--m", "1", "--n", "1", "--lambda", "0", "--point", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "0 0 2 0"


def test_eval_real_lambda(capsys):
    assert main(["eval", "--m", "1", "--n", "1", "--lambda", "1", "--point", "1,0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1.3333333333333333 0 2 2"


@pytest.mark.parametrize("flag, value", [("--point", "-0.5,0.4"), ("--lambda", "-1+1i"),
                                         ("--lambda", "-2i"), ("--point", "-.5,-1e-1"),
                                         # argparse takes a flag's unambiguous prefixes too
                                         ("--lam", "-0.5-2i"), ("--poi", "-0.5,0.4"),
                                         ("--p", "-0.5,0.4")])
def test_dash_led_values_match_the_equals_form(flag, value, capsys):
    argv = ["eval", "--m", "1", "--n", "3", "--lambda", "0.5", "--point", "0.7,0.2"]
    at = next(i for i, arg in enumerate(argv) if arg.startswith(flag))
    argv[at:at + 2] = [flag, value]
    assert main(argv) == 0
    spaced = capsys.readouterr().out
    joined = argv[:argv.index(flag)] + [f"{flag}={value}"] + argv[argv.index(flag) + 2:]
    assert main(joined) == 0
    assert capsys.readouterr().out == spaced and len(spaced.split()) == 4


def test_option_after_a_valued_flag_is_not_taken_as_its_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["eval", "--point", "--lambda", "1"], ["info", "--out", "-h"],
                 ["eval", "--lambda", "--m", "3"],
                 ["mesh", "--rmin", "--nr", "3", "--out", "x.obj"]):
        assert main(argv) == 2, argv
        assert "expected one argument" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# Flags that let each subcommand run fast, unless the flag under test is one of them.
_QUICK_FLAGS = {"eval": {"--point": "0.5,0.5"}, "verify": {"--samples": "10"},
                "report": {"--samples": "10"}, "info": {},
                "mesh": {"--nr": "3", "--ntheta": "4", "--out": "m.obj"},
                "curvature": {"--nr": "3", "--ntheta": "4", "--out": "K.csv"}}


@pytest.mark.parametrize("cmd", list(cli._SUBCOMMANDS))
def test_every_valued_flag_takes_a_dash_led_value(cmd, tmp_path, monkeypatch, capsys):
    """A token of "-" and a digit, "." or "i" after any valued flag, or after a
    prefix argparse resolves to it, is that flag's value: as if joined by "="."""
    monkeypatch.chdir(tmp_path)
    names = ["--help", *(flag for flag, _ in cli._SUBCOMMANDS[cmd][1])]
    valued = [flag for flag, options in cli._SUBCOMMANDS[cmd][1] if "action" not in options]

    def run(argv):
        return main(argv), *capsys.readouterr()

    for flag in valued:
        rest = [arg for other, value in _QUICK_FLAGS[cmd].items() if other != flag
                for arg in (other, value)]
        # the shortest prefix that names this flag and no other, where there is one
        prefixes = [flag[:end] for end in range(3, len(flag))
                    if [name for name in names if name.startswith(flag[:end])] == [flag]]
        for given in [flag, *prefixes[:1]]:
            for token in ("-1e-3", "-i", "-0.5,0.4", "-1.csv"):
                spaced = run([cmd, given, token, *rest])
                assert spaced == run([cmd, f"{given}={token}", *rest]), (given, token)
                assert "expected one argument" not in spaced[2]


def test_eval_rejects_puncture_and_bad_point(capsys):
    assert main(["eval", "--m", "1", "--n", "1", "--lambda", "0", "--point", "0,0"]) == 2
    assert main(["eval", "--m", "1", "--n", "1", "--lambda", "0", "--point", "zap"]) == 2


def test_usage_errors_exit_two(capsys):
    assert main(["eval", "--m", "2", "--n", "1", "--lambda", "0", "--point", "1,0"]) == 2
    assert main(["eval", "--m", "1", "--n", "1", "--lambda", "1 i", "--point", "1,0"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_verify_exit_zero(capsys):
    rc = main(["verify", "--m", "1", "--n", "1", "--lambda", "1+1i",
               "--samples", "150", "--seed", "42"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nullity: PASS" in out and "suites passed" in out


def test_verify_summary_counts_skipped_suites(capsys):
    rc = main(["verify", "--m", "1", "--n", "3", "--lambda", "1+1i", "--samples", "200"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert sum(" SKIP " in line for line in lines[:-1]) == 2
    assert lines[-1] == "verify: 6/8 suites passed, 0 failed, 2 skipped"


@pytest.mark.parametrize("lam, real", [("1+1e-13i", False), ("1-1e-300i", False),
                                       ("1-0i", True), ("1", True)])
def test_only_an_exactly_real_lambda_runs_the_real_lambda_checks(lam, real, capsys):
    # frames' closed forms, reductions' w = lam z and the three real-lambda
    # displays hold for real lambda only: at 1+1e-13i, frames once compared
    # the member with the closed forms of lambda = 1 and read pq=5.00e-14
    argv = ["--m", "1", "--n", "1", f"--lambda={lam}", "--samples", "100"]
    assert main(["verify", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split(":")[0]: line.split()[1] for line in lines[:-1]}
    assert verdicts["frames"] == verdicts["reductions"] == ("PASS" if real else "SKIP")
    assert lines[-1] == ("verify: 8/8 suites passed, 0 failed, 0 skipped" if real
                         else "verify: 6/8 suites passed, 0 failed, 2 skipped")
    assert main(["report", *argv]) == 0
    shown = {row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]}
    assert shown == ({"h11_general_cart", "h11_real_cart", "h11_real_xu", "h11_real_xv"}
                     if real else {"h11_general_cart"})


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "0"],
    ["verify", "--samples=-1"],
    ["report", "--samples", "0"],
    ["report", "--samples=-1"],
    ["eval", "--point", "nan,0"],
    ["eval", "--point", "1e400,0"],
    ["eval", "--point", "1e-200,0"],
    ["eval", "--lambda", "1e308", "--point", "1,0"],
    ["info", "--lambda", "1e308"],
    # the smallest |lam| whose own coefficients overflow is about 9.48e153
    ["eval", "--lambda=1e155", "--point=0.5,0.5"],
    ["info", "--lambda=1e155"],
    ["mesh", "--lambda=1e155", "--nr=3", "--ntheta=4", "--format=obj"],
    ["mesh", "--nr", "1001", "--ntheta", "1000"],
    ["curvature", "--nr", "2", "--ntheta", "500001"],
    ["verify", "--samples=1000000000000"],
    ["report", "--samples=1000001"],
    ["verify", "--seed=-1"],
    ["report", "--seed=-1"],
    # finite coefficients whose terms overflow to inf - inf in the evaluation's fsum
    ["eval", "--m", "1", "--n", "5", "--lambda", "9e153", "--point", "2,0"],
])
def test_bad_input_exits_two_with_message(argv, tmp_path, monkeypatch, capsys):
    # the grid and sample caps must hold before anything is sampled
    for name in ("sample_grid", "run_verify", "sample_annulus"):
        monkeypatch.setattr(f"wep4.cli.{name}", lambda *a, **k: pytest.fail("sampled"))
    if argv[0] in ("mesh", "curvature"):
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("wep4: error: ") and captured.out == ""
    if argv[0] == "eval" and "the member overflows" not in captured.err:
        assert repr(argv[argv.index("--point") + 1]) in captured.err


@pytest.mark.parametrize("argv, message", [
    *((argv, "the member overflows double precision (") for argv in (
        ["eval", "--lambda", "1e155", "--point", "0,0"],
        ["eval", "--lambda", "1e155"],
        ["mesh", "--lambda", "1e155"],
        ["mesh", "--lambda", "1e155", "--project", "xx", "--out", "x.obj"],
        ["curvature", "--lambda", "1e155", "--nr", "1", "--out", "x.csv"],
        ["verify", "--lambda", "1e155", "--samples", "0"],
        ["report", "--lambda", "1e155", "--seed", "-1"])),
    (["mesh", "--m", "2", "--project", "xx", "--out", "x.obj"], "m must be a positive odd"),
    (["mesh", "--lambda", "1 i", "--project", "xx", "--out", "x.obj"], "bad lambda syntax"),
])
def test_a_bad_member_is_refused_before_any_flag_of_the_command(argv, message, tmp_path,
                                                                 monkeypatch, capsys):
    # main builds the member first, so its refusal wins over a bad point,
    # projection, grid, sample count or seed, or a missing --point or --out
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"wep4: error: {message}") and captured.out == ""
    assert captured.err.count("\n") == 1 and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "2001", "--n", "1", "--samples", "10"],
    ["verify", "--m", "999", "--n", "1"],
    ["verify", "--m", "301", "--n", "301"],
    ["report", "--m", "999", "--n", "1"],
    # w**-4 divides by zero at these radii: refused like an overflow
    ["mesh", "--rmin", "1e-100", "--rmax", "1e-99", "--nr", "2", "--ntheta", "2"],
    ["curvature", "--rmin", "1e-100", "--rmax", "1e-99", "--nr", "2", "--ntheta", "2"],
    # the flags pass, and E overflows blocks after the file was opened: the
    # partial file is removed
    ["curvature", "--m", "1", "--n", "15", "--rmin", "1", "--rmax", "1e10", "--nr", "3000",
     "--ntheta", "2"],
])
def test_member_that_overflows_its_samples_exits_two(argv, tmp_path, capsys):
    # refused with a message: no traceback, no nan verdicts, no RuntimeWarning
    out = tmp_path / "out"
    if argv[0] in ("mesh", "curvature"):
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("wep4: error: ") and captured.out == ""
    assert captured.err.count("\n") == 1 and not out.exists()
    if argv[0] in ("mesh", "curvature"):
        assert captured.err.startswith("wep4: error: the member overflows")


@pytest.mark.parametrize("numerator, message", [(1.0, "divide by zero encountered in divide"),
                                                (0.0, "invalid value encountered in divide")])
def test_other_floating_point_errors_are_not_called_overflows(numerator, message, monkeypatch,
                                                              capsys):
    # under main's errstate numpy raises these too: they exit 2 with numpy's
    # own message, and only an overflow is reported as one
    monkeypatch.setattr(cli, "run_verify", lambda *args: np.array([numerator]) / np.zeros(1))
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"wep4: error: floating-point error ({message})\n"
    assert captured.out == ""


@pytest.mark.parametrize("member", [["--m=1", "--n=1", "--lambda=1e77"],
                                    ["--m=3", "--n=5", "--lambda=1e100i"],
                                    ["--m=9", "--n=9", "--lambda=1e150"]])
def test_member_with_finite_coefficients_is_not_refused(member, tmp_path, capsys):
    # from |lam| of about 1e77 up to 9.48e153 the member's coefficients are
    # finite and their squares are not: the commands that read only values
    # run, and those that square them refuse with one line
    out = tmp_path / "mesh.obj"
    grid = ["--rmin=0.5", "--rmax=0.7", "--nr=3", "--ntheta=4"]
    assert main(["eval", *member, "--point=0.5,0.5"]) == 0
    point = np.array(capsys.readouterr().out.split(), dtype=float)
    assert point.shape == (4,) and np.isfinite(point).all()
    assert main(["info", *member]) == 0
    # json writes an inf or nan coefficient as a bare Infinity or NaN
    json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert main(["mesh", *member, *grid, "--format=obj", f"--out={out}"]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out} (12 vertices")
    vertices = np.array([line.split()[1:] for line in out.read_text().splitlines()
                         if line.startswith("v ")], dtype=float)
    assert vertices.shape == (12, 3) and np.isfinite(vertices).all()
    for argv in (["verify"], ["report"], ["curvature", *grid, f"--out={tmp_path / 'K.csv'}"]):
        assert main([*argv, *member]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("wep4: error: the member overflows double precision (")
        assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "K.csv").exists()


def test_each_command_builds_the_member_once(tmp_path, monkeypatch, capsys):
    # phi_from_triple builds a null form; only the integral-free audit adds
    # a second one, the fixed g = w, h = lam w form
    built = []
    original = henneberg.phi_from_triple

    def counted(triple):
        built.append("fixed_gh" if dict(triple.h).keys() == {1} else "family")
        return original(triple)

    monkeypatch.setattr(henneberg, "phi_from_triple", counted)
    params = FamilyParams(1, 3, 1 + 1j)
    flags = ["--m", "1", "--n", "3", "--lambda", "1+1i"]
    grid = ["--nr", "3", "--ntheta", "4", "--out", str(tmp_path / "out")]
    for run, want in (
        (lambda: run_verify(family_member(params), 50, 42), ["family", "fixed_gh"]),
        (lambda: fidelity_report(family_member(params), np.array([0.9 + 0.2j])), ["family"]),
        (lambda: main(["verify", *flags, "--samples", "50"]), ["family", "fixed_gh"]),
        (lambda: main(["report", *flags, "--samples", "20"]), ["family"]),
        (lambda: main(["info", *flags]), ["family"]),
        (lambda: main(["eval", *flags, "--point", "0.7,0.2"]), ["family"]),
        (lambda: main(["mesh", *flags, *grid]), ["family"]),
        (lambda: main(["curvature", *flags, *grid]), ["family"]),
    ):
        built.clear()
        run()
        assert built == want
    capsys.readouterr()


@pytest.mark.parametrize("argv, unread", [
    (["mesh", "--format", "obj"], "conformal_fields"),
    (["mesh", "--format", "ply"], "conformal_fields"),
    (["curvature"], "immersion_point"),
    (["mesh", "--format", "csv"], None),
])
def test_grid_commands_compute_only_the_columns_they_write(argv, unread, tmp_path, monkeypatch,
                                                           capsys):
    # obj and ply write positions only, curvature E and K only
    if unread:
        monkeypatch.setattr(f"wep4.mesh.{unread}", lambda *a: pytest.fail(f"{unread} was computed"))
    out = tmp_path / "out"
    flags = ["--m", "1", "--n", "3", "--lambda", "1+1i", "--nr", "3", "--ntheta", "4"]
    assert main([*argv, *flags, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out} (12 ")
    if unread is None:
        header, *rows = out.read_text().splitlines()
        assert header == ",".join(CSV_FIELDS) and len(rows) == 12
        assert all(len(row.split(",")) == 9 and "" not in row.split(",") for row in rows)


def test_member_that_only_loses_precision_still_runs(capsys):
    rc = main(["verify", "--m", "99", "--n", "99", "--samples", "50"])
    lines = capsys.readouterr().out.splitlines()
    assert rc in (0, 1) and len(lines) == 9 and lines[-1].startswith("verify: ")
    assert "integral_free: PASS" in lines[6]


@pytest.mark.parametrize("m, n", [(31, 31), (49, 51), (99, 99), (151, 151)])
def test_verify_passes_high_order_members(m, n, capsys):
    # a fixed 64-node quadrature rule FAILed these valid members; (151, 151)
    # runs the 2,048-node rule, on fewer samples to keep the other suites short
    samples = ["--samples=100"] if m > 100 else []
    rc = main(["verify", f"--m={m}", f"--n={n}", *samples])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0, lines
    assert all(": PASS (" in line or ": SKIP (" in line for line in lines[:-1]), lines


SUITES = ("nullity", "back_differentiation", "quadrature", "conformality", "harmonicity",
          "frames", "integral_free", "reductions")


def _verdicts(out: str) -> dict:
    """Suite name -> PASS/FAIL/SKIP from verify's stdout, in printed order."""
    return dict(line.split(" (")[0].split(": ") for line in out.splitlines()[:-1])


@pytest.mark.parametrize("m, n, lam, rc, failing", [
    # m = n: g^2 and h^2 share an exponent, so 1 + lam^2 is rounded once and
    # the nullity defect is rounding-sized, not an exact zero
    (1, 1, "0.1", 0, ()), (1, 1, "0.3", 0, ()), (1, 1, "0.7", 0, ()), (1, 1, "0.3i", 0, ()),
    (1, 1, "1e-3", 0, ()), (1, 1, "1e-8", 0, ()), (5, 5, "0.3i", 0, ()),
    # lam = 0: phi's w^-(m+n+2) term, not the curve's top exponent, sizes the rule
    (1, 13, "0", 0, ()),
    # subnormal lam: eps S underflowed to 0 in quadrature's ratio, which exited 2;
    # back_differentiation's ulp count still reads subnormal rounding as ulps
    (1, 1, "1e-310", 0, ()), (1, 1, "5e-324", 0, ()),
    (1, 9, "1e-310", 1, ("back_differentiation",)),
    (3, 5, "1e-320i", 1, ("back_differentiation",)),
])
def test_verify_verdicts_of_rounding_edge_members(m, n, lam, rc, failing, capsys):
    assert main(["verify", f"--m={m}", f"--n={n}", f"--lambda={lam}"]) == rc
    captured = capsys.readouterr()
    verdicts = _verdicts(captured.out)
    assert tuple(verdicts) == SUITES, captured
    assert {name for name, v in verdicts.items() if v == "FAIL"} == set(failing), captured.out


_LAM_PART = st.one_of(st.just(0.0), st.builds(
    lambda sign, e: sign * 10.0**e, st.sampled_from((1.0, -1.0)),
    st.floats(min_value=-323.3, max_value=0.0)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(1, 16, 2)), st.sampled_from(range(1, 16, 2)), _LAM_PART, _LAM_PART,
       st.integers(min_value=0, max_value=2**32))
def test_verify_never_refuses_a_small_member(m, n, re_part, im_part, seed):
    # back_differentiation, integral_free and reductions compare coefficients
    # in ulps, which still misreads subnormal rounding, so they are left out
    assume(abs(complex(re_part, im_part)) <= 1.0)
    argv = ["verify", f"--m={m}", f"--n={n}", f"--lambda={re_part!r}{im_part:+}i",
            "--samples=20", f"--seed={seed}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1), (argv, err.getvalue())
    verdicts = _verdicts(out.getvalue())
    assert tuple(verdicts) == SUITES, argv
    for name in ("nullity", "quadrature", "conformality", "harmonicity", "frames"):
        assert verdicts[name] != "FAIL", (argv, out.getvalue())


def test_grid_that_overflows_is_refused(tmp_path, capsys):
    out = tmp_path / "K.csv"
    rc = main(["curvature", "--rmax", "1e200", "--nr", "3", "--ntheta", "4",
               "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("wep4: error: ")


def test_verify_deterministic_stdout(capsys):
    argv = ["verify", "--m", "1", "--n", "3", "--lambda", "0.5-2i",
            "--samples", "120", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_mesh_writes_obj(tmp_path, capsys):
    out = tmp_path / "h13.obj"
    rc = main(["mesh", "--m", "1", "--n", "3", "--lambda", "1+1i",
               "--rmin", "0.5", "--rmax", "2", "--nr", "12", "--ntheta", "16",
               "--project", "xyz", "--format", "obj", "--out", str(out)])
    assert rc == 0 and out.exists()
    assert out.read_text().startswith("v ")


def test_mesh_identical_invocations_byte_identical(tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        rc = main(["mesh", "--m", "1", "--n", "1", "--lambda", "1+1i",
                   "--rmin", "0.5", "--rmax", "1.5", "--nr", "5", "--ntheta", "8",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_mesh_bad_projection_is_usage_error(tmp_path, monkeypatch, capsys):
    # the projection is checked before the grid is sampled
    monkeypatch.setattr("wep4.cli.sample_grid", lambda *a: pytest.fail("grid sampled"))
    rc = main(["mesh", "--m", "1", "--n", "1", "--lambda", "0",
               "--project", "xxy", "--format", "obj",
               "--out", str(tmp_path / "x.obj")])
    assert rc == 2
    assert "three distinct axes" in capsys.readouterr().err


def test_report_stdout_csv(capsys):
    rc = main(["report", "--m", "1", "--n", "3", "--lambda", "1+1i", "--samples", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("fixture,check,component,")
    assert "h13_example_cart,value,z" in out and "DEVIATES" in out


def test_curvature_csv(tmp_path, capsys):
    out = tmp_path / "K.csv"
    rc = main(["curvature", "--m", "1", "--n", "1", "--lambda", "1",
               "--rmin", "0.6", "--rmax", "1.8", "--nr", "6", "--ntheta", "8",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,E,K"
    assert len(lines) == 1 + 6 * 8


def test_curvature_of_a_high_order_member_is_empty_only_at_branch_points(tmp_path, capsys):
    # (1, 15): 16 of the 32nd roots of unity lie on the 40 x 80 grid's r = 1 ring
    out = tmp_path / "K.csv"
    rc = main(["curvature", "--m=1", "--n=15", "--lambda=0.0001", "--nr=40", "--ntheta=80",
               f"--out={out}"])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 40 * 80
    assert sum(k == "" for _, _, _, k in rows) == 16


def test_info_json(capsys):
    rc = main(["info", "--m", "1", "--n", "1", "--lambda", "1+1i"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 1 and payload["lambda"] == [1.0, 1.0]
    assert payload["data"]["f"] == {"0": [2.0, 0.0], "-4": [-2.0, 0.0]}
    assert payload["seed"]["3"] == [1 / 3, 0.0]
    assert len(payload["phi"]) == 4 and len(payload["curve"]) == 4


@pytest.mark.parametrize("signed, plain", [("-0", "0"), ("-0i", "0"), ("1-0i", "1")])
def test_info_prints_a_signed_zero_part_of_lambda_as_zero(signed, plain, capsys):
    # the member is the same, so the JSON is the same bytes
    assert main(["info", f"--lambda={signed}"]) == 0
    out = capsys.readouterr().out
    assert main(["info", f"--lambda={plain}"]) == 0
    assert capsys.readouterr().out == out


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 1, "n": 1, "lambda": "0", "point": "1,0"}))
    rc = main(["--config", str(config), "eval"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0 0 2 0"
    # explicit flag wins over the config value
    rc = main(["--config", str(config), "eval", "--lambda", "1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "-1.3333333333333333 0 2 2"


@pytest.mark.parametrize("text, argv", [
    ('{"point": [1, 0]}', ["eval"]),
    ('{"project": 5}', ["mesh", "--nr=3", "--ntheta=4"]),
    ('{"nr": 40.5}', ["curvature", "--ntheta=4"]),
    ('{"samples": 2.5}', ["verify"]),
    ('{"format": "stl"}', ["mesh", "--nr=3", "--ntheta=4"]),
    ('{"m": 1,', ["info"]),
    ('{"open-seam": "yes"}', ["curvature", "--nr=3", "--ntheta=4"]),
    ('{"seed": -1}', ["report", "--samples=10"]),
    ('{"m": true}', ["info"]),
    # nested too deep for the JSON decoder, which raises RecursionError
    pytest.param('{"m": ' + "[" * 100_000 + "]" * 100_000 + "}", ["eval", "--point", "1,0"],
                 id="deep-nesting"),
    # a path that open() refuses, which no shell argument can hold
    ('{"out": "a\\u0000b"}', ["info"]),
])
def test_bad_config_value_exits_two_like_the_flag(text, argv, tmp_path, capsys):
    # config values go through argparse's type= and choices= and the same
    # checks as flags; an uncaught exception would fail the test in process
    config = tmp_path / "cfg.json"
    config.write_text(text)
    if argv[0] in ("mesh", "curvature"):
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(["--config", str(config), *argv]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_one_parser_serves_a_config_call_then_a_plain_call(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 3, "lambda": "1+1i", "samples": 50, "seed": 7}))
    parser = _build_parser()
    first = _parse_args(parser, ["--config", str(config), "verify", "--seed=9"])
    assert (first.m, first.n, first.lam, first.samples, first.seed) == (3, 1, "1+1i", 50, 9)
    second = _parse_args(parser, ["verify"])
    assert vars(second) == {**DEFAULTS, "samples": 1000, "command": "verify", "config": None}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _eager_parser():
    """The wep4 parser built the plain argparse way: every flag of every
    subcommand added up front, from the same table."""
    parser = argparse.ArgumentParser(
        prog="wep4", description="Closed-form Henneberg-type minimal surfaces in R4")
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in cli._SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def test_lazily_filled_parsers_format_as_the_eager_ones(capsys):
    lazy, eager = _build_parser(), _eager_parser()
    assert lazy.format_help() == eager.format_help()
    assert lazy.format_usage() == eager.format_usage()
    for name, parser in _subparsers(eager).items():
        lazy_parser = _subparsers(lazy)[name]
        lazy_parser.parse_known_args([])
        assert lazy_parser.format_help() == parser.format_help()
        assert lazy_parser.format_usage() == parser.format_usage()
        assert main([name, "--help"]) == 0
        assert capsys.readouterr().out == parser.format_help()


def test_a_call_fills_only_its_own_subcommand(tmp_path, monkeypatch, capsys):
    parser = _build_parser()
    argv = ["eval", "--m=3", "--lambda=0.5-2i", "--point=0.7,-0.3"]
    assert _parse_args(parser, argv) == _parse_args(parser, argv)  # no flag added twice
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lambda": "1+1i", "samples": 5}))
    # the top-level parser alone, or it and the running subcommand's parser
    calls = [(["--help"], 1), ([], 1), (["evl"], 1),
             *(([name, "--help"], 2) for name in cli._SUBCOMMANDS),
             (argv, 2), (["--config", str(config), "verify"], 2)]
    for call, parsers in calls:
        built.clear()
        assert main(call) in (0, 2)
        assert len(built) == parsers, call
    capsys.readouterr()
    # a subcommand parser that has not run yet is built by its first use of any kind
    for name, parsed in _subparsers(parser).items():
        parsed.parse_known_args([])
        assert _subparsers(_build_parser())[name].format_help() == parsed.format_help()
        assert repr(_subparsers(_build_parser())[name]) == repr(parsed)
        assert copy.copy(_subparsers(_build_parser())[name]).format_help() == parsed.format_help()


def test_defaults_hold_the_dest_of_every_table_flag_and_no_other():
    # _parse_args fills a flag that was not given from DEFAULTS by its dest
    table = [(name, flag, options) for name, (_, flags) in cli._SUBCOMMANDS.items()
             for flag, options in flags]
    dests = {options.get("dest", flag[2:].replace("-", "_")) for _, flag, options in table}
    assert dests == set(DEFAULTS)
    assert set(DEFAULTS["samples"]) == {name for name, flag, _ in table if flag == "--samples"}


def test_config_open_seam_true_gives_the_open_seam_grid(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"open-seam": True, "nr": 3, "ntheta": 4, "format": "csv"}))
    out = tmp_path / "open.csv"
    assert main(["--config", str(config), "mesh", "--out", str(out)]) == 0
    # 3 x 4 vertices; the open seam drops one column of cells: 2 x 3 quads, not 2 x 4
    assert capsys.readouterr().out == f"wrote {out} (12 vertices, 6 quads)\n"


def test_one_config_serves_eval_and_verify(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"point": "0.7,-0.3", "samples": 60, "lambda": "0.5-2i"}))
    member = ["--m=1", "--n=1", "--lambda=0.5-2i"]
    for argv in (["eval", "--point=0.7,-0.3"], ["verify", "--samples=60", "--seed=42"]):
        assert main(["--config", str(config), argv[0]]) == 0
        from_config = capsys.readouterr().out
        assert main([argv[0], *member, *argv[1:]]) == 0
        assert capsys.readouterr().out == from_config != ""


@pytest.mark.parametrize("config, argv, flags", [
    ({"lambda": 1, "point": "1,0"}, ["eval"], ["eval", "--lambda=1", "--point=1,0"]),
    ({"m": 3, "n": 5, "lambda": 0.5, "point": "-0.5,0.4"}, ["eval"],
     ["eval", "--m=3", "--n=5", "--lambda=0.5", "--point=-0.5,0.4"]),
    ({"n": 3, "lambda": "1+1i", "samples": 40, "seed": 7}, ["report"],
     ["report", "--n=3", "--lambda=1+1i", "--samples=40", "--seed=7"]),
    ({"m": 3, "lambda": "0.5-2i", "samples": 80, "format": "stl"}, ["verify"],
     ["verify", "--m=3", "--lambda=0.5-2i", "--samples=80"]),
    ({"n": 3, "lambda": 2e-3}, ["info"], ["info", "--n=3", "--lambda=0.002"]),
])
def test_config_call_prints_the_bytes_of_the_same_flags(config, argv, flags, tmp_path, capsys):
    # a JSON number is its text as a flag value; keys of other commands are ignored
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), *argv]) == 0
    from_config = capsys.readouterr().out
    assert main(flags) == 0
    assert capsys.readouterr().out == from_config != ""


@pytest.mark.parametrize("config, argv, key", [
    # a misspelt key would leave lambda at 0; a key in the dest's spelling
    # would leave the closed seam (8 quads, where the open seam gives 6)
    ({"lamda": "1+1i", "point": "0.5,0.5"}, ["eval"], "lamda"),
    ({"open_seam": True, "nr": 3, "ntheta": 4}, ["mesh"], "open_seam"),
])
def test_config_key_no_subcommand_knows_exits_two_naming_it(config, argv, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.obj"
    if argv[0] == "mesh":
        argv = argv + ["--out", str(out)]
    assert main(["--config", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"wep4: error: --config key {key!r} is not a flag of any subcommand\n"
    assert captured.out == "" and not out.exists()


# Good and bad values of every valued flag; the bad ones are dash-led, nan,
# inf, empty, huge or of the wrong type.  A valid grid has at most 8 x 8
# vertices and a valid sample count is at most 50, so every accepted draw is
# cheap; the huge counts are far past their caps and refused before any work.
_ORDERS = (["1", "3"], ["-1", "2", "", "x", "1.5", "99999999999999999999"])
_FUZZ_VALUES = {
    "m": _ORDERS,
    "n": _ORDERS,
    "lambda": (["0", "1+1i", "-0.5-2i", "-2i"],
               ["nan", "inf", "", "1e400", "-x", "1e308+1e308i"]),
    "point": (["0.7,0.2", "-0.5,0.4", "-.5,-1e-1"],
              ["0,0", "nan,0", "inf,1", "", "1", "a,b", "1e400,0", "1e300,0"]),
    "rmin": (["0.5", "0.9"], ["1e-300", "-1", "0", "nan", "inf", "", "x"]),
    "rmax": (["2", "1.5"], ["1e308", "0.1", "nan", "-inf", ""]),
    "nr": (["2", "8"], ["0", "-3", "2.5", "", "10000000"]),
    "ntheta": (["2", "8"], ["1", "-8", "x", "", "10000000"]),
    "open-seam": ([True], ["yes"]),
    "project": (["xyz", "wzy"], ["xxy", "xyzw", "-x", "5", ""]),
    "format": (["obj", "ply", "csv"], ["stl", ""]),
    "samples": (["1", "50"], ["0", "-5", "1e3", "", "10000000000"]),
    "seed": (["0", "42"], ["-1", "x", "", "99999999999999999999999"]),
    "out": (["file"], ["dir", ""]),  # resolved under a temporary directory
}
# The flags of each subcommand.  --nr, --ntheta and --samples are always
# given, since their defaults would make a draw expensive, and so is --out;
# any other flag may be left out.
_FUZZ_COMMANDS = {
    "eval": ("m", "n", "lambda", "point"),
    "mesh": ("m", "n", "lambda", "rmin", "rmax", "nr", "ntheta", "open-seam", "project",
             "format", "out"),
    "verify": ("m", "n", "lambda", "samples", "seed"),
    "report": ("m", "n", "lambda", "samples", "seed", "out"),
    "curvature": ("m", "n", "lambda", "rmin", "rmax", "nr", "ntheta", "open-seam", "out"),
    "info": ("m", "n", "lambda", "out"),
}
_ALWAYS = ("nr", "ntheta", "samples", "out")


@st.composite
def _command_and_values(draw):
    """A subcommand and a value for some of its flags: at most two of them
    bad, so that about a third of the draws are valid command lines."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    flags = _FUZZ_COMMANDS[command]
    bad = draw(st.sets(st.sampled_from(flags), max_size=2))
    values = {}
    for flag in flags:
        good, wrong = _FUZZ_VALUES[flag]
        pool = wrong if flag in bad else good + ([] if flag in _ALWAYS else [None])
        value = draw(st.sampled_from(pool))
        if value is not None:
            values[flag] = value
    return command, values


def _run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_command_and_values())
def test_any_flags_or_config_exit_zero_one_or_two(case):
    # an escaped exception fails the test, and pytest makes an escaped
    # RuntimeWarning an error (pyproject.toml)
    command, values = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"file": str(Path(tmp) / "out.txt"), "dir": tmp, "": ""}
        if "out" in values:
            values = {**values, "out": paths[values["out"]]}
        argv = [command]
        for flag, value in values.items():
            argv += [f"--{flag}"] if value is True else [f"--{flag}", value]
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(values))
        for args in (argv, ["--config", str(config), command]):
            rc, _, err = _run_main(args)
            assert rc in (0, 1, 2), (args, rc, err)
            assert "Traceback" not in err, (args, err)


def _polar(r_lo: float, r_hi: float):
    """Complex numbers with a log-uniform modulus from r_lo to r_hi, at any angle."""
    return st.builds(lambda e, t: 10.0 ** e * complex(np.cos(t), np.sin(t)),
                     st.floats(np.log10(r_lo), np.log10(r_hi)), st.floats(0, 2 * np.pi))


_ODD = st.integers(0, 7).map(lambda k: 2 * k + 1)


@settings(max_examples=300, deadline=None)
@given(_ODD, _ODD, _polar(1e-300, 9e153), _polar(1e-3, 1e3))
@example(1, 5, 9e153 + 0j, 2 + 0j)  # its terms overflow to inf - inf in fsum
def test_eval_of_any_member_prints_a_point_or_refuses(m, n, lam, w):
    # every member the CLI builds, up to |lam| of about 9.48e153: an escaped
    # exception or RuntimeWarning fails the test (pyproject.toml)
    rc, out, err = _run_main(["eval", f"--m={m}", f"--n={n}",
                              f"--lambda={lam.real!r}{lam.imag:+.17g}i",
                              f"--point={w.real!r},{w.imag!r}"])
    if rc == 0:
        point = [float(token) for token in out.split()]
        assert len(point) == 4 and np.isfinite(point).all() and err == "", (out, err)
    else:
        assert rc == 2 and out == "", (rc, out, err)
        assert err.startswith("wep4: error: ") and err.count("\n") == 1, err


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(3.0)
@example(-123456789.0)
@example(9999999999999998.0)  # the largest integral value below 1e16 that keeps its digits
@example(2.0**53)
@example(1e-9)
@example(-3.3e-8)
@example(1e-7)
@example(5.5e-6)
@example(1e-5)
@example(-5.5e-5)
@example(1e-4)
@example(9.999999999999999e-05)
@example(1e16)
@example(-1.5e17)
@example(1e100)
@example(1.7976931348623157e308)
@example(5e-324)
@example(-2.2250738585072009e-308)
def test_scalar_repr_rule_is_format_columns_rule(x):
    # one rule, two implementations: eval's pure-Python reference and the
    # export kernel's vectorized edits of orjson's text
    assert cli._format_value(x) == format_column([x])[0]


# the environment of a fresh interpreter that imports wep4 from this tree
_FRESH_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], env=_FRESH_ENV, capture_output=True,
                          text=True, check=True).stdout


_LOADED = "print(sorted(m for m in ('numpy', 'orjson') if m in sys.modules))"


@pytest.mark.parametrize("code", [
    "import wep4",
    "import wep4.cli",
    "from wep4.cli import main; assert main(['eval', '--m=3', '--n=5', '--lambda=0.5-2i', "
    "'--point=0.7,-0.3']) == 0",
    "from wep4.cli import main; assert main(['info', '--m=1', '--n=3', '--lambda=1+1i']) == 0",
    "from wep4.cli import main; assert main(['--help']) == 0",
    "from wep4.cli import main; assert main(['mesh', '--help']) == 0",
    "from wep4.cli import main; assert main(['eval', '--lambda=1+1i']) == 2",
    "from wep4.cli import main; assert main(['verify', '--m=2']) == 2",
], ids=["import", "import-cli", "eval", "info", "help", "mesh-help", "usage-error", "bad-member"])
def test_scalar_commands_load_no_numpy(code):
    # this test process has numpy loaded, so look from a fresh one
    assert _fresh(f"import sys; {code}; {_LOADED}").splitlines()[-1] == "[]"


def test_array_commands_load_numpy_and_orjson(tmp_path):
    out = str(tmp_path / "x.obj")
    code = (f"import sys; from wep4.cli import main; "
            f"assert main(['mesh', '--nr=3', '--ntheta=4', '--out', {out!r}]) == 0; {_LOADED}")
    assert _fresh(code).splitlines()[-1] == "['numpy', 'orjson']"


def test_package_names_load_on_first_use():
    import wep4

    code = ("import sys, wep4; from wep4 import PolarGrid, immersion_point, surface_jet; "
            "print(PolarGrid.__module__, immersion_point.__module__, 'numpy' in sys.modules)")
    assert _fresh(code).split() == ["wep4.mesh", "wep4.geometry", "True"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wep4.no_such_name


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("argv, name", [
    (["mesh", "--format=obj"], "x.obj"),
    (["mesh", "--format=csv"], "x.csv"),
    (["curvature"], "k.csv"),
    (["info"], "i.json"),
    (["report", "--samples=20"], "r.csv"),
])
def test_out_to_redirected_stdout_writes_the_file_then_the_wrote_line(argv, name, tmp_path):
    # --out /dev/stdout with stdout redirected to a file: the export's bytes,
    # then the wrote line, none overwritten
    member = ["--m=1", "--n=3", "--lambda=1+1i"]
    grid = ["--nr=6", "--ntheta=8"] if argv[0] in ("mesh", "curvature") else []
    command = [sys.executable, "-m", "wep4.cli", *argv, *member, *grid]
    plain = subprocess.run([*command, "--out", name], cwd=tmp_path, env=_FRESH_ENV,
                           capture_output=True, check=True).stdout
    with open(tmp_path / "stdout", "wb") as fh:
        subprocess.run([*command, "--out", "/dev/stdout"], cwd=tmp_path, env=_FRESH_ENV,
                       stdout=fh, check=True)
    expected = (tmp_path / name).read_bytes() + plain.replace(name.encode(), b"/dev/stdout")
    assert (tmp_path / "stdout").read_bytes() == expected
