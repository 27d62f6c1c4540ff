"""Command line surface: parsing, dispatch, exit codes, determinism."""

import json

import pytest

from wep4.cli import DEFAULTS, UsageError, _build_parser, _parse_args, main, parse_lambda


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
                                         ("--lambda", "-2i"), ("--point", "-.5,-1e-1")])
def test_dash_led_values_match_the_equals_form(flag, value, capsys):
    argv = ["eval", "--m", "1", "--n", "3", "--lambda", "0.5", "--point", "0.7,0.2"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 0
    spaced = capsys.readouterr().out
    joined = argv[:argv.index(flag)] + [f"{flag}={value}"] + argv[argv.index(flag) + 2:]
    assert main(joined) == 0
    assert capsys.readouterr().out == spaced and len(spaced.split()) == 4


def test_option_after_a_valued_flag_is_not_taken_as_its_value(capsys):
    assert main(["eval", "--point", "--lambda", "1"]) == 2
    assert "expected one argument" in capsys.readouterr().err


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
    ["mesh", "--nr", "1001", "--ntheta", "1000"],
    ["curvature", "--nr", "2", "--ntheta", "500001"],
    ["verify", "--samples=1000000000000"],
    ["report", "--samples=1000001"],
    ["verify", "--seed=-1"],
    ["report", "--seed=-1"],
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
