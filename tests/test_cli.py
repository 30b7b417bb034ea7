import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, strategies as st

from implisolve import SolverOptions, cli
from implisolve.cli import main

CIRCLE_SPEC = {
    "functions": ["x^2 + y^2 - 1"],
    "variables": ["x", "y"],
    "split_n": 1,
    "seed": [0.0, 1.0],
    "options": {"h0": 0.8},
}

QUAD_SPEC = {
    "functions": ["y1^2 + y2 - x - 1", "y1 + y2^2 - x - 1"],
    "variables": ["x", "y1", "y2"],
    "split_n": 1,
    "seed": [1.0, 1.0, 1.0],
}

SQUARE_MAP_SPEC = {
    "functions": ["x1^2 - x2^2", "2*x1*x2"],
    "variables": ["x1", "x2"],
    "seed": [1.0, 1.0],
}

CUBIC_SPEC = {
    "functions": ["x^3"],
    "variables": ["x"],
    "seed": [0.0],
}

# level 2 solves y2 = 1e30 x^2, whose root leaves every box the search tries
STEEP_SPEC = {
    "functions": ["y1 - x", "y2 - 1e30*x^2"],
    "variables": ["x", "y1", "y2"],
    "split_n": 1,
    "seed": [0.0, 0.0, 0.0],
}


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run_main(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_implicit_circle_queries(tmp_path):
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    code, text = run_main(
        ["implicit", "--spec", spec, "--query", "0", "--query", "0.3", "--query", "0.6"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    assert len(doc["results"]) == 3
    row = doc["results"][2]
    assert abs(row["value"][0] - 0.8) < 1e-10
    assert abs(row["jacobian"][0][0] + 0.75) < 1e-8
    assert row["residual"] <= 1e-9
    assert doc["box"][0]["sign"] == 1


def test_implicit_quad_pair_query(tmp_path):
    spec = write_spec(tmp_path, "quad.json", QUAD_SPEC)
    code, text = run_main(["implicit", "--spec", spec, "--query", "1"])
    assert code == 0
    doc = json.loads(text)
    row = doc["results"][0]
    assert max(abs(v - 1.0) for v in row["value"]) < 1e-9
    assert abs(row["jacobian"][0][0] - 1 / 3) < 1e-8
    assert abs(row["jacobian"][1][0] - 1 / 3) < 1e-8


def test_implicit_deeply_nested_sum(tmp_path):
    # 250 terms nest 250 deep, beyond what CPython compiles as one expression
    spec = write_spec(
        tmp_path,
        "deep.json",
        {
            "functions": [" + ".join(["y"] * 250) + " - 250"],
            "variables": ["x", "y"],
            "split_n": 1,
            "seed": [0.0, 1.0],
        },
    )
    code, text = run_main(["implicit", "--spec", spec, "--query", "0.25"])
    assert code == 0
    row = json.loads(text)["results"][0]
    assert row["value"] == [1.0]
    assert row["jacobian"] == [[0.0]]


@pytest.mark.parametrize(
    "function",
    [
        " + ".join(["y"] * 1200) + " - 1200",
        "(" * 300 + "y - 1" + ")" * 300,
        "-" * 600 + "y",
    ],
    ids=["sum_1200_terms", "parentheses_300", "minus_600"],
)
def test_implicit_rejects_deep_nesting(tmp_path, capsys, function):
    spec = write_spec(
        tmp_path,
        "deep.json",
        {"functions": [function], "variables": ["x", "y"], "split_n": 1, "seed": [0.0, 1.0]},
    )
    code, text = run_main(["implicit", "--spec", spec, "--query", "0.25"])
    assert text == ""
    assert "nested more than 256 levels deep" in assert_one_line_error(capsys, code)


def test_implicit_grid_and_csv(tmp_path):
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    code, text = run_main(
        ["implicit", "--spec", spec, "--grid", "-0.5:0.5:5", "--out", "csv"]
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "query_0,value_0,jac_0_0,residual,ok,error"
    assert len(lines) == 6


def test_implicit_outside_box_exit_2(tmp_path):
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    code, text = run_main(["implicit", "--spec", spec, "--query", "0", "--query", "5"])
    assert code == 2
    doc = json.loads(text)
    assert doc["passed"] is False
    assert doc["results"][0]["ok"] is True
    assert doc["results"][1]["ok"] is False
    assert doc["results"][1]["error"] == (
        "OutsideBox: point (5.0,) outside validated box (recursion level 1)"
    )
    assert doc["results"][1]["diagnostics"] == {"level": 1}


def test_spec_errors_exit_1(tmp_path):
    bad_seed = dict(CIRCLE_SPEC, seed=[0.5, 1.0])
    spec = write_spec(tmp_path, "bad.json", bad_seed)
    code, _ = run_main(["implicit", "--spec", spec, "--query", "0"])
    assert code == 1

    bad_syntax = dict(CIRCLE_SPEC, functions=["x +"])
    spec = write_spec(tmp_path, "syntax.json", bad_syntax)
    code, _ = run_main(["implicit", "--spec", spec, "--query", "0"])
    assert code == 1

    code, _ = run_main(["implicit", "--spec", str(tmp_path / "missing.json")])
    assert code == 1


def assert_one_line_error(capsys, code):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


SPEC = "<spec>"  # stands for the case's spec file in an argv below
ON_SPEC = ["implicit", "--spec", SPEC]
IMPLICIT = ON_SPEC + ["--query", "0"]
LEMMA1 = ["verify", "--lemma", "lemma1", "--matrix", "1,0;0,1"]
# flags of another command, each appended to an argv that is otherwise valid
DROPPED_FLAGS = [
    (IMPLICIT, "--seed", "7"),
    (["invert", "--spec", SPEC, "--query", "0,2"], "--seed", "7"),
    (LEMMA1, "--grid", "0:1:2"),
    (LEMMA1, "--out", "json"),
    (LEMMA1, "--tol-root", "1e-9"),
    (LEMMA1, "--tol-sys", "1e-9"),
    (LEMMA1, "--box-halfwidth", "0.5"),
    (LEMMA1, "--grid-density", "5"),
]
HALFWIDTH = "argument --box-halfwidth: takes 'h' or 'h_indep,h_dep', got "


@pytest.mark.parametrize(
    "spec,argv,message",
    [
        pytest.param("{functions", IMPLICIT, "spec file is not valid JSON", id="spec_not_json"),
        pytest.param([1, 2], IMPLICIT, "spec file must hold a JSON object", id="spec_not_object"),
        pytest.param({k: v for k, v in CIRCLE_SPEC.items() if k != "seed"}, IMPLICIT,
                     "spec file missing required field 'seed'", id="spec_without_seed"),
        *[
            pytest.param({k: v for k, v in SQUARE_MAP_SPEC.items() if k != "seed"},
                         argv[:1] + ["--spec", SPEC] + argv[1:],
                         "spec file missing required field 'seed'", id=f"{name}_without_seed")
            for name, argv in [
                ("invert", ["invert", "--query", "0,2"]),
                ("lemma2", ["verify", "--lemma", "lemma2"]),
                ("lemma4", ["verify", "--lemma", "lemma4"]),
            ]
        ],
        pytest.param(dict(CIRCLE_SPEC, options=[1]), IMPLICIT,
                     "spec field 'options' must be an object", id="options_not_object"),
        pytest.param(CIRCLE_SPEC, IMPLICIT + ["--box-halfwidth", "1,2,3"], HALFWIDTH + "'1,2,3'",
                     id="halfwidth_three_parts"),
        pytest.param(CIRCLE_SPEC, IMPLICIT + ["--box-halfwidth", "abc"], HALFWIDTH + "'abc'",
                     id="halfwidth_not_a_number"),
        pytest.param(CIRCLE_SPEC, ON_SPEC + ["--query", "1,abc"], "bad query '1,abc'",
                     id="query_not_a_number"),
        pytest.param(CIRCLE_SPEC, ON_SPEC + ["--grid", "0:1"],
                     "grid axis '0:1' is not 'lo:hi:steps'", id="grid_two_parts"),
        pytest.param(CIRCLE_SPEC, ON_SPEC + ["--grid", "0:1:0"],
                     "grid steps must be at least 1", id="grid_zero_steps"),
        pytest.param(CIRCLE_SPEC, ON_SPEC + ["--query", "0,1"],
                     "query (0.0, 1.0) has dim 2, expected 1", id="query_wrong_dim"),
        pytest.param(CIRCLE_SPEC, ON_SPEC + ["--grid", "0:1:2", "--grid", "0:1:2"],
                     "--grid given 2 axes, need exactly 1", id="grid_wrong_axis_count"),
        pytest.param(CIRCLE_SPEC, ["verify", "--lemma", "lemma1", "--matrix", "1,2;3"],
                     "bad matrix '1,2;3'", id="matrix_ragged"),
        pytest.param(SQUARE_MAP_SPEC, IMPLICIT,
                     "implicit command needs 'split_n' in the spec file",
                     id="implicit_without_split_n"),
        pytest.param(STEEP_SPEC, IMPLICIT, " (recursion level 2)\n",
                     id="box_not_found_names_level"),
        *[
            pytest.param(spec, argv,
                         "spec field 'seed' must have one value per variable (2), got 1", id=name)
            for name, spec, argv in [
                ("lemma2_seed_wrong_dim", dict(SQUARE_MAP_SPEC, seed=[1.0]),
                 ["verify", "--lemma", "lemma2", "--spec", SPEC]),
                ("implicit_seed_wrong_dim", dict(CIRCLE_SPEC, seed=[0.0]), IMPLICIT),
                ("invert_seed_wrong_dim", dict(SQUARE_MAP_SPEC, seed=[1.0]),
                 ["invert", "--spec", SPEC, "--query", "0,2"]),
                ("lemma4_seed_wrong_dim", dict(SQUARE_MAP_SPEC, seed=[1.0]),
                 ["verify", "--lemma", "lemma4", "--spec", SPEC]),
            ]
        ],
        pytest.param(CUBIC_SPEC, ["verify", "--lemma", "lemma3", "--spec", SPEC, "--query", "0"],
                     "lemma3 needs exactly two --query points", id="lemma3_one_query"),
        pytest.param(CIRCLE_SPEC, ["implicit", "--query", "0"],
                     "the following arguments are required: --spec", id="spec_flag_missing"),
        pytest.param(CIRCLE_SPEC, IMPLICIT + ["--grid-density", "x"],
                     "argument --grid-density: invalid int value: 'x'",
                     id="grid_density_not_an_int"),
        pytest.param(CIRCLE_SPEC, IMPLICIT + ["--grid-density", str(10**400)],
                     "bad solver options: grid_density must be at most 10000",
                     id="grid_density_flag_beyond_cap"),
        pytest.param(CIRCLE_SPEC, IMPLICIT + ["--bogus", "1"],
                     "unrecognized arguments: --bogus 1", id="unknown_flag"),
        *[
            pytest.param(SQUARE_MAP_SPEC if argv[0] == "invert" else CIRCLE_SPEC,
                         argv + [flag, value], f"unrecognized arguments: {flag} {value}",
                         id=f"{argv[0]}{flag}")
            for argv, flag, value in DROPPED_FLAGS
        ],
        pytest.param(SQUARE_MAP_SPEC,
                     ["verify", "--lemma", "lemma4", "--spec", SPEC, "--matrix", "1,0;0,1"],
                     "lemma4 does not read --matrix", id="lemma4_matrix"),
        pytest.param({**QUAD_SPEC, "optoins": {"h0": 0.8}}, IMPLICIT,
                     "implicit does not read spec field 'optoins'", id="spec_field_misspelled"),
        pytest.param(dict(SQUARE_MAP_SPEC, split_n=1),
                     ["invert", "--spec", SPEC, "--query", "0,2"],
                     "invert does not read spec field 'split_n'", id="invert_split_n"),
        pytest.param(dict(SQUARE_MAP_SPEC, options={"h0": 7.0}),
                     ["verify", "--lemma", "lemma4", "--spec", SPEC],
                     "verify does not read spec field 'options'", id="verify_options"),
        *[
            pytest.param(dict(CIRCLE_SPEC, options={field: value}), IMPLICIT,
                         f"bad solver options: {message}", id=f"option_{case}")
            for case, field, value, message in [
                ("tol_root_str", "tol_root", "abc", "tol_root must be an int or a float, got str"),
                ("h0_list", "h0", [1], "h0 must be an int or a float, got list"),
                ("tol_root_bool", "tol_root", True, "tol_root must be an int or a float, got bool"),
                ("grid_density_float", "grid_density", 2.5, "grid_density must be an int, got float"),
                ("h0_beyond_float_range", "h0", 10**400, "h0 must be finite and positive"),
                ("grid_density_beyond_cap", "grid_density", 10**400,
                 "grid_density must be at most 10000"),
            ]
        ],
        pytest.param(dict(CIRCLE_SPEC, seed=[0, 10**400]), IMPLICIT,
                     "spec field 'seed' must be finite, got [0.0, inf]",
                     id="implicit_seed_beyond_float_range"),
        pytest.param(dict(SQUARE_MAP_SPEC, seed=[0, -10**400]),
                     ["verify", "--lemma", "lemma4", "--spec", SPEC],
                     "spec field 'seed' must be finite, got [0.0, -inf]",
                     id="lemma4_seed_beyond_float_range"),
    ],
)
def test_rejected_argv_exit_1(tmp_path, capsys, spec, argv, message):
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    code, text = run_main([str(path) if arg == SPEC else arg for arg in argv])
    assert text == ""
    assert message in assert_one_line_error(capsys, code)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["implicit", "--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: implisolve")


@pytest.mark.parametrize(
    "command,spec,message",
    [
        ("implicit", dict(QUAD_SPEC, functions=["y1 - x", "y2 + ) - x"]),
         "functions[1]: unexpected character ')' (position 5)"),
        ("implicit", dict(QUAD_SPEC, functions=["y1 - q", "y2 - x"]),
         "functions[0]: unknown identifier 'q' (position 5)"),
        ("invert", dict(SQUARE_MAP_SPEC, functions=["x1", "x2 *"]),
         "functions[1]: "),
    ],
)
def test_parse_error_names_the_function(tmp_path, capsys, command, spec, message):
    path = write_spec(tmp_path, "bad.json", spec)
    code, text = run_main([command, "--spec", path, "--query", "1"])
    assert text == ""
    assert assert_one_line_error(capsys, code).startswith(f"error: {message}")


def test_every_solver_option_is_accepted_by_name(tmp_path, monkeypatch):
    options = {
        "tol_root": 1e-11,
        "tol_sys": 1e-8,
        "h0": 0.8,
        "h0_dep": 0.7,
        "grid_density": 7,
    }
    assert set(options) == {f.name for f in dataclasses.fields(SolverOptions)}
    built = []
    build_system = cli.build_system

    def recording_build_system(F, seed, opts):
        built.append(opts)
        return build_system(F, seed, opts)

    monkeypatch.setattr(cli, "build_system", recording_build_system)
    spec = write_spec(tmp_path, "circle.json", dict(CIRCLE_SPEC, options=options))
    code, text = run_main(["implicit", "--spec", spec, "--query", "0.3"])
    assert code == 0
    assert json.loads(text)["passed"] is True
    assert built == [SolverOptions(**options)]


def test_unknown_option_key_exit_1(tmp_path, capsys):
    # max_iter, max_shrink and max_depth were options once; their limits are
    # now built into the solvers. tol_seed was too; seeds are checked
    # against tol_sys.
    options = {
        "h0": 0.8, "bogus": 1, "max_iter": 200, "max_shrink": 40, "max_depth": 6,
        "tol_seed": 1e-9,
    }
    spec = write_spec(tmp_path, "bad.json", dict(CIRCLE_SPEC, options=options))
    code, text = run_main(["implicit", "--spec", spec, "--query", "0"])
    assert text == ""
    assert assert_one_line_error(capsys, code) == (
        "error: unknown option keys: "
        "['bogus', 'max_depth', 'max_iter', 'max_shrink', 'tol_seed']\n"
    )


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--tol-root", "inf", "tol_root must be finite and positive"),
        ("--box-halfwidth", "inf", "h0 must be finite and positive"),
        ("--box-halfwidth", "0.5,inf", "h0_dep must be finite and positive"),
    ],
)
def test_infinite_option_flag_exit_1(tmp_path, capsys, flag, value, message):
    # an m = 1 spec, whose queries size their ITP iteration count by log2(tol_root)
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    code, text = run_main(["implicit", "--spec", spec, "--query", "0.3", flag, value])
    assert text == ""
    assert assert_one_line_error(capsys, code) == f"error: bad solver options: {message}\n"


@pytest.mark.parametrize("query", ["nan", "inf", "-inf", "0,nan"])
def test_non_finite_query_exit_1(tmp_path, capsys, query):
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    code, text = run_main(["implicit", "--spec", spec, f"--query={query}"])
    assert text == ""
    assert_one_line_error(capsys, code)


@pytest.mark.parametrize("axis", ["0:nan:3", "-inf:0.5:3", "0:inf:2"])
def test_non_finite_grid_exit_1(tmp_path, capsys, axis):
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    code, text = run_main(["implicit", "--spec", spec, f"--grid={axis}"])
    assert text == ""
    assert_one_line_error(capsys, code)


@pytest.mark.parametrize(
    "spec,argv,flag,value",
    [
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC], "--query", "-0.1,0.2,0.3"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC], "--query", "-1e-1"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC], "--query", "-.5"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC], "--grid", "-1:1:3"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC], "--grid", "-0.5:0.5:3"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC, "--query", "0"], "--tol-root", "-1e-3"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC, "--query", "0"], "--tol-sys", "-inf"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC, "--query", "0"], "--box-halfwidth", "-0.5,0.5"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC, "--query", "0"], "--grid-density", "-9e0"),
        (CIRCLE_SPEC, ["implicit", "--spec", SPEC, "--query", "0"], "--out", "-1"),
        (CIRCLE_SPEC, ["implicit", "--query", "0"], "--spec", "-1.json"),
        (SQUARE_MAP_SPEC, ["invert", "--spec", SPEC], "--query", "-1e-2,2"),
        (SQUARE_MAP_SPEC, ["invert", "--spec", SPEC, "--query", "0,2"], "--tol-root", "-NaN"),
        (SQUARE_MAP_SPEC, ["verify"], "--lemma", "-1"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma1"], "--matrix", "-1,0;0,1"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma1", "--matrix", "1,0;0,1"], "--trials", "-5e0"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma1", "--matrix", "1,0;0,1"], "--seed", "-7"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma1", "--matrix", "1,0;0,1"], "--seed", "-7e0"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma2", "--spec", SPEC], "--samples", "-1e1"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma4", "--spec", SPEC], "--radius", "-1e-3"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma4", "--spec", SPEC], "--radius", "-Infinity"),
        (SQUARE_MAP_SPEC, ["verify", "--lemma", "lemma4", "--spec", SPEC], "--rad", "-1e-3"),
        (CUBIC_SPEC, ["verify", "--lemma", "lemma3", "--spec", SPEC, "--query", "1"],
         "--query", "-1e0"),
    ],
)
def test_negative_value_after_a_flag_is_its_value(tmp_path, capsys, spec, argv, flag, value):
    """A value that starts with '-' and a digit, '.', 'inf' or 'nan' is the
    value of the flag before it: 'flag value' runs as 'flag=value' does,
    with the same exit code and the same output."""
    path = write_spec(tmp_path, "spec.json", spec)
    argv = [path if arg == SPEC else arg for arg in argv]
    runs = []
    for tail in ([flag, value], [f"{flag}={value}"]):
        code, text = run_main(argv + tail)
        runs.append((code, text, capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert "expected one argument" not in runs[0][2]


def test_grid_too_large_exit_1(tmp_path):
    # 10^8 points: refused before any axis is expanded. The child caps its
    # own address space, so a regression fails with MemoryError instead of
    # holding them all.
    capped_cli = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "from implisolve.cli import main; sys.exit(main())"
    )
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    cmd = [sys.executable, "-c", capped_cli, "implicit", "--spec", spec,
           "--query", "0.1", "--grid", "0:0.1:100000000"]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == (
        "error: 100000001 query points requested, at most 100000 allowed\n"
    )


def test_reader_closing_early_exits_1_without_traceback(tmp_path):
    """A reader that closes stdout after 100 bytes of a 150 KB document,
    more than a pipe holds: one error line, exit 1, no traceback, also
    none from the interpreter's final flush."""
    spec = write_spec(tmp_path, "quad.json", QUAD_SPEC)
    cmd = [sys.executable, "-m", "implisolve.cli", "implicit", "--spec", spec,
           "--grid=0.9:1.1:400"]
    with open(tmp_path / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=20)
        err.seek(0)
        text = err.read().decode()
    assert code == 1
    assert "Traceback" not in text
    assert text == "error: standard output closed before the output was written\n"


@pytest.mark.parametrize(
    "stdout,message",
    [
        ("full", "error: standard output could not be written: No space left on device\n"),
        ("closed", "error: standard output is closed\n"),
    ],
    ids=["dev_full", "fd_1_closed"],
)
def test_unwritable_stdout_exits_1_without_traceback(stdout, message):
    """stdout on a full device, or file descriptor 1 closed in the child:
    one error line, exit 1, no traceback."""
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    cmd = [sys.executable, "-m", "implisolve.cli", *LEMMA1]
    if stdout == "full":
        with open("/dev/full", "w") as full:
            run = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, timeout=20)
    else:
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
        run = subprocess.run(cmd, stderr=subprocess.PIPE, text=True, timeout=20)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr == message


@pytest.mark.parametrize(
    "options,flags",
    [({"grid_density": 10000}, []), ({}, ["--grid-density", "10000"])],
    ids=["spec_option", "flag"],
)
def test_validation_grid_beyond_the_cap_exit_1(tmp_path, options, flags):
    # 10000^2 = 10^8 samples per box attempt: find_box refuses them before
    # sampling. The child's timeout turns a regression into a failure.
    spec = write_spec(tmp_path, "circle.json", dict(CIRCLE_SPEC, options=options))
    cmd = [sys.executable, "-m", "implisolve.cli", "implicit", "--spec", spec,
           "--query", "0.1", *flags]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == (
        "error: grid_density 10000 gives 10000^2 samples per box attempt, "
        "more than the cap 10000000\n"
    )


@pytest.mark.parametrize(
    "field,value",
    [
        ("functions", 5),
        ("functions", "x^2 + y^2 - 1"),
        ("variables", ["x", 2]),
        ("split_n", "1"),
        ("split_n", True),
        ("seed", 3),
        ("seed", [0.0, "1"]),
        ("seed", [0.0, math.nan]),
        ("functions", []),
        ("variables", []),
        ("seed", []),
    ],
)
def test_spec_field_types_exit_1(tmp_path, capsys, field, value):
    spec = write_spec(tmp_path, "bad.json", dict(CIRCLE_SPEC, **{field: value}))
    code, text = run_main(["implicit", "--spec", spec, "--query", "0"])
    assert text == ""
    assert f"'{field}'" in assert_one_line_error(capsys, code)


@pytest.mark.parametrize(
    "command,spec,queries",
    [
        ("implicit", QUAD_SPEC, ["1.0", "1.1", "0.9"]),
        ("invert", SQUARE_MAP_SPEC, ["0,2", "0.1,1.9"]),
    ],
)
def test_each_row_solves_once(tmp_path, monkeypatch, command, spec, queries):
    from implisolve.dini import SystemSolution

    solved = []
    solve_at = SystemSolution.solve_at

    def counting_solve_at(self, x):
        solved.append(tuple(x))
        return solve_at(self, x)

    monkeypatch.setattr(SystemSolution, "solve_at", counting_solve_at)
    argv = [command, "--spec", write_spec(tmp_path, "spec.json", spec)]
    for q in queries:
        argv += ["--query", q]
    code, text = run_main(argv)
    assert code == 0
    assert [row["ok"] for row in json.loads(text)["results"]] == [True] * len(queries)
    assert len(solved) == len(queries)


def test_json_output_never_holds_nan():
    out = io.StringIO()
    with pytest.raises(ValueError):
        cli._emit_json({"value": [math.nan]}, out)
    assert out.getvalue() == ""


def test_invert_square_map(tmp_path):
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    code, text = run_main(["invert", "--spec", spec, "--query", "0,2"])
    assert code == 0
    doc = json.loads(text)
    row = doc["results"][0]
    assert max(abs(a - b) for a, b in zip(row["value"], (1.0, 1.0))) < 1e-9
    expected = ((0.25, 0.25), (-0.25, 0.25))
    for r1, r2 in zip(row["jacobian"], expected):
        for a, b in zip(r1, r2):
            assert abs(a - b) < 1e-8


def test_invert_with_entries_near_1e154_exits_0(tmp_path):
    # the squares of dF/dx sum past the largest float; the pivot
    # threshold's norm does not overflow with them
    spec = write_spec(
        tmp_path,
        "big.json",
        {
            "functions": ["1e154*x1 + 1e154*x2", "1e154*x1 - 1e154*x2"],
            "variables": ["x1", "x2"],
            "seed": [0.0, 0.0],
        },
    )
    code, text = run_main(["invert", "--spec", spec, "--query", "0.1,0.05"])
    assert code == 0
    row = json.loads(text)["results"][0]
    assert row["ok"]
    assert max(abs(a - b) for a, b in zip(row["value"], (7.5e-156, 2.5e-156))) < 1e-168


def test_invert_exp_with_halfwidth_flag(tmp_path):
    spec = write_spec(
        tmp_path,
        "exp.json",
        {"functions": ["exp(x)"], "variables": ["x"], "seed": [0.0]},
    )
    code, text = run_main(
        [
            "invert",
            "--spec",
            spec,
            "--query",
            "1",
            "--query",
            repr(math.exp(0.3)),
            "--box-halfwidth",
            "0.5,1.25",
        ]
    )
    assert code == 0
    doc = json.loads(text)
    assert abs(doc["results"][0]["value"][0]) < 1e-10
    assert abs(doc["results"][1]["value"][0] - 0.3) < 1e-9


@pytest.mark.parametrize(
    "command,spec,query,header",
    [
        ("invert", SQUARE_MAP_SPEC, "0,2",
         "query_0,query_1,value_0,value_1,jac_0_0,jac_0_1,jac_1_0,jac_1_1,residual,ok,error"),
        # the Jacobian is m x n: one row per dependent variable
        ("implicit", QUAD_SPEC, "1", "query_0,value_0,value_1,jac_0_0,jac_1_0,residual,ok,error"),
    ],
)
def test_csv_header(tmp_path, command, spec, query, header):
    path = write_spec(tmp_path, "spec.json", spec)
    code, text = run_main([command, "--spec", path, "--query", query, "--out", "csv"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == header
    assert len(lines) == 2


@pytest.mark.parametrize(
    "seed, functions, message",
    [
        ([0.0, 0.0], SQUARE_MAP_SPEC["functions"], "pivot 0 below threshold 1e-312"),
        ([0.0, 1.0], ["sqrt(x1) + x2", "x2"],
         "component 0: sqrt derivative needs a positive argument in 'sqrt(x1)'"),
    ],
    ids=["singular", "no_jacobian"],
)
def test_invert_at_a_degenerate_seed_exit_1(tmp_path, capsys, seed, functions, message):
    spec = write_spec(tmp_path, "sq.json", dict(SQUARE_MAP_SPEC, functions=functions, seed=seed))
    code, text = run_main(["invert", "--spec", spec, "--query", "0,1"])
    assert text == ""
    assert assert_one_line_error(capsys, code) == f"error: {message}\n"


def test_invert_outside_box_exit_2(tmp_path):
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    code, _ = run_main(["invert", "--spec", spec, "--query", "50,50"])
    assert code == 2


def test_verify_lemma1(tmp_path):
    code, text = run_main(["verify", "--lemma", "lemma1", "--matrix", "1,0;0,1"])
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    assert doc["report"]["trials"] == 1000


def test_verify_lemma1_huge_entries(tmp_path):
    # hs_norm of this matrix overflows to inf; the check must still sample
    code, text = run_main(["verify", "--lemma", "lemma1", "--matrix", "1e308,1e308;1e308,1e308"])
    assert code == 0
    report = json.loads(text)["report"]
    assert 0.0 < report["max_ratio"] <= 1.0


@pytest.mark.parametrize(
    "lemma,missing",
    [("lemma1", "--matrix"), ("lemma2", "--spec"), ("lemma3", "--spec"), ("lemma4", "--spec")],
)
def test_verify_missing_input_exit_1(capsys, lemma, missing):
    code, text = run_main(["verify", "--lemma", lemma])
    assert text == ""
    assert assert_one_line_error(capsys, code) == f"error: {lemma} needs {missing}\n"


@pytest.mark.parametrize(
    "lemma,flag,value,message",
    [
        ("lemma1", "--trials", "0", "--trials must be at least 1, got 0"),
        ("lemma4", "--samples", "0", "--samples must be at least 1, got 0"),
        ("lemma2", "--samples", "-3", "--samples must be at least 1, got -3"),
        ("lemma4", "--radius", "inf", "--radius must be finite and positive, got inf"),
        ("lemma4", "--radius", "nan", "--radius must be finite and positive, got nan"),
        ("lemma4", "--radius", "0", "--radius must be finite and positive, got 0.0"),
    ],
)
def test_verify_that_checks_nothing_exit_1(tmp_path, capsys, lemma, flag, value, message):
    # with no trials or samples every lemma check would report passed
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    inputs = ["--matrix", "1,0;0,1"] if lemma == "lemma1" else ["--spec", spec]
    code, text = run_main(["verify", "--lemma", lemma, *inputs, f"{flag}={value}"])
    assert text == ""
    assert assert_one_line_error(capsys, code) == f"error: {message}\n"


@pytest.mark.parametrize(
    "lemma,flag,value",
    [
        ("lemma1", "--trials", "100001"),
        ("lemma2", "--samples", "100001"),
        ("lemma4", "--samples", "99999999999999999999999"),
    ],
)
def test_verify_counts_above_the_cap_exit_1(tmp_path, capsys, lemma, flag, value):
    # refused before sampling starts: lemma2 would first build a list of
    # --samples points. Only refused counts are run here.
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    inputs = ["--matrix", "1,0;0,1"] if lemma == "lemma1" else ["--spec", spec]
    code, text = run_main(["verify", "--lemma", lemma, *inputs, flag, value])
    assert text == ""
    message = f"error: {flag} must be at most 100000, got {value}\n"
    assert assert_one_line_error(capsys, code) == message


def test_verify_lemma2(tmp_path):
    spec = write_spec(
        tmp_path,
        "l2.json",
        {"functions": ["x1^2 + x2"], "variables": ["x1", "x2"], "seed": [0.0, 1.0]},
    )
    code, text = run_main(
        ["verify", "--lemma", "lemma2", "--spec", spec, "--matrix", "2;0", "--samples", "25"]
    )
    assert code == 0
    assert json.loads(text)["report"]["max_discrepancy"] <= 1e-10


def test_verify_lemma3(tmp_path):
    spec = write_spec(tmp_path, "cubic.json", CUBIC_SPEC)
    code, text = run_main(
        ["verify", "--lemma", "lemma3", "--spec", spec, "--query", "0", "--query", "1"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["passed"] is True
    assert abs(doc["report"]["t"] - 1 / math.sqrt(3)) < 1e-8


def test_verify_lemma3_needs_no_seed(tmp_path):
    # lemma3 reads only its two queries; a seed, when given, is ignored
    argv = ["verify", "--lemma", "lemma3", "--query", "0", "--query", "1", "--spec"]
    unseeded = {"functions": ["x^3"], "variables": ["x"]}
    code, text = run_main(argv + [write_spec(tmp_path, "unseeded.json", unseeded)])
    assert code == 0
    assert json.loads(text)["passed"] is True
    seeded = dict(unseeded, seed=[0.0])
    assert run_main(argv + [write_spec(tmp_path, "seeded.json", seeded)]) == (0, text)


def test_verify_lemma3_large_gap(tmp_path):
    # |F(b) - F(a)| is about 1e13: the witness tolerance scales with it
    spec = write_spec(
        tmp_path, "exp.json", {"functions": ["exp(10*x)"], "variables": ["x"], "seed": [0.0]}
    )
    code, text = run_main(
        ["verify", "--lemma", "lemma3", "--spec", spec, "--query", "0", "--query", "3"]
    )
    assert code == 0
    t = json.loads(text)["report"]["t"]
    assert abs(t - math.log((math.exp(30.0) - 1.0) / 30.0) / 30.0) < 1e-12


def test_verify_lemma4_pass_and_degenerate(tmp_path):
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    code, text = run_main(
        ["verify", "--lemma", "lemma4", "--spec", spec, "--samples", "300"]
    )
    assert code == 0
    assert json.loads(text)["report"]["radius"] > 0.0

    degenerate = dict(SQUARE_MAP_SPEC, seed=[0.0, 0.0])
    spec = write_spec(tmp_path, "deg.json", degenerate)
    code, _ = run_main(["verify", "--lemma", "lemma4", "--spec", spec])
    assert code == 1


def test_verify_lemma4_certifies_the_square_map(tmp_path):
    """The box [0.5, 1.5]^2 about the seed (1, 1) certifies at once;
    --samples and --seed are echoed, unread."""
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    code, text = run_main(["verify", "--lemma", "lemma4", "--spec", spec, "--seed", "7"])
    assert code == 0
    assert '"certified": true' in text
    doc = json.loads(text)
    report = doc["report"]
    assert doc["passed"] and report["passed"] and report["certified"]
    assert (report["radius"], report["halvings"], report["samples"], report["rng_seed"]) == (
        0.5, 0, 2000, 7,
    )
    assert 1.333 <= report["min_det_magnitude"] <= 4.0 / 3.0


def test_verify_lemma4_certifies_a_radius_below_the_floor(tmp_path):
    """--radius 5e-9 lies below the halving floor of 1e-8, and the box of
    that half-width about the seed (1, 1) certifies at once."""
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    code, text = run_main(["verify", "--lemma", "lemma4", "--spec", spec, "--radius", "5e-9"])
    assert code == 0
    report = json.loads(text)["report"]
    assert (report["passed"], report["certified"]) == (True, True)
    assert (report["radius"], report["halvings"]) == (5e-9, 0)
    assert report["min_det_magnitude"] >= 7.9999998


def test_verify_lemma4_refuses_a_non_finite_base_determinant(tmp_path, capsys):
    """det JF(p) overflows to inf at the seed: one error line that names
    it, before any radius is sampled."""
    spec = write_spec(
        tmp_path, "big.json", dict(SQUARE_MAP_SPEC, functions=["1e200*x1", "1e200*x2"], seed=[0.0, 0.0])
    )
    code, text = run_main(["verify", "--lemma", "lemma4", "--spec", spec, "--samples", "50"])
    assert text == ""
    assert "det JF(p) = inf" in assert_one_line_error(capsys, code)


@pytest.mark.parametrize("radius,expected", [("5", (0.625, 3)), ("1e300", None)])
def test_verify_lemma4_halves_past_points_that_overflow(tmp_path, radius, expected):
    """At radius 1e300 the square map overflows at sampled points: each
    such radius fails and halves, down to a positive radius that passes."""
    spec = write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC)
    code, text = run_main(
        ["verify", "--lemma", "lemma4", "--spec", spec, "--radius", radius, "--samples", "50"]
    )
    assert code == 0
    report = json.loads(text)["report"]
    assert report["passed"] and report["radius"] > 0.0
    if expected is not None:
        assert (report["radius"], report["halvings"]) == expected


def test_verify_lemma4_sampled_fallback_on_entries_near_1e154(tmp_path):
    """The x*x - x*x terms widen every interval Jacobian past 0, so no
    radius certifies; the sampled fallback's point gaps and image
    differences, near 1.2e154 per coordinate, have norms whose squares
    overflow."""
    spec = write_spec(
        tmp_path,
        "big.json",
        {
            "functions": ["1.2e154*x1 + 1e164*(x2*x2 - x2*x2)", "1.2e154*x2 + 1e164*(x1*x1 - x1*x1)"],
            "variables": ["x1", "x2"],
            "seed": [0, 0],
        },
    )
    code, text = run_main(["verify", "--lemma", "lemma4", "--spec", spec, "--radius", "0.6"])
    assert code == 0
    report = json.loads(text)["report"]
    assert report["certified"] is False
    assert (report["passed"], report["radius"]) == (True, 0.6)


def test_implicit_tangent_that_overflows_exit_1(tmp_path, capsys):
    # dF/dx = -1e308 in both rows and J^-1 = [[1, 0], [1, 1]]: the second
    # row of the tangent sums two terms of 1e308
    spec = write_spec(
        tmp_path,
        "steep.json",
        {
            "functions": ["y1 - 1e308*x", "y2 - y1 - 1e308*x"],
            "variables": ["x", "y1", "y2"],
            "split_n": 1,
            "seed": [0, 0, 0],
        },
    )
    code, text = run_main(["implicit", "--spec", spec, "--query", "0"])
    assert text == ""
    assert "implicit derivative at the seed overflows" in assert_one_line_error(capsys, code)


def test_output_is_deterministic_in_process(tmp_path):
    spec = write_spec(tmp_path, "quad.json", QUAD_SPEC)
    argv = ["implicit", "--spec", spec, "--query", "1", "--grid", "0.99:1.01:3"]
    _, first = run_main(argv)
    _, second = run_main(argv)
    assert first == second


def test_output_is_byte_identical_across_processes(tmp_path):
    spec = write_spec(tmp_path, "circle.json", CIRCLE_SPEC)
    cmd = [
        sys.executable,
        "-m",
        "implisolve.cli",
        "verify",
        "--lemma",
        "lemma4",
        "--spec",
        write_spec(tmp_path, "sq.json", SQUARE_MAP_SPEC),
        "--samples",
        "200",
        "--seed",
        "42",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout

    cmd2 = [
        sys.executable,
        "-m",
        "implisolve.cli",
        "implicit",
        "--spec",
        spec,
        "--query",
        "0.6",
    ]
    runs = [subprocess.run(cmd2, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout


# Values a fuzzed spec field, list entry or option takes: huge, tiny,
# negative, non-finite, 400-digit ints, bools, empty lists and other types.
# None of them is an int from 10 to config.MAX_GRID_DENSITY, so no drawn
# grid_density makes a validation grid denser than the default.
FUZZ_VALUES = [
    0, -1, 2.5, 5e-324, 1e308, 10**400, -(10**400), math.nan, math.inf, True, None, [], "x",
]
EXP_SPEC = {"functions": ["exp(x)"], "variables": ["x"], "seed": [0.0]}
# (argv before the drawn flags, the specs it may read), per command
FUZZ_BASES = [
    (["implicit", "--spec", SPEC, "--query", "1.01"], [CIRCLE_SPEC, QUAD_SPEC, STEEP_SPEC]),
    (["invert", "--spec", SPEC, "--query", "1"], [SQUARE_MAP_SPEC, EXP_SPEC]),
    (["verify", "--lemma", "lemma1", "--matrix", "1,0;0,1"], [SQUARE_MAP_SPEC]),
    (["verify", "--lemma", "lemma2", "--spec", SPEC], [SQUARE_MAP_SPEC, CIRCLE_SPEC]),
    (["verify", "--lemma", "lemma3", "--spec", SPEC, "--query", "0", "--query", "1"],
     [CUBIC_SPEC, EXP_SPEC]),
    (["verify", "--lemma", "lemma4", "--spec", SPEC], [SQUARE_MAP_SPEC, EXP_SPEC]),
]
FUZZ_NUMBERS = [
    "0", "1", "-1", "0.5", "1.01", "0.2", "1e-300", "5e-324", "1e308", "-1e308", "1e400",
    "nan", "inf", "-inf", "9" * 400, "x", "",
]
# counts stay small: grid steps at most 5, and trials or samples at most
# 50, or past a cap that refuses them before any work
FUZZ_COUNTS = ["-1", "0", "1", "5", "50", "100001", "9" * 400, "x"]
# per flag: (values a valid run reads, values to refuse or stress)
FUZZ_FLAGS = {
    "--spec": ([SPEC], ["missing.json"]),
    "--out": (["json", "csv"], ["xml"]),
    "--tol-root": (["1e-12", "1e-6"], FUZZ_NUMBERS),
    "--tol-sys": (["1e-9", "1e-6"], FUZZ_NUMBERS),
    "--box-halfwidth": (["0.5", "0.3,0.4"],
                        FUZZ_NUMBERS + ["0.5,1e308", "1e-300,0.5", "0.5,nan", "1,2,3"]),
    "--grid-density": (["2", "5", "9"], ["10001", "9" * 400, "0", "-1", "2.5", "x"]),
    "--lemma": (["lemma1", "lemma2", "lemma3", "lemma4"], ["lemma5"]),
    "--seed": (["0", "7"], ["-1", "9" * 400, "x"]),
    "--matrix": (["1,0;0,1", "2;0"], [
        "1e308,1e308;1e308,1e308", "nan,0;0,1", "1,2;3", "", "0,0;0,0", "1,2,3;4,5,6;7,8,9",
    ]),
    "--trials": (["5", "50"], FUZZ_COUNTS),
    "--samples": (["5", "50"], FUZZ_COUNTS),
    "--radius": (["0.5", "0.1"], FUZZ_NUMBERS),
}
SPEC_MUTATIONS = [
    *[(field, action) for field in ("functions", "variables", "seed", "options")
      for action in ("drop", "set", "entry")],
    ("split_n", "drop"), ("split_n", "set"),
]
POINT_FLAGS = ["--query", "--grid", "--out", "--tol-root", "--tol-sys", "--box-halfwidth",
               "--grid-density"]
VERIFY_FLAGS = ["--seed", "--query", "--matrix", "--trials", "--samples", "--radius"]
# seconds one case may take; the slowest run well under one
FUZZ_BUDGET_S = 20


@st.composite
def _fuzz_case(draw):
    """A canned argv with up to four flags added, mostly of its own
    command, each written as flag=value or as flag value, and a canned
    spec it reads with up to two fields dropped, set to a fuzz value, or
    with one entry or option so set."""
    base, specs = draw(st.sampled_from(FUZZ_BASES))
    spec = json.loads(json.dumps(draw(st.sampled_from(specs))))
    for field, action in draw(st.lists(st.sampled_from(SPEC_MUTATIONS), max_size=2,
                                       unique_by=lambda mutation: mutation[0])):
        if action == "drop":
            spec.pop(field, None)
        elif action == "set":
            spec[field] = draw(st.sampled_from(FUZZ_VALUES))
        elif field == "options":
            key = draw(st.sampled_from([f.name for f in dataclasses.fields(SolverOptions)] + ["bogus"]))
            spec.setdefault("options", {})[key] = draw(st.sampled_from(FUZZ_VALUES))
        elif spec.get(field):
            entries = spec[field]
            entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(FUZZ_VALUES))
    own = VERIFY_FLAGS if base[0] == "verify" else POINT_FLAGS
    flags = draw(st.lists(st.one_of(st.sampled_from(own), st.sampled_from(own + sorted(FUZZ_FLAGS))),
                          max_size=draw(st.sampled_from([0, 2, 4]))))
    argv = list(base)
    numbers = st.sampled_from(FUZZ_NUMBERS[:12])  # those float() reads
    for flag in flags:
        if flag == "--query":
            value = ",".join(draw(st.lists(numbers, min_size=1, max_size=3)))
        elif flag == "--grid":
            steps = draw(st.sampled_from(["0", "1", "2", "5", "-1", "x", "1000000"]))
            value = f"{draw(numbers)}:{draw(numbers)}:{steps}"
        else:
            value = draw(st.sampled_from(FUZZ_FLAGS[flag][draw(st.integers(0, 1))]))
        argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    return spec, argv


class _OverBudget(BaseException):
    """A case ran past FUZZ_BUDGET_S; main catches no BaseException."""


def _over_budget(signum, frame):
    raise _OverBudget(f"over {FUZZ_BUDGET_S} s")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@given(_fuzz_case())
def test_cli_contract_holds_on_fuzzed_input(case):
    """main returns 0, 1 or 2 within its budget; standard error is empty or
    one error line, and then standard output is empty, and no error says a
    flag lacks the value it was given; output is strict JSON (CSV rows of
    the header's width under --out=csv) wherever the code is 0 or 2, and
    wherever verify writes a report."""
    spec, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(spec))
        argv = [a.replace(SPEC, path).replace("missing.json", os.path.join(tmp, "none.json"))
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _over_budget)
        signal.setitimer(signal.ITIMER_REAL, FUZZ_BUDGET_S)
        try:
            with contextlib.redirect_stderr(err):
                code = main(argv, out=out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    text, error = out.getvalue(), err.getvalue()
    if error:
        assert error.startswith("error: ") and error.endswith("\n") and error.count("\n") == 1
        assert "expected one argument" not in error
        assert text == ""
    if code in (0, 2):
        assert text
    if not text:
        return
    outs = [a.partition("=")[2] or b for a, b in zip(argv, argv[1:] + [""])
            if a.partition("=")[0] == "--out"]
    if argv[0] != "verify" and outs and outs[-1] == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) >= 1 and all(len(row) == len(rows[0]) for row in rows)
    else:
        json.loads(text, parse_constant=_reject_constant)
