import dataclasses
import io
import json
import math
import subprocess
import sys

import pytest

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
    # leading '-' needs the '=' form so argparse does not read it as a flag
    code, text = run_main(
        ["implicit", "--spec", spec, "--grid=-0.5:0.5:5", "--out", "csv"]
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
        pytest.param(dict(SQUARE_MAP_SPEC, seed=[1.0]),
                     ["verify", "--lemma", "lemma2", "--spec", SPEC],
                     "lemma2 seed must have dim 2", id="lemma2_seed_wrong_dim"),
        pytest.param(CUBIC_SPEC, ["verify", "--lemma", "lemma3", "--spec", SPEC, "--query", "0"],
                     "lemma3 needs exactly two --query points", id="lemma3_one_query"),
        pytest.param(CIRCLE_SPEC, ["implicit", "--query", "0"],
                     "the following arguments are required: --spec", id="spec_flag_missing"),
        pytest.param(CIRCLE_SPEC, IMPLICIT + ["--grid-density", "x"],
                     "argument --grid-density: invalid int value: 'x'",
                     id="grid_density_not_an_int"),
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
