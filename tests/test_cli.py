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
    assert "OutsideBox" in doc["results"][1]["error"]


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
        "tol_seed": 1e-9,
        "tol_root": 1e-11,
        "tol_sys": 1e-8,
        "max_iter": 150,
        "h0": 0.8,
        "h0_dep": 0.7,
        "grid_density": 7,
        "max_shrink": 30,
        "max_depth": 5,
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
    spec = write_spec(tmp_path, "bad.json", dict(CIRCLE_SPEC, options={"h0": 0.8, "bogus": 1}))
    code, text = run_main(["implicit", "--spec", spec, "--query", "0"])
    assert text == ""
    assert assert_one_line_error(capsys, code) == "error: unknown option keys: ['bogus']\n"


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


@pytest.mark.parametrize(
    "lemma,missing",
    [("lemma1", "--matrix"), ("lemma2", "--spec"), ("lemma3", "--spec"), ("lemma4", "--spec")],
)
def test_verify_missing_input_exit_1(capsys, lemma, missing):
    code, text = run_main(["verify", "--lemma", lemma])
    assert text == ""
    assert assert_one_line_error(capsys, code) == f"error: {lemma} needs {missing}\n"


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
    assert abs(doc["report"]["t"] - 1 / math.sqrt(3)) < 1e-8


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
