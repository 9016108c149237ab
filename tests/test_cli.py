import argparse
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from conftest import validate_schema
import slowflow
from slowflow import cli, vdp
from slowflow.cli import format_float, load_config, main
from slowflow.errors import ConfigError

SCHEMA_DIR = None


def _schema(name):
    import importlib.resources as res
    with res.files("slowflow").joinpath(f"schemas/{name}").open() as fh:
        return json.load(fh)


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_avg_linear_builtin(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "linear_test"})
    rc = main(["avg", "--config", cfg, "--point", "1.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"][0] + 2 * math.pi) < 1e-10
    validate_schema(out, _schema("avg_report.schema.json"))


def test_avg_vdp_root_point(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "nonsmooth_vdp",
                                "params": {"a": 0.0, "lambda": 0.0}})
    rc = main(["avg", "--config", cfg, "--point",
               str(3 * math.pi / 4), "0.0", "--jacobian"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm"] <= 1e-8
    assert out["jacobian"] is not None
    validate_schema(out, _schema("avg_report.schema.json"))


def test_avg_wrong_point_dimension(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "nonsmooth_vdp"})
    rc = main(["avg", "--config", cfg, "--point", "1.0"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["avg", "--config", str(p), "--point", "1.0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_keys_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"system": "linear_test", "bogus": 1})
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_unknown_integrator_keys_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {"integrator": {"methd": "rk4-fixed"}})
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_dsl_system_from_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "system": {"dim": 1, "period": 2 * math.pi,
                   "components": ["cos(t)-x1"]},
    })
    rc = main(["avg", "--config", cfg, "--point", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"][0] + math.pi) < 1e-10


def test_numerical_failure_exits_4(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "system": {"dim": 1, "period": 1.0, "components": ["1/(x1-x1)"]},
    })
    rc = main(["avg", "--config", cfg, "--point", "1.0"])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--point", "0", "--eps", "0.04", "0.02"], "at least 3 values"),
    (["verify", "--point", "0", "--eps", "0.02", "0.04", "0.01"], "strictly decreasing"),
    (["verify", "--point", "0", "--eps", "0.04", "0.02", "0"], "eps must be positive"),
    (["roots", "--box", "-1", "1", "--grid", "1"], "grid_n must be in [2, 64]"),
    (["roots", "--box", "-1", "1", "--grid", "100"], "grid_n must be in [2, 64]"),
    (["certify", "--point", "0", "--root-tol", "-1"], "--root-tol must be positive"),
])
def test_bad_arguments_exit_2_with_one_line(tmp_path, capsys, argv, message):
    cfg = _write_cfg(tmp_path, {"system": "linear_test"})
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert out.err.startswith("config error: ") and message in out.err


# the last is well formed, but its jump moves with x1
@pytest.mark.parametrize("component", ["x1 +", "x9", "foo(x1)", "0.5 - sign(x1 - sin(t))"])
def test_bad_dsl_component_exits_2(tmp_path, capsys, component):
    cfg = _write_cfg(tmp_path, {
        "system": {"dim": 1, "period": 1.0, "components": [component]},
    })
    assert main(["avg", "--config", cfg, "--point", "1.0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_roots_csv_and_empty_exit(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "linear_test"})
    out = tmp_path / "roots.csv"
    rc = main(["roots", "--config", cfg, "--box", "-2", "2",
               "--grid", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == cli.CSV_ROOTS_HEADER
    assert len(lines) == 2
    assert "true" in lines[1]
    rc2 = main(["roots", "--config", cfg, "--box", "2", "3", "--grid", "8"])
    assert rc2 == 3


def test_roots_survives_grid_points_outside_the_domain(tmp_path, capsys):
    # the square root is undefined left of x1 = -1, where a third of the grid lies
    cfg = _write_cfg(tmp_path, {"system": {
        "dim": 1, "period": 2 * math.pi,
        "components": ["sqrt(x1 + 1) - 1.2 + 0.3*cos(2*x1)"]}})
    assert main(["roots", "--config", cfg, "--box", "-2", "4", "--grid", "12"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == cli.CSV_ROOTS_HEADER and len(lines) == 2


def test_certify_json_schema(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "linear_test"})
    rc = main(["certify", "--config", cfg, "--point", "0.0"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    validate_schema(rep, _schema("theorem_report.schema.json"))
    assert rep["verdict"] == "certified"


def test_certify_degenerate_verdict(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "nonsmooth_vdp",
                                "params": {"a": 0.0, "lambda": 0.0}})
    rc = main(["certify", "--config", cfg, "--point",
               "0.0", str(3 * math.pi / 4)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    validate_schema(rep, _schema("theorem_report.schema.json"))
    assert rep["verdict"] == "degenerate"


def test_verify_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "linear_test"})
    out_csv = tmp_path / "sweep.csv"
    out_json = tmp_path / "summary.json"
    rc = main(["verify", "--config", cfg, "--point", "0.0",
               "--eps", "0.1", "0.05", "0.02",
               "--out", str(out_csv), "--summary", str(out_json)])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == cli.CSV_VERIFY_HEADER
    assert len(lines) == 4
    summary = json.loads(out_json.read_text())
    validate_schema(summary, _schema("verify_summary.schema.json"))
    assert abs(summary["fitted_order"] - 2.0) < 0.1


def test_resonance_degenerate_rows(capsys):
    rc = main(["resonance", "--model", "nonsmooth", "--lambda", "0",
               "--a", "0", "0", "--n", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == cli.CSV_RESONANCE_HEADER
    assert len(lines) == 2
    row = lines[1].split(",")
    assert abs(float(row[2]) - 3 * math.pi / 4) < 1e-9
    assert abs(float(row[6])) < 1e-9                 # ineq6 = 0
    assert abs(float(row[7]) + math.pi) < 1e-9       # ineq7 = -pi
    assert row[10] == "true"                         # degenerate


def test_python_m_slowflow_runs_clean():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(slowflow.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "slowflow", "resonance",
         "--model", "nonsmooth", "--lambda", "0", "--a", "0", "0", "--n", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "a,lambda,A,M,N,phi,ineq6,ineq7,hurwitz,stable,degenerate",
        "0,0,2.3561944901923448,0,2.3561944901923448,0,0,-3.1415926535897931,"
        "false,false,true",
    ]


@pytest.mark.parametrize("command", ["resonance", "verify"])
def test_closed_stdout_pipe_exits_without_traceback(tmp_path, command):
    # the reader end of the pipe is closed before the command writes a byte
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(slowflow.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = (["--model", "nonsmooth", "--lambda", "0", "--a", "0", "0", "--n", "1"]
            if command == "resonance" else
            ["--config", _write_cfg(tmp_path, {"system": "linear_test"}),
             "--point", "0", "--eps", "0.1", "0.05", "0.02"])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "slowflow", command, *args],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.returncode == 1


def test_resonance_classical_row(capsys):
    rc = main(["resonance", "--model", "classical", "--lambda", "0",
               "--a", "0", "0", "--n", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert abs(float(lines[1].split(",")[2]) - 2.0) < 1e-9


def test_resonance_rejects_bad_flags(capsys):
    assert main(["resonance", "--model", "nonsmooth", "--lambda", "0",
                 "--a", "0", "0", "--n", "0"]) == 2
    assert main(["resonance", "--model", "nonsmooth", "--lambda", "-1",
                 "--a", "0", "0", "--n", "1"]) == 2
    assert main(["resonance", "--model", "nonsmooth", "--lambda", "0",
                 "--a", "1", "0", "--n", "2"]) == 2
    capsys.readouterr()


def _exits_2_naming(argv, what, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and what in captured.err


def test_resonance_nan_a_bound_exits_2(capsys):
    # NaN passed the `hi < lo` check and its grid row was dropped
    _exits_2_naming(["resonance", "--model", "nonsmooth", "--lambda", "1",
                     "--a", "nan", "1", "--n", "2"], "must be finite", capsys)


def test_resonance_nan_lambda_exits_2(capsys):
    _exits_2_naming(["resonance", "--model", "nonsmooth", "--lambda", "nan",
                     "--a", "0", "1", "--n", "2"], "must be finite", capsys)


def test_avg_nan_point_exits_2(capsys):
    _exits_2_naming(["avg", "--point", "nan", "1"], "--point", capsys)


def test_certify_inf_point_exits_2(capsys):
    _exits_2_naming(["certify", "--point", "inf", "1"], "--point", capsys)


def test_roots_nan_box_exits_2(capsys):
    _exits_2_naming(["roots", "--box", "nan", "1", "-1", "1"], "--box", capsys)


def test_resonance_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["resonance", "--model", "nonsmooth", "--lambda", "0.4",
            "--a", "-0.3", "0.3", "--n", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_resonance_svg_markers(tmp_path):
    out = tmp_path / "r.csv"
    svg = tmp_path / "r.svg"
    rc = main(["resonance", "--model", "classical", "--lambda", "0.3",
               "--a", "0", "0", "--n", "1", "--out", str(out),
               "--svg", str(svg)])
    assert rc == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    solid = [c for c in circles if c.get("fill") == "black"]
    hollow = [c for c in circles if c.get("fill") == "none"]
    # lam=0.3 at a=0 has a stable top branch and two unstable branches
    assert len(solid) == 1
    assert len(hollow) == 2


def test_cli_flag_overrides_config_nodes(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"system": "linear_test",
                                "quadrature_nodes": 4096})
    rc = main(["avg", "--config", cfg, "--point", "1.0", "--nodes", "256"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["quadrature_nodes"] == 256


def test_subcommand_options_are_pinned():
    # every flag of every subcommand: one added or dropped shows up here
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings
                        if o not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == {
        "avg": ["--config", "--jacobian", "--nodes", "--out", "--point"],
        "roots": ["--box", "--config", "--grid", "--nodes", "--out"],
        "certify": ["--config", "--nodes", "--out", "--point", "--root-tol", "--seed"],
        "verify": ["--config", "--eps", "--out", "--point", "--summary"],
        "resonance": ["--a", "--lambda", "--model", "--n", "--out", "--svg"],
    }


@pytest.mark.parametrize("argv", [
    ["verify", "--point", "0", "--eps", "0.04", "--nodes", "256"],
    ["avg", "--point", "0", "--seed", "1"],
    ["roots", "--box", "0", "1", "--seed", "1"],
    ["verify", "--point", "0", "--eps", "0.04", "--seed", "1"],
])
def test_nodes_and_seed_only_where_they_act(argv, capsys):
    # verify integrates and never averages; only certify draws random samples
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_format_float_17_digits():
    assert format_float(math.pi) == "3.1415926535897931"
    assert format_float(0.0) == "0"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def test_format_float_no_negative_zero():
    assert format_float(-0.0) == "0"
    assert format_float(-1e-300) == "-1e-300"


@pytest.mark.parametrize("model", ["classical", "nonsmooth"])
def test_resonance_csv_has_no_negative_zero(model, capsys):
    # a = -0.0 or an exactly vanishing coordinate must not print as -0
    rc = main(["resonance", "--model", model, "--lambda", "1",
               "--a", "-0.5", "0.5", "--n", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = [x for ln in lines[1:] for x in ln.split(",")]
    assert "-0" not in fields
    points = vdp.resonance_curve("classical", 1.0, (-0.0, -0.0), 1)
    assert math.copysign(1.0, points[0].M) == -1.0      # M = -0.0 from a = -0.0
    assert "-0" not in cli.resonance_csv_lines(points)[1].split(",")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as ei:
        main(["resonance", "--model", "bogus", "--lambda", "0",
              "--a", "0", "0", "--n", "1"])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv,dest,value", [
    (["avg", "--point", "1.0", "-3.6e-06"], "point", [1.0, -3.6e-06]),
    (["roots", "--box", "-4", "4", "-1e-3", "4"], "box", [-4, 4, -1e-3, 4]),
    (["verify", "--point", "-1E+2", "-.5", "--eps", "-1e-2"], "eps", [-1e-2]),
    (["resonance", "--model", "nonsmooth", "--lambda", "-2e0", "--a",
      "-1.5e-1", "1", "--n", "1"], "a", [-0.15, 1.0]),
])
def test_negative_exponent_numbers_parse(argv, dest, value):
    args = cli.build_parser().parse_args(argv)
    assert getattr(args, dest) == value


def test_roots_csv_coordinate_round_trips_into_certify(tmp_path, capsys):
    # roots prints -3.6e-06 in exponent form with 17 digits; certify must
    # read the printed root back
    cfg = _write_cfg(tmp_path, {"system": {
        "dim": 2, "period": 2 * math.pi,
        "components": ["-(x1 + 1.25)", "-(x2 + 3.6e-06)"]}})
    out = tmp_path / "roots.csv"
    assert main(["roots", "--config", cfg, "--box", "-4", "4", "-1e-3", "4",
                 "--grid", "8", "--out", str(out)]) == 0
    v = out.read_text().splitlines()[1].split(",")[1].split(";")
    assert v[1].startswith("-") and "e-" in v[1]
    assert main(["certify", "--config", cfg, "--point", *v]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["point"] == [float(x) for x in v]
    assert rep["verdict"] == "certified"


@pytest.mark.parametrize("payload, argv, message", [
    # the library refuses more than 16 components with ValueError
    ({"system": {"dim": 17, "period": 1.0, "components": [f"-x{i}" for i in range(1, 18)]}},
     ["--point", *["0"] * 17], "eigenvalues() is limited to k <= 16"),
    ({"system": "linear_test"}, ["--point", "0", "--seed", "-1"], "seed must be >= 0"),
    ({"system": "linear_test", "seed": -1}, ["--point", "0"], "seed must be >= 0"),
], ids=["17_components", "seed_flag", "seed_config"])
def test_certify_usage_errors_exit_2_without_traceback(tmp_path, capsys, payload, argv, message):
    assert main(["certify", "--config", _write_cfg(tmp_path, payload), *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"config error: {message}\n"


def test_verify_with_every_entry_failed_exits_4(tmp_path, capsys):
    # one step per period is never enough: every eps fails on its own
    cfg = _write_cfg(tmp_path, {"system": "linear_test", "integrator": {"max_steps": 1}})
    out_json = tmp_path / "summary.json"
    rc = main(["verify", "--config", cfg, "--point", "0.0", "--eps", "0.1", "0.05", "0.025",
               "--summary", str(out_json)])
    assert rc == 4
    assert capsys.readouterr().out.splitlines() == [
        cli.CSV_VERIFY_HEADER, *[f"{format_float(e)},,,,,false,false," for e in (0.1, 0.05, 0.025)]]
    summary = json.loads(out_json.read_text())
    validate_schema(summary, _schema("verify_summary.schema.json"))
    assert summary["converged"] == [False] * 3 and summary["fitted_order"] is None
    assert all(e.startswith("max_steps=1 reached") for e in summary["errors"])


def test_certify_not_hurwitz_verdict(capsys):
    # the origin of the unforced oscillator is a root whose Jacobian is pi*I
    assert main(["certify", "--point", "0", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    validate_schema(rep, _schema("theorem_report.schema.json"))
    assert rep["verdict"] == "failed(not Hurwitz: max Re eigenvalue 3.142e+00)"
