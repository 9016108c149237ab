"""CLI reports of the averaged Jacobian: the quadrature of the field's `jacobian`."""

import json

import numpy as np
import pytest

from conftest import NONSMOOTH_DSL, certified_forced_params, validate_schema
from slowflow import vdp
from slowflow.cli import load_config, main


def _schema(name):
    import importlib.resources as res
    with res.files("slowflow").joinpath(f"schemas/{name}").open() as fh:
        return json.load(fh)


def _config(tmp_path, **extra):
    a, lam, root = certified_forced_params()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"system": "nonsmooth_vdp",
                             "params": {"a": a, "lambda": lam}, **extra}))
    return str(p), vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam)), a, root


@pytest.mark.parametrize("system", ["nonsmooth_vdp", "classical_vdp", "linear_test", "dsl"])
def test_every_built_field_has_a_jacobian_and_no_report_an_fd_step(tmp_path, capsys, system):
    # the quadrature of `jacobian` is every CLI field's averaged Jacobian, so
    # the reports carry no FD step
    a, lam, root = certified_forced_params()
    config = {"system": system, "params": {"a": a, "lambda": lam}}
    if system == "linear_test":
        config, root = {"system": system}, np.zeros(1)
    elif system == "dsl":
        config = {"system": {"dim": 2, "period": 2 * np.pi, "components": NONSMOOTH_DSL},
                  "params": {"a": a, "lam": lam}}
    assert load_config(None, config).build_field().jacobian is not None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    point = [repr(float(x)) for x in root]
    for cmd, schema in ((["avg", "--jacobian"], "avg_report"), (["certify"], "theorem_report")):
        assert main([cmd[0], "--config", str(cfg), "--point", *point, *cmd[1:]]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "fd_step" not in rep
        validate_schema(rep, _schema(f"{schema}.schema.json"))
    if system != "classical_vdp":
        assert rep["verdict"] == "certified"


def test_avg_jacobian_is_the_quadrature(tmp_path, capsys):
    cfg, f, a, root = _config(tmp_path)
    point = [repr(float(x)) for x in root]
    assert main(["avg", "--config", cfg, "--point", *point, "--jacobian"]) == 0
    rep = json.loads(capsys.readouterr().out)
    want = vdp.averaged_jacobian_closed_form("nonsmooth", root[0], root[1], a)
    assert np.max(np.abs(np.array(rep["jacobian"]) - want)) <= 1e-10
    validate_schema(rep, _schema("avg_report.schema.json"))


@pytest.mark.parametrize("args", [
    ["avg", "--point", "1", "2", "--jacobian"],
    ["roots", "--box", "0", "1", "0", "1"],
    ["certify", "--point", "1", "2"],
    ["verify", "--point", "1", "2", "--eps", "0.04", "0.02", "0.01"],
])
def test_fd_step_is_no_config_key(tmp_path, capsys, args):
    cfg = _config(tmp_path, fd_step=1e-5)[0]
    assert main([args[0], "--config", cfg, *args[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unknown config keys: ['fd_step']" in out.err
