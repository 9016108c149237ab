"""CLI reports of the averaged Jacobian: the quadrature of the field's `jacobian`."""

import json

import numpy as np
import pytest

from conftest import certified_forced_params, validate_schema
from slowflow import vdp
from slowflow.cli import main


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


def test_certify_reports_null_fd_step_and_validates(tmp_path, capsys):
    cfg, _, a, root = _config(tmp_path)
    point = [repr(float(x)) for x in root]
    assert main(["certify", "--config", cfg, "--point", *point]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["fd_step"] is None
    assert rep["verdict"] == "certified"
    validate_schema(rep, _schema("theorem_report.schema.json"))


def test_avg_jacobian_is_the_quadrature(tmp_path, capsys):
    cfg, f, a, root = _config(tmp_path)
    point = [repr(float(x)) for x in root]
    assert main(["avg", "--config", cfg, "--point", *point, "--jacobian"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["fd_step"] is None
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
