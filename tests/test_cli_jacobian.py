"""CLI reports of the averaged Jacobian: quadrature by default, FD on request."""

import json

import numpy as np

from conftest import certified_forced_params, validate_schema
from slowflow import averaging, vdp
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


def test_avg_jacobian_is_the_quadrature_unless_fd_step_is_configured(tmp_path, capsys):
    cfg, f, a, root = _config(tmp_path)
    point = [repr(float(x)) for x in root]
    assert main(["avg", "--config", cfg, "--point", *point, "--jacobian"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["fd_step"] is None
    want = vdp.averaged_jacobian_closed_form("nonsmooth", root[0], root[1], a)
    assert np.max(np.abs(np.array(rep["jacobian"]) - want)) <= 1e-10
    validate_schema(rep, _schema("avg_report.schema.json"))

    cfg, f, a, root = _config(tmp_path, fd_step=1e-5)
    assert main(["avg", "--config", cfg, "--point", *point, "--jacobian"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["fd_step"] == 1e-5
    n = averaging.DEFAULT_NODES
    fd = np.column_stack([(averaging.averaged_function(f, root + 1e-5 * e, n)
                           - averaging.averaged_function(f, root - 1e-5 * e, n)) / 2e-5
                          for e in np.eye(2)])
    assert np.array_equal(np.array(rep["jacobian"]), fd)
    validate_schema(rep, _schema("avg_report.schema.json"))
