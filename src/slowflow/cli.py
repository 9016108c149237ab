"""Command-line interface: config parsing, subcommands, CSV/JSON/SVG output.

Subcommands
-----------
avg         averaged field (and optional Jacobian) at a point -> JSON
roots       grid scan + Newton roots of the averaged field -> CSV
certify     checkable stability conditions at a point -> JSON
verify      fixed points of the period map over decreasing eps -> CSV + JSON
resonance   amplitude/stability curve over a detuning range -> CSV (+ SVG)

Exit codes: 0 ok, 1 stdout closed early (a broken pipe), 2 config or usage
error, 3 empty result, 4 numerical failure.
All output is deterministic for a fixed config and seed; floats are printed
with 17 significant digits so CSV re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import averaging, certify, exprdsl, orbit, vdp
from .errors import ConfigError, SlowflowError
from .odeint import IntegratorConfig, PeriodicField

__all__ = ["main", "RunConfig", "load_config", "format_float",
           "resonance_csv_lines", "resonance_svg", "CSV_RESONANCE_HEADER"]

CSV_RESONANCE_HEADER = "a,lambda,A,M,N,phi,ineq6,ineq7,hurwitz,stable,degenerate"
CSV_ROOTS_HEADER = "index,v,residual,iterations,converged,non_isolated"
CSV_VERIFY_HEADER = "eps,v_star,residual,multipliers_re,multipliers_im,stable,orbitally_stable,dist_to_v0"

_CONFIG_KEYS = {"system", "params", "integrator", "quadrature_nodes",
                "root_tol", "seed"}
_INTEGRATOR_KEYS = {"method", "h", "abs_tol", "rel_tol", "max_steps"}
_SYSTEM_KEYS = {"dim", "period", "components", "params"}

BUILTINS = ("nonsmooth_vdp", "classical_vdp", "linear_test")


@dataclass
class RunConfig:
    """Validated run configuration (file values overridden by CLI flags)."""

    system: object = "nonsmooth_vdp"          # builtin name or DSL dict
    params: dict = field(default_factory=dict)
    # None leaves the command's own default, which for `verify` and
    # `certify` has a higher fidelity than the package-wide one
    integrator: Optional[IntegratorConfig] = None
    quadrature_nodes: Optional[int] = None
    root_tol: float = 1e-10
    seed: int = 12345

    def build_field(self) -> PeriodicField:
        if isinstance(self.system, str):
            if self.system == "nonsmooth_vdp":
                return vdp.nonsmooth_vdp_field(self._forcing())
            if self.system == "classical_vdp":
                return vdp.classical_vdp_field(self._forcing())
            if self.system == "linear_test":
                return vdp.linear_test_field()
            raise ConfigError(f"unknown builtin system {self.system!r}; "
                              f"choose one of {BUILTINS} or give a DSL spec")
        try:
            spec = exprdsl.FieldSpec.from_strings(
                dim=int(self.system["dim"]),
                period=float(self.system["period"]),
                components=list(self.system["components"]),
                params={**self.system.get("params", {}), **self.params},
            )
            return exprdsl.field_from_spec(spec)
        except Exception as exc:
            raise ConfigError(f"invalid DSL system spec: {exc}") from exc

    def _forcing(self) -> vdp.ForcingParams:
        extra = set(self.params) - {"a", "lambda"}
        if extra:
            raise ConfigError(f"unknown params for builtin oscillator: {sorted(extra)}")
        return vdp.ForcingParams(float(self.params.get("a", 0.0)),
                                 float(self.params.get("lambda", 0.0)))


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> RunConfig:
    """Read and validate a JSON config; unknown keys are rejected."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig()
    if "system" in raw:
        system = raw["system"]
        if isinstance(system, dict):
            bad = set(system) - _SYSTEM_KEYS
            if bad:
                raise ConfigError(f"unknown system keys: {sorted(bad)}")
            for req in ("dim", "period", "components"):
                if req not in system:
                    raise ConfigError(f"DSL system spec is missing {req!r}")
        elif not isinstance(system, str):
            raise ConfigError("system must be a builtin name or a DSL object")
        cfg.system = system
    if "params" in raw:
        if not isinstance(raw["params"], dict):
            raise ConfigError("params must be an object")
        cfg.params = raw["params"]
    if "integrator" in raw:
        integ = raw["integrator"]
        if not isinstance(integ, dict):
            raise ConfigError("integrator must be an object")
        bad = set(integ) - _INTEGRATOR_KEYS
        if bad:
            raise ConfigError(f"unknown integrator keys: {sorted(bad)}")
        try:
            cfg.integrator = IntegratorConfig(**integ)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad integrator settings: {exc}") from exc
    for key, conv in (("quadrature_nodes", int), ("root_tol", float), ("seed", int)):
        if key in raw:
            try:
                setattr(cfg, key, conv(raw[key]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r}") from exc
    if cfg.quadrature_nodes is not None and (cfg.quadrature_nodes < 16
                                             or cfg.quadrature_nodes % 2):
        raise ConfigError("quadrature_nodes must be even and >= 16")
    if not cfg.root_tol > 0:
        raise ConfigError("root_tol must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    return cfg


def format_float(x: float) -> str:
    return format(float(x) + 0.0, ".17g")      # + 0.0 turns -0.0 into 0.0


def _format_bool(b: bool) -> str:
    return "true" if b else "false"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_point(values: List[float], dim: int) -> np.ndarray:
    pt = np.asarray(values, dtype=float)
    if pt.shape != (dim,):
        raise ConfigError(f"--point needs {dim} coordinates, got {len(values)}")
    if not np.all(np.isfinite(pt)):
        raise ConfigError("--point coordinates must be finite")
    return pt


# --- subcommands ---------------------------------------------------------------


def _overrides(args) -> dict:
    return {"quadrature_nodes": getattr(args, "nodes", None),
            "seed": getattr(args, "seed", None)}


def _given(**kwargs) -> dict:
    """`kwargs` without its None values, so the callee keeps its defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def cmd_avg(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    f = cfg.build_field()
    point = _parse_point(args.point, f.dim)
    n = averaging.DEFAULT_NODES if cfg.quadrature_nodes is None else cfg.quadrature_nodes
    value = averaging.averaged_function(f, point, n)
    J = averaging.averaged_jacobian(f, point, n) if args.jacobian else None
    out = {
        "point": [float(x) for x in point],
        "value": [float(x) for x in value],
        "norm": float(np.linalg.norm(value)),
        "quadrature_nodes": n,
        "jacobian": None if J is None else [[float(x) for x in row] for row in J],
    }
    _write_text(args.out, json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_roots(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    f = cfg.build_field()
    if len(args.box) != 2 * f.dim:
        raise ConfigError(f"--box needs {2 * f.dim} numbers (lo hi per axis)")
    box = np.asarray(args.box, dtype=float).reshape(f.dim, 2)
    if not np.all(np.isfinite(box)):
        raise ConfigError("--box bounds must be finite")
    roots = averaging.scan_roots(f, box, grid_n=args.grid,
                                 root_tol=cfg.root_tol,
                                 **_given(n_nodes=cfg.quadrature_nodes))
    lines = [CSV_ROOTS_HEADER]
    for i, r in enumerate(roots):
        vtxt = ";".join(format_float(x) for x in r.v0)
        lines.append(",".join([
            str(i), vtxt, format_float(r.residual), str(r.iterations),
            _format_bool(r.converged), _format_bool(r.non_isolated),
        ]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 3 if not roots else 0


def cmd_certify(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    f = cfg.build_field()
    point = _parse_point(args.point, f.dim)
    if not args.root_tol > 0:
        raise ConfigError("--root-tol must be positive")
    rep = certify.theorem_report(f, point, root_tol=args.root_tol, seed=cfg.seed,
                                 **_given(n_nodes=cfg.quadrature_nodes))
    _write_text(args.out, json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    f = cfg.build_field()
    point = _parse_point(args.point, f.dim)
    eps_list = [float(e) for e in args.eps]
    sweep = orbit.eps_sweep(f, point, eps_list, **_given(cfg=cfg.integrator))
    lines = [CSV_VERIFY_HEADER]
    for entry in sweep.entries:
        r = entry.result
        if r is None:
            lines.append(",".join([format_float(entry.eps), "", "", "", "",
                                   "false", "false", ""]))
            continue
        lines.append(",".join([
            format_float(entry.eps),
            ";".join(format_float(x) for x in r.v_star),
            format_float(r.residual),
            ";".join(format_float(m.real) for m in r.multipliers),
            ";".join(format_float(m.imag) for m in r.multipliers),
            _format_bool(r.stable),
            _format_bool(r.orbitally_stable),
            format_float(r.dist_to_v0),
        ]))
    _write_text(args.out, "\n".join(lines) + "\n")
    summary = {
        "point": [float(x) for x in point],
        "eps": eps_list,
        "fitted_order": sweep.order,
        "converged": [e.result is not None and e.result.converged
                      for e in sweep.entries],
        "errors": [e.error for e in sweep.entries],
    }
    _write_text(args.summary, json.dumps(summary, indent=2, sort_keys=True))
    if all(e.result is None for e in sweep.entries):
        return 4
    return 0


def cmd_resonance(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if args.n > 100_000:
        raise ConfigError("--n must be <= 100000")
    if not np.all(np.isfinite([args.lam, *args.a])):
        raise ConfigError("--lambda and --a must be finite")
    if args.lam < 0:
        raise ConfigError("--lambda must be >= 0")
    if args.a[1] < args.a[0]:
        raise ConfigError("--a must be lo hi with lo <= hi")
    points = vdp.resonance_curve(args.model, args.lam, args.a, args.n)
    text = "\n".join(resonance_csv_lines(points)) + "\n"
    _write_text(args.out, text)
    if args.svg:
        _write_text(args.svg, resonance_svg(points, args.model, args.lam))
    return 3 if not points else 0


def resonance_csv_lines(points: List[vdp.ResonancePoint]) -> List[str]:
    lines = [CSV_RESONANCE_HEADER]
    for p in points:
        nums = (p.a, p.lam, p.A, p.M, p.N, p.phi, p.ineq6, p.ineq7)
        flags = (p.hurwitz_numeric, p.stable, p.degenerate)
        lines.append(",".join([*map(format_float, nums), *map(_format_bool, flags)]))
    return lines


def resonance_svg(points: List[vdp.ResonancePoint], model: str,
                  lam: float, width: int = 640, height: int = 480) -> str:
    """Hand-emitted scatter of amplitude vs detuning.

    Stable points are solid, unstable hollow, degenerate crossed; no plotting
    dependency.
    """
    pad = 50.0
    xs = [p.a for p in points] or [0.0]
    ys = [p.A for p in points] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) * 1.1 + 1e-9
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        f'font-size="14">detuning a</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {height / 2:.1f})">amplitude A</text>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="14">'
        f'{model} resonance curve, forcing {lam:g}</text>',
    ]
    for x in (x0, 0.5 * (x0 + x1), x1):
        out.append(f'<text x="{sx(x):.1f}" y="{height - pad + 18:.1f}" '
                   f'text-anchor="middle" font-size="11">{x:.3g}</text>')
    for y in (y0, 0.5 * (y0 + y1), y1):
        out.append(f'<text x="{pad - 6:.1f}" y="{sy(y) + 4:.1f}" '
                   f'text-anchor="end" font-size="11">{y:.3g}</text>')
    r = 3.5
    for p in points:
        cx, cy = sx(p.a), sy(p.A)
        if p.degenerate:
            out.append(
                f'<path d="M {cx - r:.2f} {cy - r:.2f} L {cx + r:.2f} {cy + r:.2f} '
                f'M {cx - r:.2f} {cy + r:.2f} L {cx + r:.2f} {cy - r:.2f}" '
                f'stroke="black" stroke-width="1.2"/>'
            )
        elif p.stable:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r}" fill="black"/>')
        else:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r}" fill="none" '
                       f'stroke="black" stroke-width="1.2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- entry point ----------------------------------------------------------------


# argparse reads only -1 and -1.5 as negative numbers, so -3.6e-06 (how
# format_float prints a small coordinate) parses as an unknown option; this
# pattern, set on every parser, admits every float literal
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slowflow",
        description="Averaging-based analysis of weakly perturbed periodic ODEs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("avg", help="averaged field at a point (JSON)")
    p.add_argument("--config", default=None)
    p.add_argument("--nodes", type=int, default=None,
                   help="override quadrature_nodes (node budget per period) from the config")
    p.add_argument("--point", type=float, nargs="+", required=True)
    p.add_argument("--jacobian", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_avg)

    p = sub.add_parser("roots", help="grid scan + Newton roots (CSV)")
    p.add_argument("--config", default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--box", type=float, nargs="+", required=True,
                   metavar="LO_HI", help="lo hi per axis")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("certify", help="stability conditions at a point (JSON)")
    p.add_argument("--config", default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--point", type=float, nargs="+", required=True)
    p.add_argument("--root-tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="period-map fixed points over eps (CSV+JSON)")
    p.add_argument("--config", default=None)
    p.add_argument("--point", type=float, nargs="+", required=True)
    p.add_argument("--eps", type=float, nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("resonance", help="resonance curve (CSV, optional SVG)")
    p.add_argument("--model", choices=("nonsmooth", "classical"), required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--a", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_resonance)

    # --point, --box, --eps and --a take negative values
    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_NUMBER
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()          # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit has nothing to fail on (Python docs, signal, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, ValueError) as exc:
        # the library checks its arguments up front with ValueError: here
        # those are usage errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlowflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
