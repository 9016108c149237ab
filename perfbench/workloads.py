"""The benchmark's three workloads: set-up, seeded op rounds and op checks.

Each workload is a closed loop with one client: ops run back to back in one
thread.  ``setup`` does the program work the ops start from; ``make_round``
draws one round of ops from the seed and the round index.  Every round has the
same composition, so the share of failed ops is the same in every run.

An op's ``run`` is the timed call into the program.  Its ``check`` runs
afterwards, untimed: it returns True when the output is right, a message when
the program reported a failure (the op counts as failed), and raises
``Mismatch`` when the output is wrong.  Checks use the independent oracles in
``oracles.py`` or properties of the method, never stored program output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Union

import numpy as np

from slowflow import averaging, cli, exprdsl, orbit, vdp

import oracles
from oracles import expect

TWO_PI = 2.0 * math.pi
FORCING = (0.1, 1.0)                       # (a, lambda) of the forced oscillators
UNFORCED_START = np.array([3.0 * math.pi / 4.0, 0.0])
ROOT_BOX = np.array([[-4.0, 4.0], [-4.0, 4.0]])
# eps is drawn from this grid.  Off the grid, find_periodic on the nonsmooth
# oscillator stalls just above its 1e-10 residual target for about 1.5% of eps
# values (e.g. 0.0140704, 0.0488945, 0.0570352 from the closed-form root);
# every grid value converges for every system and start the workloads use, so
# no op fails by the draw.
EPS_GRID = np.round(0.01 + 0.0025 * np.arange(37), 4)
LINEAR_DSL = ["cos(t) - x1"]
NONSMOOTH_DSL = [
    "(-(abs(x1*sin(t)+x2*cos(t))-1)*(x1*cos(t)-x2*sin(t))"
    "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t))*cos(t)",
    "-((-(abs(x1*sin(t)+x2*cos(t))-1)*(x1*cos(t)-x2*sin(t))"
    "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t)))*sin(t)",
]


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Union[bool, str]]
    fault: str = ""        # known program fault that makes this op fail


@dataclass
class Context:
    """What set-up produced: fields, the roots and orbits ops start from, CLI
    config files; and the bytes CLI ops wrote, for the traced run."""

    out_dir: str
    fields: Dict[str, Any] = field(default_factory=dict)
    roots: Dict[str, np.ndarray] = field(default_factory=dict)
    configs: Dict[str, str] = field(default_factory=dict)
    orbits: Dict[str, Any] = field(default_factory=dict)
    cli_bytes: int = 0


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


def draw_eps(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.choice(EPS_GRID[(EPS_GRID >= lo) & (EPS_GRID <= hi)]))


# --- helpers ---------------------------------------------------------------------


def oracle_root(model: str) -> np.ndarray:
    a, lam = FORCING
    (A,) = oracles.amplitudes(model, a, lam)
    return oracles.forced_root(model, a, lam, A)


def forced_field(model: str):
    p = vdp.ForcingParams(*FORCING)
    return vdp.nonsmooth_vdp_field(p) if model == "nonsmooth" else vdp.classical_vdp_field(p)


def write_config(ctx: Context, name: str, cfg: dict) -> None:
    path = os.path.join(ctx.out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    ctx.configs[name] = path


def forced_config(model: str) -> dict:
    a, lam = FORCING
    return {"system": f"{model}_vdp", "params": {"a": a, "lambda": lam}}


def run_cli(ctx: Context, argv: List[str]):
    """slowflow.cli.main in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code
    text = out.getvalue()
    ctx.cli_bytes += len(text.encode("utf-8"))
    return rc, text


def fnum(x: float) -> str:
    return repr(float(x))


def locate_forced_roots(ctx: Context) -> None:
    """Grid scan + Newton on both forced oscillators; one root each.

    The ops then start from the closed-form root the scan must match to
    1e-8, not from the scan's own digits: whether find_periodic on the
    nonsmooth oscillator stalls just above its residual target depends on the
    last bits of its start (see EPS_GRID), and a start that moved with every
    change to the quadrature would turn that into failures a change did not
    cause.
    """
    for model in ("nonsmooth", "classical"):
        found = averaging.scan_roots(ctx.fields[model], ROOT_BOX, grid_n=5)
        ref = oracle_root(model)
        expect(len(found) == 1 and np.linalg.norm(found[0].v0 - ref) < 1e-8,
               f"setup: {model} roots {[r.v0 for r in found]} != oracle {ref}")
        ctx.roots[model] = ref


# --- checks shared by shoot and ensemble -------------------------------------------


def check_forced_orbit(model: str, root, eps: float, r) -> bool:
    a, _ = FORCING
    what = f"find_periodic({model}, eps={eps:.4g})"
    expect(r.converged and r.stable and r.residual <= 1e-10,
           f"{what}: converged={r.converged} stable={r.stable} residual={r.residual}")
    # the fixed point approaches the averaged root at rate eps
    dist = float(np.linalg.norm(r.v_star - root))
    expect(dist <= 2.0 * eps, f"{what}: |v* - v0| = {dist:.3e} > 2*eps")
    oracles.check_multipliers(r.multipliers, oracles.averaged_jacobian(model, root, a),
                              eps, what)
    return True


def check_linear_orbit(eps: float, r, what: str) -> bool:
    expect(r.converged and r.stable, f"{what}: converged={r.converged} stable={r.stable}")
    x = float(r.v_star[0])
    expect(abs(x - oracles.linear_fixed_point(eps)) <= 1e-9,
           f"{what}: fixed point {x!r} != eps^2/(1+eps^2)")
    mu = complex(r.multipliers[0])
    expect(abs(mu - oracles.linear_multiplier(eps)) <= 1e-6,
           f"{what}: multiplier {mu} != exp(-2*pi*eps)")
    return True


def check_unforced_orbit(eps: float, r) -> bool:
    what = f"find_periodic(unforced, eps={eps:.4g})"
    expect(r.orbitally_stable and not r.stable,
           f"{what}: orbitally_stable={r.orbitally_stable} stable={r.stable}")
    amp = float(np.linalg.norm(r.v_star))
    expect(abs(amp - oracles.unforced_amplitude("nonsmooth")) <= eps,
           f"{what}: amplitude {amp} not within eps of 3*pi/4")
    # radial multiplier 1 + eps*lambda_r with lambda_r = A*k'(A) = -pi, phase
    # multiplier 1
    mags = np.sort(np.abs(r.multipliers))
    expect(abs(mags[1] - 1.0) <= 1e-4, f"{what}: phase multiplier {mags[1]}")
    expect(abs(mags[0] - (1.0 - math.pi * eps)) <= 3.0 * (1 + math.pi ** 2) * eps * eps,
           f"{what}: radial multiplier {mags[0]} vs 1 - pi*eps")
    return True


# --- shoot -------------------------------------------------------------------------


def setup_shoot(out_dir: str) -> Context:
    ctx = Context(out_dir)
    for model in ("nonsmooth", "classical"):
        ctx.fields[model] = forced_field(model)
    ctx.fields["linear"] = vdp.linear_test_field()
    ctx.fields["dsl_linear"] = exprdsl.field_from_spec(
        exprdsl.FieldSpec.from_strings(1, TWO_PI, LINEAR_DSL))
    ctx.fields["unforced"] = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.0, 0.0))
    locate_forced_roots(ctx)
    for name in ("linear", "dsl_linear"):
        r = averaging.find_root(ctx.fields[name], [0.5])
        expect(abs(float(r.v0[0])) < 1e-10, f"setup: {name} averaged root {r.v0} != 0")
        ctx.roots[name] = np.zeros(1)
    write_config(ctx, "shoot_nonsmooth", forced_config("nonsmooth"))
    return ctx


# Solve cost grows with eps, and op_p50_s sits inside the spread of the
# find_periodic latencies, so each op has a fixed eps slot and the seed moves
# it by at most one grid step: every round costs about the same.
def near(rng: np.random.Generator, eps: float) -> float:
    return draw_eps(rng, eps - 0.0025, eps + 0.0025)


def make_shoot_round(ctx: Context, seed: int, index: int) -> List[Op]:
    rng = round_rng(seed, index)
    ops = [_forced_solve(ctx, model, near(rng, eps))
           for model, eps in (("nonsmooth", 0.02), ("nonsmooth", 0.07),
                              ("classical", 0.045), ("classical", 0.095))]
    ops.append(_linear_solve(ctx, "linear", near(rng, 0.03)))
    ops.append(_linear_solve(ctx, "dsl_linear", near(rng, 0.08)))
    eps = near(rng, 0.03)
    f = ctx.fields["unforced"]
    ops.append(Op("find_periodic unforced",
                  lambda: orbit.find_periodic(f, UNFORCED_START, eps),
                  lambda r: check_unforced_orbit(eps, r)))
    ops.append(_verify(ctx, near(rng, 0.06)))
    return ops


def _forced_solve(ctx, model, eps):
    f, root = ctx.fields[model], ctx.roots[model]
    return Op(f"find_periodic {model}",
              lambda: orbit.find_periodic(f, root, eps, v0=root),
              lambda r: check_forced_orbit(model, root, eps, r))


def _linear_solve(ctx, name, eps):
    f, root = ctx.fields[name], ctx.roots[name]
    return Op(f"find_periodic {name}",
              lambda: orbit.find_periodic(f, root, eps),
              lambda r: check_linear_orbit(eps, r, f"find_periodic({name}, eps={eps:.4g})"))


def _verify(ctx, eps0):
    root = ctx.roots["nonsmooth"]
    eps = [eps0, eps0 / 2.0, eps0 / 4.0]
    argv = ["verify", "--config", ctx.configs["shoot_nonsmooth"],
            "--point", fnum(root[0]), fnum(root[1]), "--eps", *map(fnum, eps)]

    def check(out):
        rc, text = out
        what = f"slowflow verify --eps {' '.join(map(fnum, eps))}"
        if rc != 0:
            return f"{what}: exit code {rc}"
        lines = text.splitlines()
        expect(lines[0] == cli.CSV_VERIFY_HEADER, f"{what}: CSV header")
        rows = [ln.split(",") for ln in lines[1:4]]
        summary = json.loads("\n".join(lines[4:]))
        if not all(summary["converged"]):
            return f"{what}: errors {summary['errors']}"
        a, _ = FORCING
        J = oracles.averaged_jacobian("nonsmooth", root, a)
        for e, row in zip(eps, rows):
            expect(float(row[0]) == e, f"{what}: eps column {row[0]}")
            expect(row[5] == "true" and row[6] == "false", f"{what}: stability flags {row}")
            v = np.array([float(s) for s in row[1].split(";")])
            dist = float(row[7])
            expect(abs(dist - np.linalg.norm(v - root)) <= 1e-12 + 1e-9 * dist
                   and dist <= 2.0 * e, f"{what}: dist_to_v0 {dist} at eps {e}")
            mults = (np.array([float(s) for s in row[3].split(";")])
                     + 1j * np.array([float(s) for s in row[4].split(";")]))
            oracles.check_multipliers(mults, J, e, what)
        order = summary["fitted_order"]
        expect(order is not None and abs(order - 1.0) <= 0.1,
               f"{what}: fitted order {order} not near 1")
        return True

    return Op("cli verify", lambda: run_cli(ctx, argv), check)


# --- ensemble ----------------------------------------------------------------------


def setup_ensemble(out_dir: str) -> Context:
    """Fields, the averaged root and the two orbits the ensembles start from.

    The orbits' eps are fixed: basin cost scales with 1/eps, and set-up is
    timed, so only the ensembles themselves are drawn from the seed.
    """
    ctx = Context(out_dir)
    ctx.fields["nonsmooth"] = forced_field("nonsmooth")
    ctx.fields["unforced"] = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.0, 0.0))
    ctx.fields["linear"] = vdp.linear_test_field()
    found = averaging.find_root(ctx.fields["nonsmooth"], np.array([2.0, 2.0])).v0
    root = oracle_root("nonsmooth")        # see locate_forced_roots
    expect(np.linalg.norm(found - root) < 1e-8, f"setup: nonsmooth averaged root {found}")
    ctx.roots["nonsmooth"] = root
    eps_f = 0.1
    r = orbit.find_periodic(ctx.fields["nonsmooth"], root, eps_f, v0=root)
    check_forced_orbit("nonsmooth", root, eps_f, r)
    ctx.orbits["forced"] = (eps_f, r)
    eps_u = 0.03
    r = orbit.find_periodic(ctx.fields["unforced"], UNFORCED_START, eps_u)
    check_unforced_orbit(eps_u, r)
    ctx.orbits["unforced"] = (eps_u, r)
    return ctx


def make_ensemble_round(ctx: Context, seed: int, index: int) -> List[Op]:
    rng = round_rng(seed, index)
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=5)]
    eps_lin = draw_eps(rng, 0.01, 0.1)
    return [
        _basin(ctx, "forced", 32, 0.1, 1e-2, seeds[0]),
        _basin(ctx, "forced", 256, 0.1, 1e-2, seeds[1]),
        _basin(ctx, "unforced", 128, 0.1, 2e-2, seeds[2]),
        _contraction(ctx, 128, seeds[3]),
        _linear_contraction(ctx, eps_lin, 64, seeds[4]),
    ]


def _basin(ctx, which, m, radius, capture, seed):
    eps, r = ctx.orbits[which]
    orbital = which == "unforced"
    f = ctx.fields["unforced" if orbital else "nonsmooth"]

    def check(frac):
        expect(frac == 1.0, f"basin_probe({which}, m={m}): fraction {frac} != 1 "
                            f"inside the basin")
        return True

    return Op(f"basin_probe {which} m={m}",
              lambda: orbit.basin_probe(f, r.v_star, eps, radius, n_starts=m,
                                        n_periods=400, capture_radius=capture,
                                        seed=seed, orbital=orbital),
              check)


def _contraction(ctx, m, seed):
    eps, r = ctx.orbits["forced"]
    a, _ = FORCING
    f = ctx.fields["nonsmooth"]
    J = oracles.averaged_jacobian("nonsmooth", ctx.roots["nonsmooth"], a)
    sv = np.linalg.svd(np.eye(2) + eps * J, compute_uv=False)
    rho = float(np.max(np.abs(oracles.sorted_eigs(J))))
    slack = 3.0 * (1.0 + rho * rho) * eps * eps + 0.05 * eps

    def check(c):
        # the sampled Lipschitz ratio of a near-linear map lies between the
        # singular values of its derivative, known here to O(eps^2)
        expect(sv[-1] - slack <= c <= sv[0] + slack and c < 1.0,
               f"measure_contraction(forced, m={m}): {c} outside "
               f"[{sv[-1]:.4f}, {sv[0]:.4f}] +- {slack:.4f}")
        return True

    return Op(f"measure_contraction forced m={m}",
              lambda: orbit.measure_contraction(f, r.v_star, eps, 0.05,
                                                n_pairs=m // 2, seed=seed),
              check)


def _linear_contraction(ctx, eps, m, seed):
    f = ctx.fields["linear"]
    x0 = np.array([oracles.linear_fixed_point(eps)])

    def check(c):
        expect(abs(c - oracles.linear_multiplier(eps)) <= 1e-8,
               f"measure_contraction(linear, eps={eps:.4g}): {c} != exp(-2*pi*eps)")
        return True

    return Op(f"measure_contraction linear m={m}",
              lambda: orbit.measure_contraction(f, x0, eps, 0.1, n_pairs=m // 2,
                                                seed=seed),
              check)


# --- average -----------------------------------------------------------------------

FAULT_DSL_KINKS = ("DSL fields publish no kinks, so Simpson panels straddle the "
                   "corners (ROADMAP item 5)")
FAULT_STALL = ("find_root's line search has no Armijo condition: it stalls at residual "
               "2.27e-10 against the 1e-10 target (ROADMAP item 3)")
FAULT_DIVERGE = ("find_root's fallback takes the full undamped step and diverges to "
                 "residual 2.6e6 (ROADMAP item 3)")


def setup_average(out_dir: str) -> Context:
    ctx = Context(out_dir)
    a, lam = FORCING
    for model in ("nonsmooth", "classical"):
        ctx.fields[model] = forced_field(model)
        write_config(ctx, model, forced_config(model))
    spec = exprdsl.FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL, {"a": a, "lam": lam})
    ctx.fields["dsl_nonsmooth"] = exprdsl.field_from_spec(spec)
    write_config(ctx, "dsl_nonsmooth", {"system": {
        "dim": 2, "period": TWO_PI, "components": NONSMOOTH_DSL,
        "params": {"a": a, "lam": lam}}})
    locate_forced_roots(ctx)
    return ctx


def make_average_round(ctx: Context, seed: int, index: int) -> List[Op]:
    rng = round_rng(seed, index)
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=2)]
    ops = [
        _certify(ctx, "nonsmooth", ctx.roots["nonsmooth"], seeds[0]),
        _certify(ctx, "classical", ctx.roots["classical"], seeds[1]),
        # the DSL twin at the exact (closed-form) averaged root
        _certify(ctx, "dsl_nonsmooth", oracle_root("nonsmooth"), 0, FAULT_DSL_KINKS),
    ]
    for name in ("nonsmooth", "dsl_nonsmooth"):
        rad, ang = rng.uniform(0.5, 3.5), rng.uniform(0.0, TWO_PI)
        ops.append(_avg(ctx, name, rad * np.array([math.cos(ang), math.sin(ang)])))
    ops.append(_roots(ctx, rng))
    ops.extend(_resonance_pair(ctx, rng))
    for model, phi, nodes in (("nonsmooth", 0.5, 4096), ("nonsmooth", 2.5, 8192),
                              ("classical", 0.5, 2048), ("classical", 2.5, 4096)):
        # a seeded guess on a ring around the root
        ang = phi + rng.uniform(-0.3, 0.3)
        guess = ctx.roots[model] + rng.uniform(0.5, 1.0) * np.array([math.cos(ang),
                                                                     math.sin(ang)])
        ops.append(_find_root(ctx, model, guess, nodes))
    ops.append(_find_root(ctx, "nonsmooth", (0.5, 2.0), 4096, FAULT_STALL))
    ops.append(_find_root(ctx, "nonsmooth", (0.0, 3.0), 8192, FAULT_DIVERGE))
    return ops


def _certify(ctx, name, point, seed, fault=""):
    model = "classical" if name == "classical" else "nonsmooth"
    a, _ = FORCING
    argv = ["certify", "--config", ctx.configs[name],
            "--point", fnum(point[0]), fnum(point[1]), "--seed", str(seed)]

    def check(out):
        rc, text = out
        what = f"slowflow certify ({name})"
        if rc != 0:
            return f"{what}: exit code {rc}"
        rep = json.loads(text)
        if rep["verdict"] != "certified":
            return f"{what}: verdict {rep['verdict']}"
        J = oracles.averaged_jacobian(model, point, a)
        resid = float(np.linalg.norm(oracles.averaged_field(model, point, a, FORCING[1])))
        expect(rep["root_ok"] and resid <= 1e-8, f"{what}: point is no root")
        spec = np.array([complex(re, im) for re, im in rep["spectrum"]])
        ref = oracles.sorted_eigs(J)
        expect(np.max(np.abs(np.sort_complex(spec) - np.sort_complex(ref))) <= 1e-4
               * max(1.0, float(np.max(np.abs(ref)))), f"{what}: spectrum {spec} vs {ref}")
        oracles.check_certificate(rep, J, what)
        return True

    return Op(f"cli certify {name}", lambda: run_cli(ctx, argv), check, fault)


def _avg(ctx, name, point):
    """`slowflow avg` at a seeded point, against the closed-form average.

    The built-in field aligns its quadrature panels with the corners, so its
    value and FD Jacobian are accurate to rounding.  The DSL twin publishes no
    corners: its value is off by up to ~2e-5 at 4096 nodes and its FD Jacobian
    by up to ~1e-2, depending on the point, so only its value is checked.
    """
    model = "nonsmooth"
    a, lam = FORCING
    builtin = name == "nonsmooth"
    argv = ["avg", "--config", ctx.configs[name], "--point", fnum(point[0]),
            fnum(point[1])] + (["--jacobian"] if builtin else [])
    tol = 1e-9 if builtin else 1e-4

    def check(out):
        rc, text = out
        what = f"slowflow avg ({name}) at {point}"
        expect(rc == 0, f"{what}: exit code {rc}")
        rep = json.loads(text)
        val = np.array(rep["value"])
        ref = oracles.averaged_field(model, point, a, lam)
        expect(np.max(np.abs(val - ref)) <= tol * (1 + np.max(np.abs(ref))),
               f"{what}: value {val} vs closed form {ref}")
        if builtin:
            J = np.array(rep["jacobian"])
            Jref = oracles.averaged_jacobian(model, point, a)
            expect(np.max(np.abs(J - Jref)) <= 1e-6 * (1 + np.max(np.abs(Jref))),
                   f"{what}: Jacobian {J} vs closed form {Jref}")
        return True

    return Op(f"cli avg {name}", lambda: run_cli(ctx, argv), check)


def _roots(ctx, rng):
    root = ctx.roots["nonsmooth"]
    lo = root - rng.uniform(1.5, 2.0, size=2)
    hi = root + rng.uniform(1.5, 2.0, size=2)
    grid = 7
    argv = ["roots", "--config", ctx.configs["nonsmooth"], "--nodes", "1024",
            "--grid", str(grid), "--box", fnum(lo[0]), fnum(hi[0]), fnum(lo[1]), fnum(hi[1])]
    ref = oracle_root("nonsmooth")

    def check(out):
        rc, text = out
        what = f"slowflow roots --grid {grid}"
        if rc != 0:
            return f"{what}: exit code {rc}"
        lines = text.splitlines()
        expect(lines[0] == cli.CSV_ROOTS_HEADER, f"{what}: CSV header")
        expect(len(lines) == 2, f"{what}: {len(lines) - 1} roots, expected 1")
        v = np.array([float(s) for s in lines[1].split(",")[1].split(";")])
        expect(np.linalg.norm(v - ref) <= 1e-8, f"{what}: root {v} vs oracle {ref}")
        return True

    return Op("cli roots", lambda: run_cli(ctx, argv), check)


def _resonance_pair(ctx, rng):
    """A seeded `resonance` command, then the same command again.

    The first run's rows are checked against the closed-form field; the
    second run must emit byte-identical CSV.  With lambda >= 0.9 the
    nonsmooth oscillator has one amplitude root at every detuning, so each
    run has three rows and the same cost.
    """
    model = "nonsmooth"
    lam = float(rng.uniform(0.9, 1.1))
    a0 = float(rng.uniform(-0.3, -0.1))
    argv = ["resonance", "--model", model, "--lambda", fnum(lam),
            "--a", fnum(a0), fnum(a0 + 0.4), "--n", "3"]
    what = f"slowflow {' '.join(argv)}"
    first = {}

    def check_rows(out):
        rc, text = out
        expect(rc == 0, f"{what}: exit code {rc}")
        first["text"] = text
        lines = text.splitlines()
        expect(lines[0] == cli.CSV_RESONANCE_HEADER, f"{what}: CSV header")
        rows = [ln.split(",") for ln in lines[1:]]
        expected = sum(len(oracles.amplitudes(model, float(a), lam))
                       for a in np.linspace(a0, a0 + 0.4, 3))
        expect(len(rows) == expected, f"{what}: {len(rows)} rows, oracle has {expected}")
        for row in rows:
            a, A, M, N = (float(row[i]) for i in (0, 2, 3, 4))
            v = np.array([M, N])
            g = oracles.averaged_field(model, v, a, lam)
            expect(np.max(np.abs(g)) <= 1e-8, f"{what}: row {row[:5]} is no root ({g})")
            expect(abs(math.hypot(M, N) - A) <= 1e-9 * (1 + A), f"{what}: A != |(M, N)|")
            eig = oracles.sorted_eigs(oracles.averaged_jacobian(model, v, a))
            stable, hurwitz = row[9] == "true", row[8] == "true"
            if float(np.min(np.abs(eig.real))) > 1e-3:
                expect(stable == hurwitz == bool(np.max(eig.real) < 0),
                       f"{what}: stable={stable} hurwitz={hurwitz} eigenvalues {eig}")
        return True

    def check_repeat(out):
        rc, text = out
        expect(rc == 0 and text == first.get("text"),
               f"{what}: CSV differs between two identical runs")
        return True

    return [Op("cli resonance", lambda: run_cli(ctx, argv), check_rows),
            Op("cli resonance repeat", lambda: run_cli(ctx, argv), check_repeat)]


def _find_root(ctx, model, guess, nodes, fault=""):
    f = ctx.fields[model]
    ref = oracle_root(model)
    guess = np.asarray(guess, dtype=float)

    def check(r):
        expect(r.converged and np.linalg.norm(r.v0 - ref) <= 1e-8,
               f"find_root({model}, {guess}, {nodes}): {r.v0} vs oracle {ref}")
        return True

    name = f"find_root {model}"
    if fault:
        name += f" from ({guess[0]:g}, {guess[1]:g}) n={nodes}"
    return Op(name, lambda: averaging.find_root(f, guess, n_nodes=nodes), check, fault)


WORKLOADS = {
    "shoot": (setup_shoot, make_shoot_round),
    "ensemble": (setup_ensemble, make_ensemble_round),
    "average": (setup_average, make_average_round),
}
