import dataclasses
import math
import re
import time

import numpy as np
import pytest

from conftest import NONSMOOTH_DSL, certified_forced_params
from slowflow import averaging, vdp
from slowflow.averaging import (
    averaged_function, averaged_jacobian, find_root, scan_roots,
)
from slowflow.certify import certify_hurwitz
from slowflow.errors import (DomainError, MaxIterations, NonFiniteValue, SingularJacobian,
                             SlowflowError)
from slowflow.exprdsl import FieldSpec, eval_expr, field_from_spec, parse
from slowflow.odeint import FD_STEP_SCALE, PeriodicField

TWO_PI = 2.0 * math.pi


def _field(dim, period, fn, kinks=None):
    return PeriodicField(dim=dim, period=period, evaluate=fn, kinks=kinks)


def _stack(vals, t, x):
    tarr = np.asarray(t, dtype=float)
    batch = tarr.shape if tarr.ndim else np.asarray(x).shape[:-1]
    out = np.empty(batch + (len(vals),))
    for j, v in enumerate(vals):
        out[..., j] = v
    return out


def test_full_period_cosine_averages_to_zero():
    f = _field(1, TWO_PI, lambda t, x, eps: _stack([np.cos(t)], t, x))
    assert abs(averaged_function(f, np.zeros(1))[0]) < 1e-12


def test_constant_in_time_gives_period_times_value():
    f = _field(2, 3.0, lambda t, x, eps: _stack(
        [np.broadcast_to(np.asarray(x)[..., 0], np.shape(np.asarray(t))),
         np.broadcast_to(np.asarray(x)[..., 1], np.shape(np.asarray(t)))], t, x))
    v = np.array([1.25, -0.5])
    assert np.allclose(averaged_function(f, v), 3.0 * v, rtol=0, atol=1e-13)


def test_rectified_sine_cubed_factor():
    # integral of |sin t| sin^2 t over a period is 8/3 (twice 4/3 over a half
    # period); this mean drives the unforced amplitude of the kinked oscillator
    f = _field(1, TWO_PI,
               lambda t, x, eps: _stack([np.abs(np.sin(t)) * np.sin(t) ** 2], t, x))
    assert abs(averaged_function(f, np.zeros(1))[0] - 8.0 / 3.0) < 1e-10


def test_rectified_sine_cubed_factor_via_dsl():
    spec = FieldSpec.from_strings(1, TWO_PI, ["abs(sin(t))*sin(t)^2"])
    f = field_from_spec(spec)
    assert abs(averaged_function(f, np.zeros(1))[0] - 8.0 / 3.0) < 1e-10


def test_node_count_validation():
    f = _field(1, TWO_PI, lambda t, x, eps: _stack([np.cos(t)], t, x))
    with pytest.raises(ValueError):
        averaged_function(f, np.zeros(1), n_nodes=8)
    with pytest.raises(ValueError):
        averaged_function(f, np.zeros(1), n_nodes=101)


def test_quadrature_converged_on_smooth_integrand():
    f = _field(1, TWO_PI, lambda t, x, eps: _stack(
        [np.sin(3 * t) ** 2 + np.cos(t)], t, x))
    a = averaged_function(f, np.zeros(1), 256)
    b = averaged_function(f, np.zeros(1), 512)
    assert abs(a[0] - b[0]) < 1e-10


@pytest.mark.parametrize("model,builder", [
    ("nonsmooth", vdp.nonsmooth_vdp_field),
    ("classical", vdp.classical_vdp_field),
])
def test_quadrature_matches_closed_form(model, builder):
    a, lam = 0.37, 0.8
    f = builder(vdp.ForcingParams(a, lam))
    rng = np.random.default_rng(3)
    for _ in range(8):
        v = rng.uniform(-3.0, 3.0, 2)
        got = averaged_function(f, v)
        want = vdp.averaged_closed_form(model, v[0], v[1], a, lam)
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("model,builder", [
    ("nonsmooth", vdp.nonsmooth_vdp_field),
    ("classical", vdp.classical_vdp_field),
])
def test_quadrature_jacobian_matches_closed_form(model, builder):
    # the average of dg/dx on kink-aligned panels; central differences of the
    # averaged field were off by up to 8e-9 here
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        a, lam = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)
        v = rng.uniform(-3.0, 3.0, 2)
        J = averaged_jacobian(builder(vdp.ForcingParams(a, lam)), v)
        worst = max(worst, float(np.max(np.abs(
            J - vdp.averaged_jacobian_closed_form(model, v[0], v[1], a)))))
    J = averaged_jacobian(builder(vdp.ForcingParams(0.37, 0.0)), np.zeros(2))
    worst = max(worst, float(np.max(np.abs(
        J - vdp.averaged_jacobian_closed_form(model, 0.0, 0.0, 0.37)))))
    assert worst <= 1e-10


@pytest.mark.parametrize("model", ["nonsmooth", "classical", "dsl"])
def test_quadrature_accuracy_gate(model):
    # Gauss-Legendre on the kink-aligned segments: within 1e-12 of the closed
    # forms over 200 random (a, lambda, v), average and Jacobian alike
    rng = np.random.default_rng(29)
    worst_avg = worst_jac = 0.0
    for _ in range(200):
        a, lam = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)
        v = rng.uniform(-3.0, 3.0, 2)
        if model == "dsl":
            f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL,
                                                       {"a": a, "lam": lam}))
        else:
            f = (vdp.nonsmooth_vdp_field if model == "nonsmooth"
                 else vdp.classical_vdp_field)(vdp.ForcingParams(a, lam))
        closed = "classical" if model == "classical" else "nonsmooth"
        worst_avg = max(worst_avg, float(np.max(np.abs(
            averaged_function(f, v) - vdp.averaged_closed_form(closed, v[0], v[1], a, lam)))))
        worst_jac = max(worst_jac, float(np.max(np.abs(
            averaged_jacobian(f, v) - vdp.averaged_jacobian_closed_form(closed, v[0], v[1], a)))))
    assert worst_avg <= 1e-12 and worst_jac <= 1e-12


def test_square_root_end_points_are_bisected():
    # sqrt|sin t| has infinite slope at the corners 0 and pi: the segments
    # there are bisected until the budget is spent.  Composite Simpson at
    # 4,096 nodes was off by 1.95e-5 here
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["sqrt(abs(sin(t)))*x1"]))
    assert abs(averaged_function(f, [1.0])[0] - 4.792560938942367) <= 1e-8


def _dip(c):
    """|sin t - c|, whose two corners near pi/2 are not published, and its
    exact integral over one period."""
    t1 = math.asin(c)
    exact = TWO_PI * c + 4.0 * math.cos(t1) - 2.0 * c * (math.pi - 2.0 * t1)
    return _field(1, TWO_PI, lambda t, x, eps: _stack([np.abs(np.sin(t) - c)], t, x)), exact


def test_missed_kink_dip_is_found_by_bisection():
    # the first pass sees the dip; bisection closes in on both corners.
    # Composite Simpson at 4,096 nodes was off by 7.1e-8 here
    f, exact = _dip(0.99)
    assert abs(averaged_function(f, [0.0])[0] - exact) <= 1e-12


def test_spent_budget_returns_the_value_and_warns(caplog):
    # the first pass always runs, past a budget below its 72 nodes too
    f, exact = _dip(0.9)
    with caplog.at_level("WARNING", logger="slowflow.averaging"):
        errs = [abs(averaged_function(f, [0.0], n)[0] - exact) for n in (16, 256)]
    assert max(errs) <= 1e-3
    assert [r.levelname for r in caplog.records] == ["WARNING"] * 2
    msg = caplog.records[1].getMessage()
    assert "budget 256" in msg and re.search(r"error estimate \d\.\d{3}e-\d\d", msg)
    caplog.clear()
    with caplog.at_level("WARNING", logger="slowflow.averaging"):
        averaged_function(vdp.nonsmooth_vdp_field(), [1.0, 0.5], 16)   # first pass only
    assert not caplog.records


def test_unpublished_corners_stop_on_the_summed_estimate(caplog):
    # |sin t - c| without kinks: the per-length test alone never passes at
    # the two corners, and it spent the budget (3,912 nodes) with a WARNING
    # in 47 of these 50 calls.  The summed estimate ends the bisection first
    nodes, errs = [], []
    with caplog.at_level("WARNING", logger="slowflow.averaging"):
        for c in np.linspace(0.5, 0.99, 50):
            f, exact = _dip(c)
            n = [0]

            def evaluate(t, x, eps, ev=f.evaluate):
                n[0] += np.size(t)
                return ev(t, x, eps)
            errs.append(abs(averaged_function(dataclasses.replace(f, evaluate=evaluate),
                                              [0.0])[0] - exact))
            nodes.append(n[0])
    assert not caplog.records
    assert sum(nodes) <= 176_016 and nodes.count(3912) <= 1     # 192,912 and 47 before
    assert np.median(errs) <= 1e-14 and max(errs) <= 2e-11


def test_quadrature_jacobian_calls_no_evaluate():
    base = vdp.classical_vdp_field(vdp.ForcingParams(0.2, 0.4))    # no kinks: one panel
    calls = {"evaluate": 0, "jacobian": 0}

    def counted(name):
        fn = getattr(base, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    f = dataclasses.replace(base, evaluate=counted("evaluate"), jacobian=counted("jacobian"))
    averaged_jacobian(f, np.array([1.2, -0.4]), 4096)
    assert calls == {"evaluate": 0, "jacobian": 1}        # one pass: whole and halves


def test_state_jumps_are_rejected_and_time_jumps_integrate():
    # sign(x1 - sin t) jumps where x1 = sin t, which moves with x: g is not
    # Lipschitz in x, and no period-map derivative follows such a jump
    with pytest.raises(DomainError, match=re.escape("'sign(x1 - sin(t))'")):
        field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["0.5 - sign(x1 - sin(t))"]))
    assert eval_expr(parse("0.5 - sign(x1 - sin(t))"), 0.0, np.array([0.2]), 0.0) == -0.5
    # sign(cos t) jumps at pi/2 and 3 pi/2 whatever x is: the average of
    # x1*(1 + sign(cos t)) is 2 pi v, and the quadrature of `jacobian` 2 pi
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["x1*(1 + sign(cos(t)))"]))
    for v in np.linspace(-2.0, 2.0, 13):
        assert abs(averaged_function(f, [v])[0] - TWO_PI * v) <= 1e-12
        assert abs(averaged_jacobian(f, [v])[0, 0] - TWO_PI) <= 1e-12
    r = find_root(f, [0.2])
    assert abs(r.v0[0]) <= 1e-12
    cert = certify_hurwitz(f, r.v0)
    assert not cert.hurwitz and abs(cert.spectrum.max_real - TWO_PI) <= 1e-12


def test_find_root_linear_converges_fast(linear_field):
    r = find_root(linear_field, np.array([1.0]))
    assert r.converged
    assert abs(r.v0[0]) < 1e-12
    assert r.iterations <= 2
    assert not r.non_isolated


def test_find_root_unforced_nonsmooth_amplitude(unforced_nonsmooth):
    r = find_root(unforced_nonsmooth, np.array([2.0, 0.5]))
    assert r.converged
    assert abs(math.hypot(*r.v0) - 3.0 * math.pi / 4.0) < 1e-8
    assert r.non_isolated       # circle of roots: Jacobian nearly singular


def test_find_root_unforced_classical_amplitude(unforced_classical):
    r = find_root(unforced_classical, np.array([2.1, 0.0]))
    assert r.converged
    assert abs(math.hypot(*r.v0) - 2.0) < 1e-8


def test_find_root_residual_survives_double_resolution(unforced_nonsmooth):
    r = find_root(unforced_nonsmooth, np.array([2.0, 0.5]), n_nodes=4096)
    recheck = np.linalg.norm(averaged_function(unforced_nonsmooth, r.v0, 8192))
    assert recheck <= 1e-10


def test_find_root_forced_residual_recheck():
    a, lam, root = certified_forced_params()
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))
    r = find_root(f, root + 0.1)
    assert r.converged
    recheck = np.linalg.norm(averaged_function(f, r.v0, 2 * averaging.DEFAULT_NODES))
    assert recheck <= 1e-10


def test_scan_roots_scalar_quadratic():
    f = _field(1, 1.0, lambda t, x, eps: _stack(
        [np.broadcast_to(np.asarray(x)[..., 0] ** 2 - 1.0,
                         np.shape(np.asarray(t)))], t, x))
    roots = scan_roots(f, np.array([[-2.0, 2.0]]), grid_n=32)
    vals = sorted(float(r.v0[0]) for r in roots)
    assert len(vals) == 2
    assert abs(vals[0] + 1.0) < 1e-9 and abs(vals[1] - 1.0) < 1e-9


def test_scan_roots_empty_box(linear_field):
    roots = scan_roots(linear_field, np.array([[2.0, 3.0]]), grid_n=8)
    assert roots == []


@pytest.mark.parametrize("guess, nodes", [((0.5, 2.0), 4096), ((0.0, 3.0), 8192)])
def test_find_root_outside_basin_stalls_fast(guess, nodes):
    # both starts lie outside Newton's basin: the damped residual stalls near
    # |v| = 1.2, and with no full-step fallback the solve says so at once
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    t0 = time.perf_counter()
    with pytest.raises(MaxIterations, match="stalled"):
        find_root(f, np.array(guess), n_nodes=nodes)
    assert time.perf_counter() - t0 < 1.0


def test_find_root_singular_jacobian_raises():
    # a constant field has a zero averaged Jacobian: the first step is singular
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["1 + 0*x1"]))
    with pytest.raises(SingularJacobian, match=r"Newton Jacobian singular at \[0\.\]"):
        find_root(f, np.array([0.0]))


def test_scan_roots_three_dimensional():
    # decoupled components: x1 = 0.5, x2 = +-1, and x3 = 0, where the
    # cos t term averages out; the widest shape the cell and minimum seeding
    # takes (2^3 corner slices, minima along three axes)
    f = field_from_spec(FieldSpec.from_strings(
        3, TWO_PI, ["x1 - 0.5", "x2^2 - 1", "x3 + 0.25*cos(t)"]))
    roots = scan_roots(f, np.array([[-2.0, 2.0]] * 3), grid_n=6)
    assert len(roots) == 2
    for r, want in zip(roots, ([0.5, -1.0, 0.0], [0.5, 1.0, 0.0])):
        assert r.converged and not r.non_isolated
        assert np.max(np.abs(r.v0 - want)) < 1e-10


def _reference_seeds(f, box, grid_n, n_nodes):
    # the per-cell and per-point loops that the sliced seeding replaced
    k = f.dim
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    shape = (grid_n,) * k
    vals = np.empty(shape + (k,))
    for idx in np.ndindex(shape):
        vals[idx] = averaged_function(f, np.array([axes[d][idx[d]] for d in range(k)]), n_nodes)
    norms = np.linalg.norm(vals, axis=-1)
    seeds = []
    for idx in np.ndindex((grid_n - 1,) * k):
        cvals = np.array([vals[tuple(np.add(idx, c))] for c in np.ndindex((2,) * k)])
        if np.any((cvals.min(axis=0) < 0) & (cvals.max(axis=0) > 0)):
            seeds.append(np.array([0.5 * (axes[d][idx[d]] + axes[d][idx[d] + 1])
                                   for d in range(k)]))
    for idx in np.ndindex(shape):
        nbrs = [idx[:d] + (idx[d] + o,) + idx[d + 1:] for d in range(k) for o in (-1, 1)
                if 0 <= idx[d] + o < grid_n]
        if not any(norms[n] < norms[idx] for n in nbrs):
            seeds.append(np.array([axes[d][idx[d]] for d in range(k)]))
    return seeds


@pytest.mark.parametrize("f, box, grid_n", [
    # at grid point (0, 0) the first component is rounding noise (1e-16)
    (vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)), [[-3.0, 3.0]] * 2, 5),
    (vdp.classical_vdp_field(vdp.ForcingParams(0.0, 0.5)), [[-3.0, 3.0]] * 2, 8),
    (vdp.linear_test_field(), [[-3.0, 3.0]], 9),
    (field_from_spec(FieldSpec.from_strings(
        3, TWO_PI, ["x2 - abs(x1 - sin(t))", "x3 - x1", "x1^2 + x2^2 - 1"])),
     [[-2.0, 2.0]] * 3, 5),
], ids=["nonsmooth", "classical", "linear", "dsl3"])
def test_scan_roots_seeds_match_reference_loop(monkeypatch, f, box, grid_n):
    seeds = []

    def record(f, scan_seeds, *args):
        seeds.extend(scan_seeds)
        return [None] * len(scan_seeds)         # every solve failed

    monkeypatch.setattr(averaging, "_find_roots", record)
    assert scan_roots(f, np.array(box), grid_n=grid_n, n_nodes=256) == []
    want = _reference_seeds(f, box, grid_n, 256)
    assert len(seeds) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(seeds, want))


def test_scan_roots_unforced_circle(unforced_nonsmooth):
    roots = scan_roots(unforced_nonsmooth, np.array([[-3.0, 3.0], [-3.0, 3.0]]),
                       grid_n=24)
    assert len(roots) >= 8
    target = 3.0 * math.pi / 4.0
    for r in roots:
        amp = math.hypot(*r.v0)
        if amp < 0.5:           # the origin is also a root (unstable focus)
            continue
        assert abs(amp - target) < 1e-7
        assert r.non_isolated


def test_scan_roots_survives_dsl_domain_error():
    # Newton from the seeds right of the root overshoots below x = -1, where
    # the square root is undefined: those trials count as no decrease and
    # the solve stalls; the scan must still return the root
    src = "sqrt(x1 + 1) - 1.2 + 0.3*cos(2*x1)"
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [src]))
    with pytest.raises(MaxIterations, match="stalled"):
        find_root(f, np.array([1.0]), n_nodes=256)
    roots = scan_roots(f, np.array([[-0.9, 4.0]]), grid_n=12, n_nodes=256)
    assert len(roots) == 1
    x = float(roots[0].v0[0])
    assert abs(math.sqrt(x + 1.0) - 1.2 + 0.3 * math.cos(2.0 * x)) < 1e-10


def test_scan_roots_validation(unforced_nonsmooth):
    with pytest.raises(ValueError):
        scan_roots(unforced_nonsmooth, np.array([[1.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        scan_roots(unforced_nonsmooth, np.array([[-1.0, 1.0], [-1.0, 1.0]]),
                   grid_n=100)


def test_averaged_report_shapes(unforced_nonsmooth):
    # `avg` reports averaged_function and, with --jacobian, averaged_jacobian
    f = dataclasses.replace(unforced_nonsmooth, jacobian=None)
    assert averaged_function(f, np.array([1.0, 0.0])).shape == (2,)
    assert averaged_jacobian(f, np.array([1.0, 0.0])).shape == (2, 2)


def test_averaged_report_uses_the_jacobian_step(unforced_nonsmooth):
    # a field without `jacobian` gets the central difference of its averaged
    # field at the package's one FD step rule
    f = dataclasses.replace(unforced_nonsmooth, jacobian=None)
    v, n = np.array([1.0, 0.5]), 256
    h = FD_STEP_SCALE * (1.0 + np.linalg.norm(v))
    want = np.column_stack([(averaged_function(f, v + h * e, n)
                             - averaged_function(f, v - h * e, n)) / (2.0 * h)
                            for e in np.eye(2)])
    assert np.array_equal(averaged_jacobian(f, v, n), want)


def test_averaged_report_of_a_jacobian_field_takes_no_fd_step(unforced_nonsmooth):
    # the quadrature of `jacobian` (within 1.2e-11 of the closed form here),
    # not the central difference the same field without `jacobian` gets
    v = np.array([1.0, 0.5])
    J = averaged_jacobian(unforced_nonsmooth, v)
    fd = averaged_jacobian(dataclasses.replace(unforced_nonsmooth, jacobian=None), v)
    assert not np.array_equal(J, fd)
    want = vdp.averaged_jacobian_closed_form("nonsmooth", 1.0, 0.5, 0.0)
    assert np.max(np.abs(J - want)) <= 1e-10


# --- stacked quadrature and the lockstep scan ----------------------------------------

def _reference_average(fn, f, v, n_nodes):
    # the one-state quadrature that the stacks replaced: `fn` maps times to
    # values at frozen v
    T = f.period
    cuts = {float(s) % T for s in (f.kinks(v, 0.0) if f.kinks else ())}
    edges = np.array([0.0, *sorted(s for s in cuts if 1e-12 * T < s < T * (1 - 1e-12)), T])
    lo, L = edges[:-1], np.diff(edges)
    n, half = len(lo), 0.5 * L

    def integrals(lo, L):
        vals = np.asarray(fn((lo[:, None] + L[:, None] * averaging._X).ravel()), dtype=float)
        vals = vals.reshape(len(lo), averaging.GL_ORDER, -1)
        return L[:, None] * (averaging._W @ vals), max(vals.max(), -vals.min())

    S, gmax = integrals(np.concatenate([lo, lo, lo + half]), np.concatenate([L, half, half]))
    whole, left, right = S[:n], S[n:2 * n], S[2 * n:]
    used, total, done = 3 * averaging.GL_ORDER * n, 0.0, 0.0
    while True:
        fine = left + right
        err = np.abs(whole - fine).max(axis=1)
        over = err > averaging.GL_TOL * (1.0 + gmax) * L
        if not over.any() or done + err.sum() <= averaging.GL_SUM_TOL * (1.0 + gmax) * T:
            return total + fine.sum(axis=0)
        total, done = total + fine[~over].sum(axis=0), done + err[~over].sum()
        lo, L, left, right, fine, err = (x[over] for x in (lo, L, left, right, fine, err))
        n = len(lo)
        if used + 4 * averaging.GL_ORDER * n > n_nodes:
            return total + fine.sum(axis=0)
        q = 0.25 * L
        Q, h = integrals((lo + np.arange(4.0)[:, None] * q).ravel(), np.tile(q, 4))
        used, gmax = used + 4 * averaging.GL_ORDER * n, max(gmax, h)
        lo, L = np.concatenate([lo, lo + 2.0 * q]), np.tile(2.0 * q, 2)
        whole = np.concatenate([left, right])
        left, right = Q.reshape(2, 2, n, -1).swapaxes(0, 1).reshape(2, 2 * n, -1)


def _reference_jacobian(f, v, n_nodes):
    if f.jacobian is not None:
        return _reference_average(lambda t: f.jacobian(t, v, 0.0), f, v,
                                  n_nodes).reshape(f.dim, f.dim)
    h = FD_STEP_SCALE * (1.0 + float(np.linalg.norm(v)))
    avg = lambda w: _reference_average(lambda t: f.evaluate(t, w, 0.0), f, w, n_nodes)
    return np.column_stack([(avg(v + h * e) - avg(v - h * e)) / (2.0 * h) for e in np.eye(f.dim)])


def _stack_fields():
    forced = vdp.ForcingParams(0.1, 1.0)
    dip, _ = _dip(0.8)                     # no kinks published: its corners bisect
    return {
        "nonsmooth": vdp.nonsmooth_vdp_field(forced),
        "classical": vdp.classical_vdp_field(vdp.ForcingParams(0.2, 0.4)),
        "linear": vdp.linear_test_field(),
        "dsl": field_from_spec(FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL,
                                                      {"a": 0.1, "lam": 1.0})),
        "no_jacobian": dataclasses.replace(vdp.nonsmooth_vdp_field(forced), jacobian=None),
        "dip": _field(1, TWO_PI, lambda t, x, eps: _stack(
            [np.abs(np.sin(t) - 0.8) * (1.0 + np.asarray(x)[..., 0])], t, x)),
    }


@pytest.mark.parametrize("name", list(_stack_fields()))
@pytest.mark.parametrize("n_nodes", [256, 4096])
def test_stacked_quadrature_matches_one_state_bit_for_bit(name, n_nodes, monkeypatch):
    f = _stack_fields()[name]
    rng = np.random.default_rng(41)
    V = rng.uniform(-3.0, 3.0, (40, f.dim))
    V[0], V[1, -1] = 0.0, 0.0           # the origin (no kinks) and a kink on t = 0
    # chunks of a few rows, so that a stack spans several calls
    monkeypatch.setattr(averaging, "STACK_NODES", 1000)
    A, J = averaging._averages(f, V, n_nodes), averaging._jacobians(f, V, n_nodes)
    for v, a, j in zip(V, A, J):
        want = _reference_average(lambda t: f.evaluate(t, v, 0.0), f, v, n_nodes)
        assert np.array_equal(a, want) and np.array_equal(averaged_function(f, v, n_nodes), want)
        want = _reference_jacobian(f, v, n_nodes)
        assert np.array_equal(j, want) and np.array_equal(averaged_jacobian(f, v, n_nodes), want)


@pytest.mark.parametrize("f", [
    vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)),
    vdp.classical_vdp_field(vdp.ForcingParams(0.2, 0.4)),
    vdp.linear_test_field(),
    field_from_spec(FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL, {"a": 0.1, "lam": 1.0})),
    field_from_spec(FieldSpec.from_strings(3, TWO_PI, [
        "sqrt(x1^2 + 1) * sin(t) - x2/(2 + cos(t))", "abs(x3 - cos(t)) * x1",
        "x2^3 - sin(x1*x3) + 0.5"])),
], ids=["nonsmooth", "classical", "linear", "dsl", "dsl3"])
def test_paired_jacobian_rows_match_frozen_calls(f):
    rng = np.random.default_rng(43)
    t, X = rng.uniform(0.0, TWO_PI, 50), rng.uniform(-2.0, 2.0, (50, f.dim))
    J = f.jacobian(t, X, 0.0)
    assert J.shape == (50, f.dim, f.dim)
    for i in range(50):
        assert np.array_equal(J[i], f.jacobian(t[i:i + 1], X[i], 0.0)[0])


def _lockstep_and_per_seed(monkeypatch, f, box, grid_n, n_nodes):
    # every seed of the scan, what the lockstep solve gave it, and what
    # find_root gives it alone
    seeds, got = [], []

    def record(f, scan_seeds, *args):
        seeds.extend(scan_seeds)
        got.extend(lockstep(f, scan_seeds, *args))
        return got

    lockstep = averaging._find_roots
    monkeypatch.setattr(averaging, "_find_roots", record)
    scan_roots(f, np.array(box), grid_n=grid_n, n_nodes=n_nodes)
    want = []
    for s in seeds:
        try:
            want.append(find_root(f, s, 1e-10, n_nodes))
        except SlowflowError:
            want.append(None)
    return got, want


@pytest.mark.parametrize("f, box, grid_n, n_nodes, failed", [
    (vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)), [[-3.0, 3.0]] * 2, 5, 256, 7),
    (vdp.classical_vdp_field(vdp.ForcingParams(0.0, 0.5)), [[-3.0, 3.0]] * 2, 8, 256, 0),
    (vdp.linear_test_field(), [[-3.0, 3.0]], 9, 256, 0),
    (field_from_spec(FieldSpec.from_strings(
        3, TWO_PI, ["x2 - abs(x1 - sin(t))", "x3 - x1", "x1^2 + x2^2 - 1"])),
     [[-2.0, 2.0]] * 3, 5, 256, 5),
    (vdp.nonsmooth_vdp_field(), [[-3.0, 3.0]] * 2, 24, averaging.DEFAULT_NODES, 0),
    (field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["sqrt(x1 + 1) - 1.2 + 0.3*cos(2*x1)"])),
     [[-0.9, 4.0]], 12, 256, 2),
], ids=["nonsmooth", "classical", "linear", "dsl3", "circle", "dsl_domain_error"])
def test_lockstep_scan_matches_find_root_per_seed(monkeypatch, f, box, grid_n, n_nodes, failed):
    got, want = _lockstep_and_per_seed(monkeypatch, f, box, grid_n, n_nodes)
    assert len(got) == len(want)
    assert sum(w is None for w in want) == failed     # seeds whose solve raises
    for r, w in zip(got, want):
        assert (r is None) == (w is None)
        if w is not None:
            assert (np.array_equal(r.v0, w.v0) and r.residual == w.residual
                    and r.iterations == w.iterations and r.converged == w.converged
                    and np.array_equal(r.jacobian, w.jacobian))


def test_lockstep_scan_field_call_count(monkeypatch):
    # one stacked evaluate a round, and every live seed takes one F a round:
    # the seeds cost as many evaluate calls as the longest per-seed run of F,
    # the grid one per segment count and chunk (here 2 + 1 + 1, the line
    # N = 0 having its kink at t = 0).  Per seed, 479 evaluate and 199
    # jacobian calls before
    base = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    calls = {"evaluate": 0, "jacobian": 0}

    def counted(name):
        fn = getattr(base, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    f = dataclasses.replace(base, evaluate=counted("evaluate"), jacobian=counted("jacobian"))
    box = np.array([[-3.0, 3.0]] * 2)
    roots = scan_roots(f, box, grid_n=7)
    assert len(roots) == 1
    scan = dict(calls)
    seeds = []
    monkeypatch.setattr(averaging, "_find_roots", lambda f, s, *args: seeds.extend(s) or [])
    scan_roots(base, box, grid_n=7)
    longest = {"evaluate": 0, "jacobian": 0}
    for s in seeds:
        calls.update(evaluate=0, jacobian=0)
        try:
            find_root(f, s)
        except SlowflowError:
            pass
        longest = {k: max(v, calls[k]) for k, v in longest.items()}
    assert len(seeds) == 28 and longest == {"evaluate": 66, "jacobian": 14}
    assert scan["evaluate"] == 4 + longest["evaluate"]
    assert scan == {"evaluate": 70, "jacobian": 29}


def test_scan_roots_skips_grid_points_whose_average_raises():
    # left of x = -1 the square root is undefined: those grid points are
    # missing, and the root right of them is still found
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["sqrt(x1 + 1) - 1.2 + 0.3*cos(2*x1)"]))
    with pytest.raises(DomainError):
        averaged_function(f, [-2.0])
    roots = scan_roots(f, np.array([[-2.0, 4.0]]), grid_n=12, n_nodes=256)
    assert len(roots) == 1
    x = float(roots[0].v0[0])
    assert abs(math.sqrt(x + 1.0) - 1.2 + 0.3 * math.cos(2.0 * x)) < 1e-10


def _inf_right_of_one():
    # g = (x1 - 1/2, x2 + sin(t)/10), infinite where x1 > 1; root (1/2, 0)
    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        g = np.stack([x[..., 0] - 0.5 + 0.0 * np.asarray(t), x[..., 1] + 0.1 * np.sin(t)], axis=-1)
        return np.where(x[..., :1] > 1.0, np.inf, g)
    return _field(2, TWO_PI, evaluate)


def test_non_finite_average_raises_non_finite_value():
    f = _inf_right_of_one()
    with pytest.raises(NonFiniteValue) as exc:
        averaged_function(f, [2.0, 0.0])
    assert str(exc.value) == "averaged field not finite at v=[2. 0.]"
    with pytest.raises(NonFiniteValue) as exc:
        averaged_jacobian(f, [2.0, 0.0])
    assert str(exc.value) == "averaged Jacobian not finite at v=[2. 0.]"
    with pytest.raises(NonFiniteValue, match="averaged field not finite"):
        find_root(f, [2.0, 0.0])


def test_scan_roots_drops_grid_points_whose_average_is_not_finite(monkeypatch):
    f, box = _inf_right_of_one(), np.array([[-3.0, 3.0]] * 2)
    roots = scan_roots(f, box, grid_n=9, n_nodes=256)
    seeds = []
    monkeypatch.setattr(averaging, "_find_roots", lambda f, s, *args: seeds.extend(s) or [])
    scan_roots(f, box, grid_n=9, n_nodes=256)
    assert len(roots) == 1 and np.allclose(roots[0].v0, [0.5, 0.0], atol=1e-10)
    # grid points lie at x1 = ..., 0.75, 1.5, ...: a cell with a finite corner
    # (centre 1.125) can still seed, a cell right of x1 = 1.5 cannot
    assert max(s[0] for s in seeds) == 1.125
