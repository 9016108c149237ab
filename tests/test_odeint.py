import dataclasses
import inspect
import math
import re
import time
import traceback

import numpy as np
import pytest

from conftest import certified_forced_params, rk4
from slowflow import certify, exprdsl, odeint, orbit, vdp
from slowflow.errors import NonFiniteState, StepLimitExceeded
from slowflow.odeint import (
    IntegratorConfig, PeriodicField, flow, flow_batch, integrate,
    poincare_map, variational_map,
)

TWO_PI = 2.0 * math.pi


def _field(dim, period, fn, kinks=None):
    return PeriodicField(dim=dim, period=period, evaluate=fn, kinks=kinks)


def exp_field():
    # x' = x written as eps*g with eps folded in (eps = 1, g = x)
    return _field(1, 1.0, lambda t, x, eps: np.asarray(x, dtype=float))


def linear_periodic_x0(eps):
    # exact periodic initial condition of x' = eps(-x + cos t):
    # x_p(t) = eps(eps cos t + sin t)/(1+eps^2)
    return eps * eps / (1.0 + eps * eps)


def test_linear_oracle_satisfies_the_ode():
    # substitution check of the closed form before it is used as an oracle
    eps = 0.1
    x_p = lambda t: eps * (eps * math.cos(t) + math.sin(t)) / (1 + eps * eps)
    h = 1e-6
    for t in np.linspace(0.0, TWO_PI, 17):
        lhs = (x_p(t + h) - x_p(t - h)) / (2 * h)
        rhs = eps * (-x_p(t) + math.cos(t))
        assert abs(lhs - rhs) < 1e-9


def test_exponential_growth_rk4():
    traj = integrate(exp_field(), 0.0, 1.0, np.array([1.0]), 1.0, rk4(1e-3))
    assert abs(traj.final_state[0] - math.e) < 1e-9
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert np.all(np.isfinite(traj.states))


def test_harmonic_oscillator_full_turn(harmonic_field):
    traj = integrate(harmonic_field, 0.0, TWO_PI, np.array([1.0, 0.0]), 1.0,
                     rk4(1e-3))
    assert np.max(np.abs(traj.final_state - np.array([1.0, 0.0]))) < 1e-8


@pytest.mark.parametrize("cfg", [rk4(TWO_PI / 2000), IntegratorConfig()])
def test_linear_periodic_initial_condition(linear_field, cfg):
    eps = 0.1
    x0 = linear_periodic_x0(eps)
    traj = integrate(linear_field, 0.0, TWO_PI, np.array([x0]), eps, cfg)
    assert abs(traj.final_state[0] - x0) < 1e-9


def test_poincare_identity_at_eps_zero(linear_field, harmonic_field):
    for f, v in ((linear_field, np.array([0.7])),
                 (harmonic_field, np.array([0.3, -1.1]))):
        assert np.max(np.abs(poincare_map(f, v, 0.0) - v)) == 0.0


def test_poincare_linear_closed_form(linear_field):
    eps = 0.1
    x0 = linear_periodic_x0(eps)
    # x(T, v) = (v - x0) e^{-eps T} + x0
    expected = (0.0 - x0) * math.exp(-eps * TWO_PI) + x0
    got = poincare_map(linear_field, np.array([0.0]), eps)
    assert abs(got[0] - expected) < 1e-10


def g_eps(f, v, eps, cfg=IntegratorConfig()):
    # normalized displacement (P(v) - v) / eps of the period map
    return (poincare_map(f, v, eps, cfg) - v) / eps


def test_g_eps_linear_closed_form(linear_field):
    eps = 0.1
    x0 = linear_periodic_x0(eps)
    expected = ((0.0 - x0) * math.exp(-eps * TWO_PI) + x0) / eps
    assert abs(g_eps(linear_field, np.array([0.0]), eps)[0] - expected) < 1e-9


def test_g_eps_constant_field_exact():
    c = np.array([0.4, -1.2])

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        tarr = np.asarray(t, dtype=float)
        batch = tarr.shape if tarr.ndim else x.shape[:-1]
        return np.broadcast_to(c, batch + (2,)).copy()

    f = _field(2, 2.0, evaluate)
    for eps in (1e-3, 0.1, 0.7):
        assert np.max(np.abs(g_eps(f, np.zeros(2), eps) - 2.0 * c)) < 1e-12


def test_g_eps_converges_to_averaged(linear_field):
    from slowflow.averaging import averaged_function
    v = np.array([0.5])
    g0 = averaged_function(linear_field, v)
    gaps = [np.max(np.abs(g_eps(linear_field, v, e) - g0))
            for e in (1e-2, 1e-3, 1e-4)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_g_eps_converges_to_averaged_nonsmooth(unforced_nonsmooth):
    from slowflow.averaging import averaged_function
    v = np.array([1.1, 0.9])
    g0 = averaged_function(unforced_nonsmooth, v)
    # dividing the period-map displacement by eps amplifies integrator error
    # by 1/eps, so the smallest eps needs a tight tolerance
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    gaps = [np.max(np.abs(g_eps(unforced_nonsmooth, v, e, cfg) - g0))
            for e in (1e-2, 1e-3, 1e-4)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_rk4_order_on_harmonic(harmonic_field):
    x0 = np.array([1.0, 0.0])

    def err(h):
        out = flow(harmonic_field, 0.0, TWO_PI, x0, 1.0, rk4(h))
        return np.max(np.abs(out - x0))

    e1, e2 = err(TWO_PI / 100), err(TWO_PI / 200)
    assert e1 / e2 >= 12.0
    assert math.log2(e1 / e2) >= 3.8


def test_order_on_lipschitz_field():
    # x' = eps(|x| - 1) crosses the corner once from x0 = 0.5 over [0, 1];
    # the closed form is 1 - 0.5 e^t up to the crossing at ln 2, then
    # e^{-(t - ln 2)} - 1.  The corner error coefficient depends on where the
    # crossing falls inside a step, so the order is fitted by least squares
    # against the exact endpoint rather than by pairwise differences.
    f = _field(1, 1.0, lambda t, x, eps: np.abs(np.asarray(x, dtype=float)) - 1.0)
    x0 = np.array([0.5])
    exact = math.exp(-(1.0 - math.log(2.0))) - 1.0
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    errs = np.array([abs(flow(f, 0.0, 1.0, x0, 1.0, rk4(h))[0] - exact)
                     for h in hs])
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.0


def test_time_periodicity_split_integration(unforced_nonsmooth):
    f = unforced_nonsmooth
    x0 = np.array([1.7, -0.4])
    cfg = rk4(f.period / 2000)
    a = flow(f, 0.0, f.period, x0, 0.05, cfg)
    b = flow(f, f.period, 2 * f.period, a, 0.05, cfg)
    c = flow(f, 0.0, 2 * f.period, x0, 0.05, cfg)
    assert np.max(np.abs(b - c)) < 1e-12


def test_poincare_contraction_gronwall(unforced_nonsmooth):
    f = unforced_nonsmooth
    eps = 0.01
    center = np.array([1.0, 1.0])
    lip = certify.estimate_lipschitz(f, center, 0.3, n_samples=4000, seed=5)
    rng = np.random.default_rng(9)
    worst = 0.0
    pts = center + 0.3 * rng.uniform(-1.0, 1.0, size=(20, 2))
    outs = flow_batch(f, 0.0, f.period, pts, eps)
    for i in range(10):
        d_in = np.linalg.norm(pts[2 * i] - pts[2 * i + 1])
        if d_in < 1e-10:
            continue
        worst = max(worst, np.linalg.norm(outs[2 * i] - outs[2 * i + 1]) / d_in)
    bound = math.exp(eps * 1.05 * lip.l_hat * f.period) + 0.05
    assert worst <= bound


def test_unforced_cycle_near_fixed_point(unforced_nonsmooth):
    # points on the slow-frame invariant circle move little over one period
    v = np.array([3 * math.pi / 4, 0.0])
    gap = np.linalg.norm(poincare_map(unforced_nonsmooth, v, 0.05) - v)
    assert gap < 1e-3


def test_blowup_detection():
    f = _field(1, 1.0, lambda t, x, eps: np.asarray(x, dtype=float) ** 2)
    with pytest.raises(NonFiniteState):
        integrate(f, 0.0, 3.0, np.array([2.0]), 1.0, IntegratorConfig())


def test_step_limit():
    f = exp_field()
    with pytest.raises(StepLimitExceeded):
        integrate(f, 0.0, 1.0, np.array([1.0]), 1.0,
                  IntegratorConfig(method="rk4-fixed", h=1e-5, max_steps=10))


def test_step_limit_counts_per_period(linear_field):
    # rk4-fixed takes 2000 steps per period at its default h; the cap is
    # max_steps per started period of the field
    x0 = np.array([0.0])
    flow(linear_field, 0.0, 3 * TWO_PI, x0, 0.1,
         IntegratorConfig(method="rk4-fixed", max_steps=2000))
    with pytest.raises(StepLimitExceeded):
        flow(linear_field, 0.0, 3 * TWO_PI, x0, 0.1,
             IntegratorConfig(method="rk4-fixed", max_steps=1999))


def test_step_limit_of_the_per_member_loop(unforced_nonsmooth):
    X = np.array([[1.0, 0.5], [2.0, -1.0]])
    with pytest.raises(StepLimitExceeded, match="max_steps=1 reached"):
        flow_batch(unforced_nonsmooth, 0.0, TWO_PI, X, 0.1, IntegratorConfig(max_steps=1),
                   shared_steps=False)


def test_period_map_in_stiff_region_hits_step_limit():
    # a trial point the undamped period-map Newton once reached from
    # (30, 30): there explicit Dormand-Prince crawls, and the default cap
    # stops the flow within about a second instead of minutes
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    t0 = time.perf_counter()
    with pytest.raises(StepLimitExceeded):
        poincare_map(f, np.array([-2.1393628, -1.38628007e5]), 0.5, cfg)
    assert time.perf_counter() - t0 < 2.0


def test_non_finite_flow_raises_within_bounded_field_calls():
    # a NaN error norm (non-finite stages) must shrink the step as a
    # rejection does, so the step underflows after about 20 rejections; a
    # growing step would be rejected until max_steps per period ran out
    base = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    calls = 0

    def counted(fn):
        def evaluate(t, x, eps):
            nonlocal calls
            calls += 1
            return fn(t, x, eps)
        return _field(2, TWO_PI, evaluate)

    def turns_nan(t, x, eps):           # finite for 40 calls, NaN from then on
        return np.where(calls > 40, np.nan, base.evaluate(t, x, eps))

    for fn, x0 in ((base.evaluate, [np.nan, 1.0]), (turns_nan, [0.5, 1.2])):
        calls = 0
        with pytest.raises(StepLimitExceeded, match="underflow"):
            flow(counted(fn), 0.0, 5 * TWO_PI, np.array(x0), 0.05)
        assert calls <= 200
    calls = 0
    with pytest.raises(ValueError, match="v0_guess must be finite"):
        orbit.find_periodic(counted(base.evaluate), np.array([np.nan, 1.0]), 0.05)
    assert calls == 0


def test_invalid_inputs(linear_field):
    with pytest.raises(ValueError):
        integrate(linear_field, 1.0, 0.0, np.array([0.0]), 0.1)
    with pytest.raises(ValueError):
        integrate(linear_field, 0.0, 1.0, np.array([0.0, 0.0]), 0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(h=-1.0, method="rk4-fixed")


def test_flow_batch_matches_scalar(unforced_nonsmooth):
    f = unforced_nonsmooth
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    X = np.array([[2.0, 0.3], [1.5, -1.0], [0.2, 2.1]])
    batch = flow_batch(f, 0.0, f.period, X, 0.05, cfg)
    for i in range(3):
        single = flow(f, 0.0, f.period, X[i], 0.05, cfg)
        assert np.max(np.abs(batch[i] - single)) < 1e-8


def _paired_check_fields():
    dsl = exprdsl.FieldSpec.from_strings(
        2, TWO_PI, ["lam*sin(t) - x1*abs(x2)", "x1 - a*x2"],
        {"a": 0.2, "lam": 1.0})
    return [vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)),
            vdp.classical_vdp_field(vdp.ForcingParams(0.1, 1.0)),
            vdp.linear_test_field(), exprdsl.field_from_spec(dsl)]


@pytest.mark.parametrize("f", _paired_check_fields(), ids=lambda f: f.name)
def test_paired_times_evaluate_row_by_row(f):
    # t of shape (m,) with x of shape (m, k) evaluates row i at (t[i], x[i])
    rng = np.random.default_rng(31)
    T = rng.uniform(0.0, 7.0, 40)
    X = rng.uniform(-3.0, 3.0, (40, f.dim))
    got = f.evaluate(T, X, 0.05)
    rows = np.array([f.evaluate(float(T[i]), X[i], 0.05) for i in range(40)])
    assert got.shape == (40, f.dim)
    assert np.max(np.abs(got - rows)) <= 1e-15 * np.max(np.abs(rows))


def test_paired_eps_evaluate_row_by_row():
    # with paired times, eps of shape (m,) is paired by row as well
    spec = exprdsl.FieldSpec.from_strings(
        2, TWO_PI, ["lam*sin(t) - eps*x1*abs(x2)", "x1 - (a + eps^2)*x2"],
        {"a": 0.2, "lam": 1.0})
    f = exprdsl.field_from_spec(spec)
    rng = np.random.default_rng(32)
    T = rng.uniform(0.0, 7.0, 40)
    X = rng.uniform(-3.0, 3.0, (40, 2))
    E = rng.uniform(0.0, 1.0, 40)
    got = f.evaluate(T, X, E)
    rows = np.array([f.evaluate(float(T[i]), X[i], float(E[i])) for i in range(40)])
    assert got.shape == (40, 2)
    assert np.max(np.abs(got - rows)) <= 1e-15 * np.max(np.abs(rows))


def _spread_forced_ensemble(m, radius, seed):
    a, lam, root = certified_forced_params()
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))
    rng = np.random.default_rng(seed)
    return f, root + radius * rng.uniform(-1.0, 1.0, (m, 2))


def test_member_steps_independent_of_batch():
    # each member's result depends on its own start alone: permuting or
    # subsetting the ensemble permutes or subsets the result bit for bit
    f, X = _spread_forced_ensemble(24, 0.5, 4)
    full = flow_batch(f, 0.0, f.period, X, 0.05, shared_steps=False)
    perm = np.random.default_rng(5).permutation(24)
    got = flow_batch(f, 0.0, f.period, X[perm], 0.05, shared_steps=False)
    assert got.tobytes() == full[perm].tobytes()
    for sub in (slice(3, 9), [17], [20, 2, 11]):
        got = flow_batch(f, 0.0, f.period, X[sub], 0.05, shared_steps=False)
        assert got.tobytes() == full[sub].tobytes()


def test_member_steps_match_scalar_flow():
    f, X = _spread_forced_ensemble(8, 0.5, 6)
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    batch = flow_batch(f, 0.0, f.period, X, 0.05, cfg, shared_steps=False)
    for i in range(len(X)):
        single = flow(f, 0.0, f.period, X[i], 0.05, cfg)
        assert np.max(np.abs(batch[i] - single)) < 1e-9


def test_member_steps_iterations_on_spread_ensemble():
    # a shared grid resolves every member's corners (1,757 loop iterations
    # per period here); on its own steps each member needs about 150
    f, X = _spread_forced_ensemble(256, 0.5, 0)
    calls = [0]

    def evaluate(t, x, eps):
        calls[0] += 1
        return f.evaluate(t, x, eps)

    g = PeriodicField(dim=2, period=f.period, evaluate=evaluate)
    out = flow_batch(g, 0.0, f.period, X, 0.05, shared_steps=False)
    assert np.all(np.isfinite(out))
    # FSAL: one evaluation up front, then six per loop iteration
    assert (calls[0] - 1) // 6 <= 250


def test_member_blowup_is_a_nan_row():
    # x' = x^2 - 1: the start at 2 blows up before t = 1, the one at 0.5
    # settles towards -1 and is unaffected
    f = _field(1, 3.0, lambda t, x, eps: np.asarray(x, dtype=float) ** 2 - 1.0)
    X = np.array([[0.5], [2.0], [-0.3]])
    out = flow_batch(f, 0.0, 3.0, X, 1.0, shared_steps=False)
    assert np.isnan(out[1, 0])
    assert out[[0, 2]].tobytes() == flow_batch(
        f, 0.0, 3.0, X[[0, 2]], 1.0, shared_steps=False).tobytes()
    with pytest.raises(NonFiniteState):
        flow_batch(f, 0.0, 3.0, X, 1.0)
    with pytest.raises(NonFiniteState):
        flow_batch(f, 0.0, 3.0, np.array([[np.nan]]), 1.0, shared_steps=False)


def test_member_steps_empty_span_returns_start(linear_field):
    X = np.array([[0.3], [-1.2]])
    for t1 in (1.0, 0.5):
        out = flow_batch(linear_field, 1.0, t1, X, 0.1, shared_steps=False)
        assert out.tobytes() == X.tobytes()


def test_trajectory_samples_monotone(linear_field):
    traj = integrate(linear_field, 0.0, TWO_PI, np.array([0.2]), 0.1)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0 and traj.times[-1] == TWO_PI


# --- reference Dormand-Prince loop ---------------------------------------------
# The tableau as rows and a generator sum over the stages, in the order the
# unrolled stepper must reproduce bit for bit.

_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_E = (35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695,
          125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
          11 / 84 - 187 / 2100, -1 / 40)


def _ref_dopri(rhs, t0, t1, x0, atol, rtol):
    t, x = t0, np.asarray(x0, dtype=float)
    h = (t1 - t0) / 50.0
    k1 = rhs(t, x)
    ts, xs = [t0], [x.copy()]
    while t < t1:
        h = min(h, t1 - t)
        ks = [k1]
        for i in range(1, 7):
            xi = x + h * sum(a * k for a, k in zip(_REF_A[i], ks))
            ks.append(rhs(t + _REF_C[i] * h, xi))
        err = h * sum(e * k for e, k in zip(_REF_E, ks))
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(xi))
        enorm = float(np.max(np.abs(err) / scale))
        if enorm <= 1.0:
            t, x, k1 = t + h, xi, ks[6]
            ts.append(t)
            xs.append(x.copy())
        fac = 0.9 * enorm ** -0.2 if enorm > 0 else 5.0
        h = h * min(5.0, max(0.2, fac))
    ts[-1] = t1
    return np.asarray(ts), np.asarray(xs)


def _bit_check_fields():
    dsl = exprdsl.FieldSpec.from_strings(2, TWO_PI, [
        "(-(abs(x1*sin(t)+x2*cos(t))-1)*(x1*cos(t)-x2*sin(t))"
        "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t))*cos(t)",
        "-((-(abs(x1*sin(t)+x2*cos(t))-1)*(x1*cos(t)-x2*sin(t))"
        "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t)))*sin(t)"], {"a": 0.1, "lam": 1.0})
    return [vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)),
            vdp.classical_vdp_field(vdp.ForcingParams(0.1, 1.0)),
            vdp.linear_test_field(), exprdsl.field_from_spec(dsl)]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_dopri_bit_identical_to_reference_loop(tol):
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    rng = np.random.default_rng(2024)
    for f in _bit_check_fields():
        for eps in (0.05, 0.3):
            rhs = odeint._make_rhs(f, eps)
            x0 = rng.uniform(-3.0, 3.0, f.dim)
            got = flow(f, 0.0, f.period, x0, eps, cfg)
            assert got.tobytes() == _ref_dopri(rhs, 0.0, f.period, x0,
                                               tol, tol)[1][-1].tobytes()
            X0 = rng.uniform(-3.0, 3.0, (5, f.dim))
            got = flow_batch(f, 0.0, f.period, X0, eps, cfg)
            assert got.tobytes() == _ref_dopri(rhs, 0.0, f.period, X0,
                                               tol, tol)[1][-1].tobytes()
            t0 = float(rng.uniform(0.0, 1.0))
            ts, xs = _ref_dopri(rhs, t0, t0 + 2.0 * f.period, x0, tol, tol)
            traj = integrate(f, t0, t0 + 2.0 * f.period, x0, eps, cfg)
            assert traj.times.tobytes() == ts.tobytes()
            assert traj.states.tobytes() == xs.tobytes()


def _counted(rhs):
    calls = [0]

    def counted_rhs(t, x):
        calls[0] += 1
        return rhs(t, x)
    return counted_rhs, calls


def _variational_rhs(f, eps):
    # the (x, vec Phi) field variational_map flows, written out again
    k = f.dim

    def evaluate(t, y, eps):
        x = y[:k]
        return np.concatenate((f.evaluate(t, x, eps),
                               f.jacobian(t, x, eps) @ y[k:].reshape(k, k)), axis=None)
    return odeint._make_rhs(PeriodicField(k + k * k, f.period, evaluate), eps)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_float_loop_bit_identical_to_reference_loop(tol):
    # one short state steps on Python floats; flow, integrate and
    # variational_map give the reference loop's bits with its field calls
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    rng = np.random.default_rng(2025)
    for f in _bit_check_fields():
        assert f.dim + f.dim ** 2 <= odeint._FLOAT_LOOP_MAX
        for eps in (0.05, 0.3):
            x0 = rng.uniform(-3.0, 3.0, f.dim)
            rhs, ref_calls = _counted(odeint._make_rhs(f, eps))
            ts, xs = _ref_dopri(rhs, 0.0, f.period, x0, tol, tol)
            calls = [0]

            def evaluate(t, x, eps):
                calls[0] += 1
                return f.evaluate(t, x, eps)
            g = PeriodicField(f.dim, f.period, evaluate, jacobian=f.jacobian)
            assert flow(g, 0.0, f.period, x0, eps, cfg).tobytes() == xs[-1].tobytes()
            assert calls[0] == ref_calls[0]
            traj = integrate(f, 0.0, f.period, x0, eps, cfg)
            assert traj.times.tobytes() == ts.tobytes()
            assert traj.states.tobytes() == xs.tobytes()
            y0 = np.concatenate([x0, np.eye(f.dim).ravel()])
            rhs, ref_calls = _counted(_variational_rhs(f, eps))
            y = _ref_dopri(rhs, 0.0, f.period, y0, tol, tol)[1][-1]
            calls[0] = 0
            P, DP = variational_map(g, x0, eps, cfg)
            assert P.tobytes() == y[:f.dim].tobytes()
            assert DP.tobytes() == y[f.dim:].tobytes()
            assert calls[0] == ref_calls[0]


def test_float_loop_cutoff(monkeypatch):
    # a state of _FLOAT_LOOP_MAX components steps on floats, one more on
    # numpy arrays; both match the reference loop
    taken = []
    for name in ("_run_dopri", "_run_dopri_floats"):
        def spy(*args, _run=getattr(odeint, name), _name=name):
            taken.append(_name)
            return _run(*args)
        monkeypatch.setattr(odeint, name, spy)

    def evaluate(t, x, eps):
        return np.cos(t + np.arange(x.shape[-1])) - x + 0.3 * np.roll(x, 1, axis=-1)
    n = odeint._FLOAT_LOOP_MAX
    for dim, loop in ((n, "_run_dopri_floats"), (n + 1, "_run_dopri")):
        f = _field(dim, TWO_PI, evaluate)
        x0 = np.linspace(-2.0, 2.0, dim)
        got = flow(f, 0.0, TWO_PI, x0, 0.2)
        assert taken.pop() == loop
        ref = _ref_dopri(odeint._make_rhs(f, 0.2), 0.0, TWO_PI, x0, 1e-10, 1e-10)
        assert got.tobytes() == ref[1][-1].tobytes()
    flow_batch(f, 0.0, TWO_PI, np.ones((3, dim)), 0.2)
    assert taken.pop() == "_run_dopri"


def _coupled_field(n):
    # n components, each pulled by its neighbour, in + - * only, so that the
    # list `floats` and the ndarray `evaluate` give the same bits
    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        return 0.3 * np.roll(x, 1, axis=-1) - x + (1.0 - 0.2 * t) * np.arange(1.0, n + 1.0)

    def floats(t, x, eps, jac=False):
        return [0.3 * x[i - 1] - x[i] + (1.0 - 0.2 * t) * (i + 1.0) for i in range(n)]

    return PeriodicField(n, TWO_PI, evaluate, floats=floats)


@pytest.mark.parametrize("n", range(1, odeint._FLOAT_LOOP_MAX + 1))
def test_every_kernel_size_matches_the_reference_loop(n):
    # the generated loop of each state length gives the reference loop's
    # bits, samples and field calls, on an ndarray field and on `floats`
    f = _coupled_field(n)
    g, twin, calls = _counting_twins(f)
    x0 = np.linspace(-2.0, 2.0, n)
    rhs, ref_calls = _counted(odeint._make_rhs(f, 0.2))
    ts, xs = _ref_dopri(rhs, 0.0, TWO_PI, x0, 1e-10, 1e-10)
    assert flow(twin, 0.0, TWO_PI, x0, 0.2).tobytes() == xs[-1].tobytes()
    assert calls == {"evaluate": ref_calls[0], "jacobian": 0, "floats": 0}
    calls.update(dict.fromkeys(calls, 0))
    traj = integrate(g, 0.0, TWO_PI, x0, 0.2)
    assert traj.times.tobytes() == ts.tobytes() and traj.states.tobytes() == xs.tobytes()
    assert calls == {"evaluate": 0, "jacobian": 0, "floats": ref_calls[0]}


def _corner_field(k):
    # k components with an |x| corner at x_{i-1} = 0.3, publishing `floats`
    # and `jacobian`
    def floats(t, x, eps, jac=False):
        s = [math.sin(t + i) for i in range(k)]
        g = [-x[i] + 0.5 * abs(x[i - 1] - 0.3) + 0.2 * s[i] * x[(i + 1) % k]
             for i in range(k)]
        if not jac:
            return g
        J = [[0.0] * k for _ in range(k)]
        for i in range(k):
            J[i][i] -= 1.0
            J[i][i - 1] += 0.5 if x[i - 1] > 0.3 else -0.5
            J[i][(i + 1) % k] += 0.2 * s[i]
        return g, J

    return PeriodicField(
        k, TWO_PI, lambda t, x, eps: np.array(floats(t, list(x), eps)),
        jacobian=lambda t, x, eps: np.array(floats(t, list(x), eps, True)[1]),
        floats=floats)


@pytest.mark.parametrize("k", [3, 4])
def test_generated_variational_rhs_for_larger_states(k):
    # k + k^2 = 12 and 20 components, the last at the cutoff: the generated
    # J*Phi gives the bits and `floats` calls of the sums written out here
    f = _corner_field(k)
    assert k + k * k <= odeint._FLOAT_LOOP_MAX
    g, _, calls = _counting_twins(f)
    x0, eps = np.linspace(0.0, 0.6, k), 0.3
    rhs, ref_calls = _counted(_float_variational_rhs(f, eps))
    y0 = np.concatenate([x0, np.eye(k).ravel()])
    ts, ys = _ref_dopri(rhs, 0.0, TWO_PI, y0, 1e-10, 1e-10)
    P, DP = variational_map(g, x0, eps)
    assert np.concatenate([P, DP.ravel()]).tobytes() == ys[-1].tobytes()
    assert calls == {"evaluate": 0, "jacobian": 0, "floats": ref_calls[0]}
    # a corner is crossed, so the |x| branch switches along the flow
    assert any(len({bool(y[i] > 0.3) for y in ys[:, :k]}) == 2 for i in range(k))


def test_kernel_source_shows_in_tracebacks():
    # a field that raises mid-flow: the traceback names the kernel's
    # pseudo-file and shows the stage line that called the field
    calls = [0]

    def floats(t, x, eps, jac=False):
        calls[0] += 1
        if calls[0] == 30:
            raise ZeroDivisionError("field failed")
        return [-x[1], x[0]]

    f = PeriodicField(2, TWO_PI, lambda t, x, eps: np.array([-x[1], x[0]]), floats=floats)
    with pytest.raises(ZeroDivisionError) as ei:
        flow(f, 0.0, TWO_PI, [1.0, 0.0], 0.5)
    frames = [fr for fr in traceback.extract_tb(ei.tb) if fr.filename == "<slowflow dopri n=2>"]
    assert len(frames) == 1 and re.fullmatch(r"k\d = f\(t \+ .*", frames[0].line)
    assert "k2 = f(t + _C2 * h, [" in inspect.getsource(odeint._dopri_kernel(2))
    assert "[\n            e * g[0],\n" in inspect.getsource(odeint._float_rhs(2, False))


def _float_variational_rhs(f, eps):
    # the (x, vec Phi) field variational_map flows for a field with
    # `floats`, written out again: J*Phi summed left to right
    k = f.dim

    def rhs(t, y):
        g, J = f.floats(t, y[:k].tolist(), eps, True)
        P = y[k:].tolist()
        for row in J:
            for j in range(k):
                s = row[0] * P[j]
                for i in range(1, k):
                    s += row[i] * P[i * k + j]
                g.append(s)
        return eps * np.array(g)
    return rhs


def _counting_twins(f):
    # f with evaluate, jacobian and floats calls counted, and its twin
    # without floats (same counters)
    calls = dict.fromkeys(("evaluate", "jacobian", "floats"), 0)

    def counted(name):
        fn = getattr(f, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    g = dataclasses.replace(f, **{name: counted(name) for name in calls})
    return g, dataclasses.replace(g, floats=None), calls


@pytest.mark.parametrize("f", _bit_check_fields()[:3], ids=lambda f: f.name)
def test_builtin_flows_take_the_floats_path(f):
    # plain and variational flows of a built-in call only `floats`, as often
    # as the reference loop calls its field; plain flows keep the bits and
    # field calls of the ndarray path
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    x0, eps = np.array([0.5, 1.2][:f.dim]), 0.05
    g, twin, calls = _counting_twins(f)
    runs = {
        "flow": lambda h: flow(h, 0.0, f.period, x0, eps, cfg),
        "integrate": lambda h: integrate(h, 0.3, 0.3 + 2.0 * f.period, x0, eps, cfg).states,
        "poincare_map": lambda h: poincare_map(h, x0, eps, cfg),
    }
    for name, run in runs.items():
        calls.update(dict.fromkeys(calls, 0))
        got = run(g)
        fast = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        assert got.tobytes() == run(twin).tobytes(), name
        assert fast == {"evaluate": 0, "jacobian": 0, "floats": calls["evaluate"]}, name
    rhs, ref_calls = _counted(odeint._make_rhs(f, eps))
    ref = _ref_dopri(rhs, 0.0, f.period, x0, 1e-12, 1e-12)[1][-1]
    calls.update(dict.fromkeys(calls, 0))
    assert flow(g, 0.0, f.period, x0, eps, cfg).tobytes() == ref.tobytes()
    assert calls["floats"] == ref_calls[0]
    # the variational flow is the reference loop on the float (x, vec Phi) field
    rhs, ref_calls = _counted(_float_variational_rhs(f, eps))
    y0 = np.concatenate([x0, np.eye(f.dim).ravel()])
    y = _ref_dopri(rhs, 0.0, f.period, y0, 1e-12, 1e-12)[1][-1]
    calls.update(dict.fromkeys(calls, 0))
    P, DP = variational_map(g, x0, eps, cfg)
    assert np.concatenate([P, DP.ravel()]).tobytes() == y.tobytes()
    assert calls == {"evaluate": 0, "jacobian": 0, "floats": ref_calls[0]}
    # and stays within rounding of the ndarray path's numpy J @ Phi
    P0, DP0 = variational_map(twin, x0, eps, cfg)
    assert np.max(np.abs(P - P0)) <= 1e-13
    assert np.max(np.abs(DP - DP0)) <= 1e-9


def test_float_path_coerces_numpy_end_times():
    # find_periodic flows to T + tau with tau an np.float64; on the float path
    # numpy step times made the nonsmooth slope (u > 0) - (u < 0) subtract
    # numpy bools
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    x0, t1 = np.array([0.5, 1.2]), TWO_PI + 0.01
    want = flow(f, 0.0, t1, x0, 0.05)
    assert flow(f, np.float64(0.0), np.float64(t1), x0, 0.05).tobytes() == want.tobytes()
    P, DP = variational_map(f, x0, 0.05, t1=np.float64(t1))
    Q, DQ = variational_map(f, x0, 0.05, t1=t1)
    assert P.tobytes() == Q.tobytes() and DP.tobytes() == DQ.tobytes()


def _failing_flows():
    # (field, x0, t1, max_steps): each flow raises, for its own reason
    base = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    calls = [0]

    def turns(value):       # the second component turns bad after 40 calls
        def evaluate(t, x, eps):
            calls[0] += 1
            g = base.evaluate(t, x, eps)
            return g if calls[0] <= 40 else np.array([g[0], value])
        return _field(2, TWO_PI, evaluate)

    def nan_region(t, x, eps):      # reached step by step, until h underflows
        return np.array([1.0, 0.0]) if x[0] <= 1.5 else np.array([1.0, np.nan])

    return calls, [
        (base, [np.nan, 1.0], 5 * TWO_PI, 10_000),           # NaN start
        (turns(np.nan), [0.5, 1.2], 5 * TWO_PI, 10_000),     # NaN partway
        (turns(np.inf), [0.5, 1.2], 5 * TWO_PI, 10_000),     # inf partway
        (_field(1, 3.0, lambda t, x, eps: x * x), [2.0], 3.0, 10_000),  # blow-up
        (_field(2, 1.0, nan_region), [1.0, 0.0], 3.0, 10_000),          # underflow
        (base, [0.5, 1.2], TWO_PI, 25),                      # step limit
    ]


def test_float_loop_fails_as_the_numpy_loop():
    # same exception, same message, after the same field calls; inf - inf
    # warns in numpy arithmetic only
    calls, cases = _failing_flows()
    for f, x0, t1, max_steps in cases:
        seen = []
        for run in (odeint._run_dopri, odeint._run_dopri_floats):
            calls[0] = 0
            rhs, n = _counted(odeint._make_rhs(f, 0.5))
            with pytest.raises((NonFiniteState, StepLimitExceeded)) as ei, \
                    np.errstate(all="ignore"):
                run(rhs, 0.0, t1, np.array(x0), 1e-10, 1e-10, max_steps, False)
            seen.append((type(ei.value), str(ei.value), n[0]))
        assert seen[0] == seen[1]
        assert seen[0][2] <= 5000


def test_inf_field_fails_cleanly_without_errstate():
    # no errstate here: under the suite's -W error, inf - inf in the numpy
    # stage sums or in the field must not escape as a RuntimeWarning
    base = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    calls = [0]

    def evaluate(t, x, eps):        # the second component is inf from call 5
        calls[0] += 1
        g = np.array(base.evaluate(t, x, eps), dtype=float)
        g[..., 1] = np.inf if calls[0] > 4 else g[..., 1]
        return g

    f = _field(2, TWO_PI, evaluate)
    X = np.array([[0.5, 1.2], [1.0, 0.0]])
    for run in (lambda: flow(f, 0.0, 5 * TWO_PI, X[0], 0.5),
                lambda: flow_batch(f, 0.0, 5 * TWO_PI, X[:1], 0.5)):
        calls[0] = 0
        with pytest.raises(StepLimitExceeded, match="underflow"):
            run()
        assert calls[0] == 109
    out = flow_batch(f, 0.0, 5 * TWO_PI, X, 0.5, shared_steps=False)
    assert np.all(np.isnan(out))


@pytest.mark.parametrize("cfg", [IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12),
                                 rk4(TWO_PI / 2000)])
def test_variational_map_linear_both_steppers(cfg):
    # x' = eps(-x + cos t): DP = exp(-2 pi eps) exactly, P from the same flow
    f = vdp.linear_test_field()
    for eps in (0.1, 0.01):
        v = np.array([0.7])
        P, DP = variational_map(f, v, eps, cfg)
        assert abs(P[0] - poincare_map(f, v, eps, cfg)[0]) <= 1e-12
        assert abs(DP[0, 0] - math.exp(-TWO_PI * eps)) <= 1e-12


def test_variational_map_identity_at_eps_zero_and_fd_default():
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    v = np.array([0.5, 1.2])
    P, DP = variational_map(f, v, 0.0)
    assert np.array_equal(P, v) and np.array_equal(DP, np.eye(2))
    # exp_field publishes no jacobian: dg/dx is a central difference, and
    # x' = eps x over period 1 has P(v) = exp(eps) v and DP = exp(eps)
    P, DP = variational_map(exp_field(), np.array([1.0]), 0.1)
    assert abs(P[0] - math.exp(0.1)) <= 1e-9
    assert abs(DP[0, 0] - math.exp(0.1)) <= 1e-9
