import math

import numpy as np
import pytest

from conftest import certified_forced_params
from slowflow import averaging, vdp
from slowflow.averaging import (
    averaged_function, averaged_jacobian, averaged_report, find_root,
    scan_roots,
)
from slowflow.errors import DomainError
from slowflow.exprdsl import FieldSpec, field_from_spec
from slowflow.odeint import PeriodicField

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


def test_jacobian_of_linear_map():
    A = np.array([[0.3, -1.2], [0.8, 0.1]])

    def fn(t, x, eps):
        y = np.asarray(x, dtype=float) @ A.T
        return _stack([y[..., 0], y[..., 1]], t, x)

    f = _field(2, TWO_PI, fn)
    # the averaged field is exactly linear, so a large step has zero
    # truncation error and divides quadrature roundoff down to ~1e-11
    J = averaged_jacobian(f, np.array([0.4, 0.6]), fd_step=1e-3)
    assert np.max(np.abs(J - TWO_PI * A)) < 1e-9


def test_jacobian_step_robustness():
    f = vdp.classical_vdp_field(vdp.ForcingParams(0.2, 0.4))
    v = np.array([1.2, -0.4])
    J1 = averaged_jacobian(f, v, fd_step=1e-5)
    J2 = averaged_jacobian(f, v, fd_step=5e-6)
    assert np.max(np.abs(J1 - J2)) < 1e-6


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


def test_jacobian_matches_closed_form_nonsmooth():
    a, lam = 0.37, 0.8
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))
    v = np.array([1.3, -0.7])
    J = averaged_jacobian(f, v, n_nodes=16384, fd_step=1e-5 * (1 + np.hypot(*v)))
    want = vdp.averaged_jacobian_closed_form("nonsmooth", v[0], v[1], a)
    assert np.max(np.abs(J - want)) < 1e-8


def test_jacobian_closed_form_nonsmooth_at_origin():
    # A*(M, N) is O(|v|^2), so the averaged field is differentiable at 0;
    # unforced, so the FD quotient is not swamped by rounding of lam*pi
    a = 0.37
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, 0.0))
    J = averaged_jacobian(f, np.zeros(2), n_nodes=16384, fd_step=1e-9)
    want = vdp.averaged_jacobian_closed_form("nonsmooth", 0.0, 0.0, a)
    assert np.max(np.abs(J - want)) < 1e-8


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
    # the square root is undefined; the scan must still return the root
    src = "sqrt(x1 + 1) - 1.2 + 0.3*cos(2*x1)"
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [src]))
    with pytest.raises(DomainError):
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
    rep = averaged_report(unforced_nonsmooth, np.array([1.0, 0.0]),
                          with_jacobian=True)
    assert rep.value.shape == (2,)
    assert rep.jacobian.shape == (2, 2)
    assert rep.fd_step is not None
    rep2 = averaged_report(unforced_nonsmooth, np.array([1.0, 0.0]))
    assert rep2.jacobian is None
