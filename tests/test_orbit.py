import dataclasses
import math

import numpy as np
import pytest

from conftest import NONSMOOTH_DSL, certified_forced_params
from slowflow import certify, smalllin, vdp
from slowflow.errors import SingularJacobian
from slowflow.exprdsl import FieldSpec, field_from_spec
from slowflow.odeint import (IntegratorConfig, PeriodicField, flow, integrate,
                             poincare_map, variational_map)
from slowflow.orbit import (
    _ORBIT_CFG, _commutes_with_rotation, _rotation, basin_probe, eps_sweep,
    find_periodic, measure_contraction,
)

TWO_PI = 2.0 * math.pi
A0 = 3.0 * math.pi / 4.0


def _forced_field(amplitude=3.2):
    a, lam, root = certified_forced_params(amplitude)
    return vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam)), root


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_linear_fixed_point_and_multiplier(linear_field, eps):
    r = find_periodic(linear_field, np.array([0.0]), eps, v0=np.array([0.0]))
    assert r.converged and r.stable
    assert abs(r.v_star[0] - eps * eps / (1 + eps * eps)) < 1e-8
    assert abs(r.multipliers[0].real - math.exp(-TWO_PI * eps)) < 1e-8
    assert abs(r.multipliers[0].imag) < 1e-10


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_linear_multiplier_from_variational_flow(linear_field, eps):
    r = find_periodic(linear_field, np.array([0.0]), eps)
    assert abs(r.multipliers[0] - math.exp(-TWO_PI * eps)) <= 1e-12


def test_eps_must_be_positive(linear_field):
    with pytest.raises(ValueError):
        find_periodic(linear_field, np.array([0.0]), 0.0)


def test_unforced_orbitally_stable(unforced_nonsmooth):
    r = find_periodic(unforced_nonsmooth, np.array([2.0, 0.8]), 0.05,
                      v0=np.array([A0, 0.0]))
    assert r.orbitally_stable
    assert not r.stable and r.converged and r.residual <= 1e-10
    mags = np.sort(np.abs(r.multipliers))
    assert abs(mags[-1] - 1.0) <= 1e-9           # phase direction
    assert mags[0] < 1.0 - 1e-4                  # contracting direction


def _unforced(model):
    builder = vdp.nonsmooth_vdp_field if model == "nonsmooth" else vdp.classical_vdp_field
    return builder(vdp.ForcingParams(0.0, 0.0))


@pytest.mark.parametrize("model,eps,start", [
    ("nonsmooth", 0.03, (A0, 0.0)), ("nonsmooth", 0.1, (2.0, 0.8)), ("nonsmooth", 0.3, (2.0, 0.8)),
    ("classical", 0.1, (2.0, 0.8)), ("classical", 0.3, (2.0, 0.8))])
def test_unforced_cycle_converges(model, eps, start):
    # the 2*pi map has no fixed point here; the relative-orbit equations in
    # (v, tau) do, and the phase multiplier of R(-tau)Phi is 1
    f, calls = _counted(_unforced(model))
    r = find_periodic(f, np.array(start), eps)
    assert r.converged and r.residual <= 1e-10
    assert r.orbitally_stable and not r.stable
    phase = np.sort(np.abs(r.multipliers - 1.0))
    assert phase[0] <= 1e-9 and phase[1] > 1e-3
    # the cycle, rechecked on a finer flow: x(T + tau; v*) = R(tau)v*
    x = flow(f, 0.0, r.period, r.v_star, eps, IntegratorConfig(abs_tol=1e-14, rel_tol=1e-14))
    assert np.linalg.norm(x - _rotation(r.period - TWO_PI) @ r.v_star) <= 1e-10
    if eps == 0.03:
        assert calls[0] < 29_660        # the stalled solve took 29,660 calls


@pytest.mark.parametrize("eps", [0.01, 0.03, 0.05, 0.1, 0.2])
def test_classical_period_matches_lindstedt_series(eps):
    # u'' - eps(1 - u^2)u' + u = 0 has period 2*pi(1 + eps^2/16 - 5eps^4/3072 + O(eps^6))
    r = find_periodic(_unforced("classical"), np.array([2.0, 0.8]), eps)
    tau = r.period - TWO_PI
    series = TWO_PI * (eps ** 2 / 16.0 - 5.0 * eps ** 4 / 3072.0)
    assert abs(tau - series) <= 0.01 * eps ** 6


def _upward_zero(f, t0, y0, cfg):
    """The zero of u = y[0] after the sample (t0, y0), by Newton on t with
    u' = y[1], each iterate flowed from the sample."""
    t, y = t0, y0
    for _ in range(20):
        dt = -y[0] / y[1]
        t += dt
        y = flow(f, t0, t, y0, 1.0, cfg)
        if abs(dt) <= 1e-13:
            return t
    raise AssertionError("crossing not refined")


@pytest.mark.parametrize("eps", [0.03, 0.1, 0.3])
def test_nonsmooth_period_matches_direct_simulation(eps):
    # u'' + eps(|u| - 1)u' + u = 0 from (u, u') = (N*, M*) lies on the cycle,
    # so two upward zero crossings of u lie the cycle's period T + tau apart
    r = find_periodic(_unforced("nonsmooth"), np.array([2.0, 0.8]), eps)
    f = PeriodicField(2, TWO_PI, lambda t, y, e: np.array(
        [y[1], -y[0] - eps * (abs(y[0]) - 1.0) * y[1]]))
    cfg = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
    path = integrate(f, 0.0, 2.2 * r.period, r.v_star[::-1], 1.0, cfg)
    u = path.states[:, 0]
    up = np.flatnonzero((u[:-1] < 0.0) & (u[1:] >= 0.0))
    t1, t2 = (_upward_zero(f, path.times[i], path.states[i], cfg) for i in up[:2])
    assert abs((t2 - t1) - r.period) <= 1e-8


@pytest.mark.parametrize("start", [(1.0, 0.5), (0.0, 0.0), (1e-3, 0.0)])
def test_relative_equilibrium_at_the_origin(start):
    # the damped unforced oscillator commutes with the rotation, but its
    # orbit is the origin: no phase multiplier, a stable fixed point
    f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, [
        "-(x1*cos(t)-x2*sin(t))*cos(t)", "(x1*cos(t)-x2*sin(t))*sin(t)"]))
    assert _commutes_with_rotation(f, np.array(start), 0.1)
    r = find_periodic(f, np.array(start), 0.1)
    assert np.linalg.norm(r.v_star) <= 1e-12
    assert r.stable and not r.orbitally_stable
    assert np.all(np.abs(r.multipliers) < 0.8)


def test_dsl_twin_reaches_the_builtin_cycle(unforced_nonsmooth):
    spec = FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL, {"a": 0.0, "lam": 0.0})
    twin = field_from_spec(spec)
    start = np.array([2.0, 0.8])
    r = find_periodic(unforced_nonsmooth, start, 0.1)
    rt = find_periodic(twin, start, 0.1)
    assert rt.orbitally_stable
    assert np.max(np.abs(rt.v_star - r.v_star)) <= 1e-9
    assert abs(rt.period - r.period) <= 1e-9


def test_rotation_check_tells_forced_from_unforced(unforced_nonsmooth):
    v = np.array([2.0, 0.8])
    forced = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    assert _commutes_with_rotation(unforced_nonsmooth, v, 0.1)
    assert _commutes_with_rotation(_unforced("classical"), v, 0.1)
    assert not _commutes_with_rotation(forced, v, 0.1)
    assert not _commutes_with_rotation(forced, _closed_form_root(0.1, 1.0), 0.05)


def test_unforced_amplitude_approaches_prediction(unforced_nonsmooth):
    devs = []
    guess = np.array([2.0, 0.8])
    for eps in (0.05, 0.02):
        r = find_periodic(unforced_nonsmooth, guess, eps)
        devs.append(abs(np.linalg.norm(r.v_star) - A0))
        guess = r.v_star
        assert devs[-1] < 5.0 * eps
    assert devs[1] < devs[0]


def _counted(f):
    """f with its evaluate and floats calls counted in the returned one-item list."""
    calls = [0]
    ev, fl = f.evaluate, f.floats

    def evaluate(t, x, eps):
        calls[0] += 1
        return ev(t, x, eps)

    def floats(*args):
        calls[0] += 1
        return fl(*args)

    return dataclasses.replace(f, evaluate=evaluate, floats=fl and floats), calls


def _closed_form_root(a, lam, model="nonsmooth"):
    # amplitude from the resonance equation, then (M, N) from the 2x2 system
    # [[k, -a pi], [a pi, k]] (M, N) = (0, lam pi), k = pi - 4A/3 or pi(1 - A^2/4)
    (A,) = vdp.amplitude_roots(model, a, lam)
    k = math.pi - 4.0 * A / 3.0 if model == "nonsmooth" else math.pi * (1.0 - A * A / 4.0)
    return np.linalg.solve(np.array([[k, -a * math.pi], [a * math.pi, k]]),
                           np.array([0.0, lam * math.pi]))


def test_forced_solve_evaluation_count():
    root = _closed_form_root(0.1, 1.0)
    f, calls = _counted(vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)))
    r = find_periodic(f, root, 0.05, v0=root)
    assert r.converged and r.stable
    assert r.iterations <= 3
    assert calls[0] <= 20_000


@pytest.mark.parametrize("start,index", [
    ("solve", 125), ("solve", 151), ("solve", 186), ("recover", 104), ("recover", 173)])
def test_forced_solve_does_not_stall_at_the_noise_floor(start, index):
    # with FD Jacobians these grid eps stalled at residuals 1.2e-10 to 3e-10,
    # just above the target; which ones depends on the last bits of the start
    a, lam = 0.1, 1.0
    root = (_closed_form_root(a, lam) if start == "solve" else
            vdp.recover_root("nonsmooth", a, lam, vdp.amplitude_roots("nonsmooth", a, lam)[0]).v0)
    eps = float(np.linspace(0.01, 0.1, 200)[index])
    r = find_periodic(vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam)), root, eps, v0=root)
    assert r.converged and r.residual <= 1e-10 and r.iterations <= 3


@pytest.mark.parametrize("model", ["nonsmooth", "classical"])
def test_forced_solves_reach_the_target_on_the_eps_grid(model):
    # every 4th eps of 0.01 + 0.0025 n: the float J*Phi sums moved Phi in its
    # last bits, and each solve from the closed-form root still converges
    a, lam = 0.1, 1.0
    builder = vdp.nonsmooth_vdp_field if model == "nonsmooth" else vdp.classical_vdp_field
    f, root = builder(vdp.ForcingParams(a, lam)), _closed_form_root(a, lam, model)
    for eps in np.round(0.01 + 0.0025 * np.arange(0, 37, 4), 4):
        r = find_periodic(f, root, float(eps), v0=root)
        assert r.converged and r.residual <= 1e-10, eps


@pytest.mark.parametrize("builder", [vdp.nonsmooth_vdp_field, vdp.classical_vdp_field])
def test_variational_jacobian_matches_fd(builder):
    f = builder(vdp.ForcingParams(0.1, 1.0))
    v, eps = np.array([0.5, 1.2]), 0.05
    _, DP = variational_map(f, v, eps, _ORBIT_CFG)
    tight = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
    J = np.empty((2, 2))
    for j, e in enumerate(1e-4 * np.eye(2)):
        J[:, j] = (poincare_map(f, v + e, eps, tight)
                   - poincare_map(f, v - e, eps, tight)) / 2e-4
    assert np.max(np.abs(DP - J)) <= 1e-6


@pytest.mark.parametrize("builder", [vdp.nonsmooth_vdp_field, vdp.classical_vdp_field])
def test_multipliers_match_tight_variational_reference(builder):
    f = builder(vdp.ForcingParams(0.1, 1.0))
    root = _closed_form_root(0.1, 1.0)
    for eps in (0.02, 0.1):
        r = find_periodic(f, root, eps, v0=root)
        _, ref = variational_map(f, r.v_star, eps, IntegratorConfig(abs_tol=1e-14, rel_tol=1e-14))
        want = np.sort_complex(np.linalg.eigvals(ref))
        assert np.max(np.abs(np.sort_complex(r.multipliers) - want)) <= 1e-9


@pytest.mark.parametrize("builder", [vdp.nonsmooth_vdp_field, vdp.classical_vdp_field])
def test_fd_field_multipliers_match_tight_variational_reference(builder):
    # without `jacobian`, Phi flows with a central-difference dg/dx and must
    # still match the reference flowed with the exact one
    f = builder(vdp.ForcingParams(0.1, 1.0))
    root = _closed_form_root(0.1, 1.0)
    for eps in (0.02, 0.1):
        r = find_periodic(dataclasses.replace(f, jacobian=None), root, eps, v0=root)
        assert r.converged
        _, ref = variational_map(f, r.v_star, eps, IntegratorConfig(abs_tol=1e-14, rel_tol=1e-14))
        want = np.sort_complex(np.linalg.eigvals(ref))
        assert np.max(np.abs(np.sort_complex(r.multipliers) - want)) <= 1e-8


@pytest.mark.parametrize("case", ["forced", "forced far start", "unforced stall"])
def test_multipliers_are_those_of_phi_at_the_returned_point(case):
    # the Phi of a rejected trial must not be reported; an unforced cycle
    # reports R(-tau)Phi over its period
    if case == "forced":
        root = _closed_form_root(0.1, 1.0)
        f, v0, eps = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)), root, 0.07
    elif case == "forced far start":     # its line search backtracks
        f, v0 = vdp.classical_vdp_field(vdp.ForcingParams(0.1, 1.0)), np.array([1.0, -1.5])
        eps = 0.1
    else:
        f, v0, eps = vdp.nonsmooth_vdp_field(), np.array([A0, 0.0]), 0.03
    r = find_periodic(f, v0, eps)
    _, Phi = variational_map(f, r.v_star, eps, _ORBIT_CFG, r.period)
    if case != "forced":
        Phi = _rotation(TWO_PI - r.period) @ Phi
    assert np.array_equal(r.multipliers, smalllin.eigenvalues(Phi).values)


def test_singular_period_map_jacobian_raises():
    # x' = eps: P(v) = v + 2*pi*eps, and DP - I = 0 is singular everywhere
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["1 + 0*x1"]))
    with pytest.raises(SingularJacobian, match=r"Newton Jacobian singular at \[0\.\]"):
        find_periodic(f, np.array([0.0]), 0.1)


def test_jacobian_field_runs_no_fd_batch():
    # every field call of the solve is for one state: Newton steps and
    # multipliers come from the variational flow, not from 2k-member batches
    root = _closed_form_root(0.1, 1.0)
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    shapes = set()
    ev = f.evaluate

    def evaluate(t, x, eps):
        shapes.add(np.shape(x))
        return ev(t, x, eps)

    r = find_periodic(dataclasses.replace(f, evaluate=evaluate), root, 0.05, v0=root)
    assert r.converged and shapes == {(2,)}
    # without `jacobian` the same solve takes the FD path to the same orbit
    fd = find_periodic(dataclasses.replace(f, jacobian=None), root, 0.05, v0=root)
    assert fd.converged and np.max(np.abs(fd.v_star - r.v_star)) <= 1e-9
    assert np.max(np.abs(np.sort_complex(fd.multipliers)
                         - np.sort_complex(r.multipliers))) <= 1e-6


def test_forced_point_stable_multipliers():
    f, root = _forced_field()
    r = find_periodic(f, root, 0.05, v0=root)
    assert r.converged and r.stable
    assert np.all(np.abs(r.multipliers) < 1.0 - 1e-9)
    assert r.residual <= 1e-10


def test_residual_survives_finer_integration():
    f, root = _forced_field()
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    r = find_periodic(f, root, 0.02, cfg, v0=root)
    # the local error goes as h^5, so tolerances / 32 halve the steps
    fine = IntegratorConfig(abs_tol=1e-12 / 32, rel_tol=1e-12 / 32)
    re_res = np.linalg.norm(poincare_map(f, r.v_star, 0.02, fine) - r.v_star)
    assert re_res <= 1e-8


def test_multiplier_product_bound():
    f, root = _forced_field()
    eps = 0.05
    r = find_periodic(f, root, eps, v0=root)
    lip = certify.estimate_lipschitz(f, root, 0.3, n_samples=3000, seed=1)
    prod = float(np.prod(np.abs(r.multipliers)))
    assert 0.0 < prod <= math.exp(eps * f.dim * 1.1 * lip.l_hat * f.period)


def test_eps_sweep_linear_second_order(linear_field):
    sw = eps_sweep(linear_field, np.array([0.0]), [0.1, 0.05, 0.02, 0.01])
    assert all(e.result is not None for e in sw.entries)
    # v* - v0 = eps^2/(1+eps^2): approach order 2
    assert abs(sw.order - 2.0) < 0.1
    dists = [e.result.dist_to_v0 for e in sw.entries]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_eps_sweep_forced_first_order():
    f, root = _forced_field()
    sw = eps_sweep(f, root, [0.05, 0.02, 0.01])
    assert sw.order is not None and sw.order >= 1.0
    for e in sw.entries:
        assert e.result is not None and e.result.stable


def test_eps_sweep_needs_three_values(linear_field):
    with pytest.raises(ValueError):
        eps_sweep(linear_field, np.array([0.0]), [0.1, 0.05])
    with pytest.raises(ValueError):
        eps_sweep(linear_field, np.array([0.0]), [0.1, 0.2, 0.05])


def test_measure_contraction_linear(linear_field):
    eps = 0.1
    r = find_periodic(linear_field, np.array([0.0]), eps)
    got = measure_contraction(linear_field, r.v_star, eps, 0.5, n_pairs=40)
    assert abs(got - math.exp(-TWO_PI * eps)) < 1e-3


def test_measure_contraction_identity_at_zero(linear_field):
    got = measure_contraction(linear_field, np.array([0.0]), 0.0, 0.5, n_pairs=20)
    assert abs(got - 1.0) < 1e-12


def test_measure_contraction_in_lyapunov_norm():
    f, root = _forced_field()
    eps = 0.02
    cert = certify.build_contraction_certificate(certify.certify_hurwitz(f, root))
    r = find_periodic(f, root, eps, v0=root)
    got = measure_contraction(f, r.v_star, eps, 0.05, n_pairs=60,
                              norm_matrix=cert.lyapunov_P)
    assert got <= 1.0 - eps * cert.q_tilde / 2.0


def test_measure_contraction_rejects_zero_radius(linear_field):
    # a positive radius too small to separate any pair fails the same way
    for radius in (0.0, 1e-14):
        with pytest.raises(ValueError, match="radius"):
            measure_contraction(linear_field, np.array([0.0]), 0.1, radius)


def test_measure_contraction_rejects_zero_pairs(linear_field):
    with pytest.raises(ValueError, match="n_pairs"):
        measure_contraction(linear_field, np.array([0.0]), 0.1, 0.5, n_pairs=0)


def test_basin_probe_rejects_zero_starts(linear_field):
    with pytest.raises(ValueError, match="n_starts"):
        basin_probe(linear_field, np.array([0.0]), 0.1, radius=0.5, n_starts=0)


def test_basin_probe_linear_global(linear_field):
    r = find_periodic(linear_field, np.array([0.0]), 0.1)
    frac = basin_probe(linear_field, r.v_star, 0.1, radius=3.0,
                       n_starts=30, n_periods=150)
    assert frac == 1.0


def test_basin_probe_forced_attracts():
    f, root = _forced_field()
    r = find_periodic(f, root, 0.05, v0=root)
    frac = basin_probe(f, r.v_star, 0.05, radius=0.2, n_starts=100,
                       n_periods=500, seed=3)
    assert frac == 1.0


def test_basin_probe_orbital_circle():
    # phase-neutral cycle with an exactly circular attractor: a purely radial
    # field whose unit circle is a curve of fixed points of the period map
    from slowflow.odeint import PeriodicField

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        return np.stack([(1.0 - r2) * x[..., 0], (1.0 - r2) * x[..., 1]],
                        axis=-1)

    f = PeriodicField(dim=2, period=TWO_PI, evaluate=evaluate)
    r = find_periodic(f, np.array([1.2, 0.1]), 0.05)
    assert r.orbitally_stable
    assert abs(np.linalg.norm(r.v_star) - 1.0) < 1e-9
    frac = basin_probe(f, r.v_star, 0.05, radius=0.3, n_starts=20,
                       n_periods=200, orbital=True, seed=9)
    assert frac == 1.0
    # against the fixed point itself most starts settle elsewhere on the circle
    frac_pt = basin_probe(f, r.v_star, 0.05, radius=0.3, n_starts=20,
                          n_periods=50, orbital=False, seed=9)
    assert frac_pt < 1.0


def test_basin_probe_counts_escaping_starts():
    # x' = eps(x^2 - 1): starts below 1 settle on -1, starts above 1 blow
    # up in finite time; each escape counts as not attracted, and the rest
    # of the probe carries on
    from slowflow.odeint import PeriodicField
    from slowflow.orbit import _ball_batch

    f = PeriodicField(dim=1, period=TWO_PI,
                      evaluate=lambda t, x, eps: np.asarray(x) ** 2 - 1.0)
    v_star = np.array([-1.0])
    starts = v_star + 2.5 * _ball_batch(np.random.default_rng(0), 20, 1)
    below = float(np.mean(starts[:, 0] < 1.0))
    assert 0.0 < below < 1.0
    assert basin_probe(f, v_star, 0.1, radius=2.5, n_starts=20) == below


def test_basin_probe_rk4_fixed_counts_escaping_starts():
    # the fixed-step loop raises for the whole batch when one member blows
    # up; each start is then flowed on its own and only the blow-ups drop
    from slowflow.orbit import _ball_batch

    f = PeriodicField(dim=1, period=TWO_PI,
                      evaluate=lambda t, x, eps: np.asarray(x) ** 2 - 1.0)
    v_star = np.array([-1.0])
    starts = v_star + 2.5 * _ball_batch(np.random.default_rng(0), 20, 1)
    below = float(np.mean(starts[:, 0] < 1.0))
    frac = basin_probe(f, v_star, 0.1, radius=2.5, n_starts=20,
                       cfg=IntegratorConfig(method="rk4-fixed"))
    assert frac == below == 0.85


def test_basin_probe_dsl_domain_error_counts_as_escape():
    # x' = eps(sqrt(x) - 1) repels from 1; starts below 1 leave the domain
    # of sqrt, which raises DomainError for the whole batch evaluation
    from slowflow.exprdsl import FieldSpec, field_from_spec
    from slowflow.orbit import _ball_batch

    def dsl(src):
        return field_from_spec(FieldSpec.from_strings(1, TWO_PI, [src]))

    v_star = np.array([1.0])
    assert basin_probe(dsl("sqrt(x1) - 1"), v_star, 0.1, radius=0.9,
                       n_starts=20) == 0.0
    # sqrt(x) - x attracts every positive start to 1; negative starts raise
    starts = v_star + 1.5 * _ball_batch(np.random.default_rng(0), 20, 1)
    positive = float(np.mean(starts[:, 0] > 0.0))
    assert 0.0 < positive < 1.0
    assert basin_probe(dsl("sqrt(x1) - x1"), v_star, 0.1, radius=1.5,
                       n_starts=20) == positive


def test_basin_probe_unstable_middle_branch():
    # classical oscillator, middle amplitude branch at lam = 0.3 is a repeller
    lam = 0.3
    roots = vdp.amplitude_roots("classical", 0.0, lam)
    assert len(roots) == 3
    middle = roots[1]
    rr = vdp.recover_root("classical", 0.0, lam, middle)
    f = vdp.classical_vdp_field(vdp.ForcingParams(0.0, lam))
    r = find_periodic(f, rr.v0, 0.05, v0=rr.v0)
    assert not r.stable
    assert np.max(np.abs(r.multipliers)) > 1.0
    frac = basin_probe(f, r.v_star, 0.05, radius=0.2, n_starts=20,
                       n_periods=120, seed=5)
    assert frac <= 0.05


def test_uniqueness_of_fixed_point():
    f, root = _forced_field()
    eps = 0.05
    rng = np.random.default_rng(17)
    points = []
    for _ in range(6):
        guess = root + 0.3 * rng.uniform(-1.0, 1.0, 2)
        points.append(find_periodic(f, guess, eps, v0=root).v_star)
    spread = max(np.linalg.norm(p - points[0]) for p in points)
    assert spread < 1e-7


def test_sweep_entry_error_does_not_abort():
    # x' = eps(-x + cos t), except that at the largest eps the field grows
    # without bound: that entry's NonFiniteState becomes its error
    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        if eps > 0.09:
            return 1e3 * (x + 1.0)
        return np.cos(t) - x

    f = PeriodicField(dim=1, period=TWO_PI, evaluate=evaluate)
    sw = eps_sweep(f, np.array([0.0]), [0.1, 0.05, 0.02])
    assert sw.entries[0].result is None and "blew up" in sw.entries[0].error
    for entry, eps in zip(sw.entries[1:], (0.05, 0.02)):
        assert entry.result is not None and entry.result.converged
        assert abs(entry.result.v_star[0] - eps * eps / (1 + eps * eps)) < 1e-8


def test_sweep_keeps_partial_failures(unforced_nonsmooth):
    # from a far-away guess the first entry can fail while later ones work;
    # build a synthetic failure by sweeping a field with no fixed point at
    # huge tolerance demands: here simply check wiring via a bogus guess
    sw = eps_sweep(unforced_nonsmooth, np.array([A0, 0.0]),
                   [0.05, 0.02, 0.01])
    for entry in sw.entries:
        assert (entry.result is not None) or entry.error


def test_find_periodic_far_start_converges():
    # from (30, 30) the full Newton step once sent a trial point to
    # |v| ~ 1.4e5, where explicit Dormand-Prince crawls; the trust region
    # keeps trials within 1 + |v| and the solve reaches the orbit
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    r = find_periodic(f, np.array([30.0, 30.0]), 0.5)
    assert r.converged and r.residual <= 1e-10


def test_eps_sweep_far_start_returns_every_entry():
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    sw = eps_sweep(f, np.array([30.0, 30.0]), [0.5, 0.25, 0.125])
    assert len(sw.entries) == 3
    assert all(e.result is not None and e.result.converged for e in sw.entries)
