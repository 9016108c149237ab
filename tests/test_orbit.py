import dataclasses
import math

import numpy as np
import pytest

from conftest import certified_forced_params
from slowflow import certify, smalllin, vdp
from slowflow.odeint import IntegratorConfig, PeriodicField, poincare_map, variational_map
from slowflow.orbit import (
    _ORBIT_CFG, ORBITAL_NOTE, _truncated_step, basin_probe, eps_sweep, find_periodic,
    measure_contraction,
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
    assert r.note == ORBITAL_NOTE
    assert not r.stable and not r.converged
    mags = np.sort(np.abs(r.multipliers))
    assert abs(mags[-1] - 1.0) <= 1e-4           # phase direction
    assert mags[0] < 1.0 - 1e-4                  # contracting direction
    assert r.residual < 1e-2
    # the truncated step stalls on the circle instead of creeping along it
    assert r.iterations <= 6


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
    """f with its evaluate calls counted in the returned one-item list."""
    calls = [0]
    ev = f.evaluate

    def evaluate(t, x, eps):
        calls[0] += 1
        return ev(t, x, eps)

    return dataclasses.replace(f, evaluate=evaluate), calls


def _closed_form_root(a, lam):
    # amplitude from the resonance equation, then (M, N) from the 2x2 system
    # [[k, -a pi], [a pi, k]] (M, N) = (0, lam pi), k = pi - 4A/3
    (A,) = vdp.amplitude_roots("nonsmooth", a, lam)
    k = math.pi - 4.0 * A / 3.0
    return np.linalg.solve(np.array([[k, -a * math.pi], [a * math.pi, k]]),
                           np.array([0.0, lam * math.pi]))


def test_truncated_step_drops_directions_below_ratio():
    # singular values 1, 0.011, 0.009 against the default 1e-2 cut: only the
    # 0.009 direction is FD noise
    rng = np.random.default_rng(41)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    J = Q @ np.diag([1.0, 0.011, 0.009]) @ Q.T
    Fv = rng.standard_normal(3)
    step, dropped = _truncated_step(J, Fv)
    assert dropped
    expected = Q @ np.diag([1.0, 1.0 / 0.011, 0.0]) @ Q.T @ (-Fv)
    assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)


def test_truncated_step_well_conditioned_is_newton_step():
    rng = np.random.default_rng(43)
    J = rng.standard_normal((3, 3)) + 4.0 * np.eye(3)
    Fv = rng.standard_normal(3)
    step, dropped = _truncated_step(J, Fv)
    assert not dropped
    expected = smalllin.solve(J, -Fv)
    assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)


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


@pytest.mark.parametrize("case", ["forced", "unforced stall"])
def test_multipliers_are_those_of_phi_at_the_returned_point(case):
    # the stall returns the start, after rejected first trials whose own Phi
    # must not be reported
    if case == "forced":
        root = _closed_form_root(0.1, 1.0)
        f, v0, eps = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0)), root, 0.07
    else:
        f, v0, eps = vdp.nonsmooth_vdp_field(), np.array([A0, 0.0]), 0.03
    r = find_periodic(f, v0, eps)
    _, Phi = variational_map(f, r.v_star, eps, _ORBIT_CFG)
    assert np.array_equal(r.multipliers, smalllin.eigenvalues(Phi).values)


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
    re_res = np.linalg.norm(
        poincare_map(f, r.v_star, 0.02, cfg.refined()) - r.v_star)
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
