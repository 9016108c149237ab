import math

import numpy as np
import pytest

from slowflow import averaging, odeint
from slowflow.errors import RootRecoveryFailed
from slowflow.odeint import IntegratorConfig, integrate
from slowflow.vdp import (
    ForcingParams, amplitude_equation, amplitude_roots, averaged_closed_form,
    averaged_jacobian_closed_form, classical_vdp_field,
    nonsmooth_vdp_field, reconstruct_u, recover_root, resonance_curve_classical,
    resonance_curve_nonsmooth, resonance_point, stability_indicators,
)

TWO_PI = 2.0 * math.pi
A0 = 3.0 * math.pi / 4.0


def test_forcing_params_finite():
    with pytest.raises(ValueError):
        ForcingParams(math.nan, 0.0)


def _rk4_direct_oscillator(damping, a, lam, eps, y0, t1, n_steps):
    """Independent oracle: integrate the oscillator in (u, u') coordinates."""

    def rhs(t, y):
        u, du = y
        return np.array([du, -eps * damping(u) * du - (1 + a * eps) * u
                         + eps * lam * math.sin(t)])

    h = t1 / n_steps
    t, y = 0.0, np.asarray(y0, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


@pytest.mark.parametrize("builder,damping", [
    (nonsmooth_vdp_field, lambda u: abs(u) - 1.0),
    (classical_vdp_field, lambda u: u * u - 1.0),
])
def test_slow_frame_reduction_is_exact(builder, damping):
    # the slow (M, N) system and the direct (u, u') system are two
    # formulations of the same equation; reconstruct u from one period of the
    # slow flow and compare against a direct high-resolution integration
    a, lam, eps = 0.2, 0.5, 0.05
    M0, N0 = 1.3, -0.6
    f = builder(ForcingParams(a, lam))
    traj = integrate(f, 0.0, TWO_PI, np.array([M0, N0]), eps,
                     IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12))
    M1, N1 = traj.final_state
    # u(0) = N, u'(0) = M under u = M sin t + N cos t
    u_direct = _rk4_direct_oscillator(damping, a, lam, eps,
                                      [N0, M0], TWO_PI, 200_000)
    u_slow = reconstruct_u(TWO_PI, M1, N1)
    du_slow = M1 * math.cos(TWO_PI) - N1 * math.sin(TWO_PI)
    assert abs(u_slow - u_direct[0]) < 1e-6
    assert abs(du_slow - u_direct[1]) < 1e-6


def test_eps_zero_freezes_slow_flow(unforced_nonsmooth):
    v = np.array([1.2, 0.7])
    out = odeint.poincare_map(unforced_nonsmooth, v, 0.0)
    assert np.array_equal(out, v)


def test_unforced_stays_near_circle(unforced_nonsmooth):
    eps = 0.05
    v0 = np.array([A0 * math.cos(0.3), A0 * math.sin(0.3)])[::-1]
    traj = integrate(unforced_nonsmooth, 0.0, TWO_PI, v0, eps)
    radii = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(radii - A0)) < 5.0 * eps


def test_classical_origin_is_equilibrium(unforced_classical):
    g0 = averaging.averaged_function(unforced_classical, np.zeros(2))
    assert np.max(np.abs(g0)) < 1e-12


def test_amplitude_equation_values():
    # unforced roots: k(A) = 0
    assert abs(amplitude_equation("nonsmooth", A0, 0.0, 0.0)) < 1e-14
    assert abs(amplitude_equation("classical", 2.0, 0.0, 0.0)) < 1e-14


def test_amplitude_roots_unforced():
    got = amplitude_roots("nonsmooth", 0.0, 0.0)
    assert len(got) == 1 and abs(got[0] - A0) < 1e-12
    got_c = amplitude_roots("classical", 0.0, 0.0)
    assert len(got_c) == 1 and abs(got_c[0] - 2.0) < 1e-12


def test_amplitude_roots_three_branches_below_fold():
    # |A(1 - 4A/(3pi))| = lam has three positive roots below the fold height
    for lam in (0.2, 0.4, 0.55):
        roots = amplitude_roots("nonsmooth", 0.0, lam)
        assert len(roots) == 3
        for A in roots:
            assert abs(amplitude_equation("nonsmooth", A, 0.0, lam)) < 1e-9


def test_amplitude_roots_single_branch_large_forcing():
    for lam in (2.0, 3.0, 5.0):
        assert len(amplitude_roots("classical", 0.0, lam)) == 1


def test_stability_indicators_degenerate_point():
    i6, i7 = stability_indicators("nonsmooth", A0 * A0, 0.0)
    assert abs(i6) < 1e-12                       # pi^2 + 2 pi^2 - 3 pi^2
    assert abs(i7 + math.pi) < 1e-12
    c6, c7 = stability_indicators("classical", 4.0, 0.0)
    assert abs(c6) < 1e-12                       # 1 - 4 + 3
    assert abs(c7 + 2.0) < 1e-12


def test_recover_root_matches_amplitude():
    a, lam = 0.1, 0.6
    for A in amplitude_roots("nonsmooth", a, lam):
        r = recover_root("nonsmooth", a, lam, A)
        assert abs(math.hypot(*r.v0) - A) <= 1e-6


def test_recover_root_failure_for_bogus_amplitude():
    with pytest.raises(RootRecoveryFailed):
        recover_root("nonsmooth", 0.3, 0.5, 2.9)


def test_recover_root_is_the_closed_form():
    a, lam = 0.2, 0.8
    for model in ("nonsmooth", "classical"):
        for A in amplitude_roots(model, a, lam):
            r = recover_root(model, a, lam, A)
            M, N = r.v0
            assert r.iterations == 0 and r.converged and not r.non_isolated
            assert r.residual <= 1e-12
            assert np.max(np.abs(averaged_closed_form(model, M, N, a, lam))) <= 1e-12
            assert np.array_equal(r.jacobian,
                                  averaged_jacobian_closed_form(model, M, N, a))


def test_recover_root_unforced_phase_zero_on_continuum():
    for model, A in (("nonsmooth", A0), ("classical", 2.0)):
        (amp,) = amplitude_roots(model, 0.0, 0.0)
        r = recover_root(model, 0.0, 0.0, amp)
        assert r.v0[0] == 0.0 and r.v0[1] == amp
        assert abs(amp - A) < 1e-12
        assert r.non_isolated
    with pytest.raises(RootRecoveryFailed):       # lam = 0 roots need a = 0
        recover_root("nonsmooth", 0.3, 0.0, A0)


def test_recover_root_rejects_quadrature_residual_above_tol():
    # the closed-form point is kept only if the quadrature agrees with it
    A = amplitude_roots("nonsmooth", 0.1, 1.2)[-1]
    assert recover_root("nonsmooth", 0.1, 1.2, A).residual <= 1e-12
    with pytest.raises(RootRecoveryFailed, match="residual"):
        recover_root("nonsmooth", 0.1, 1.2, A, n_nodes=16)


def test_roots_satisfy_amplitude_equation():
    # averaging consistency: every recovered (M, N) root reproduces the
    # scalar resonance equation at A = sqrt(M^2 + N^2)
    rng = np.random.default_rng(5)
    for _ in range(6):
        a = float(rng.uniform(-0.8, 0.8))
        lam = float(rng.uniform(0.1, 1.5))
        for A in amplitude_roots("nonsmooth", a, lam):
            r = recover_root("nonsmooth", a, lam, A)
            amp = math.hypot(*r.v0)
            assert abs(amplitude_equation("nonsmooth", amp, a, lam)) < 1e-7


def test_resonance_point_fields():
    pt = resonance_point("nonsmooth", 0.0, 0.0, A0)
    assert abs(pt.A - A0) < 1e-9
    assert abs(pt.M - pt.A * math.sin(pt.phi)) < 1e-10
    assert abs(pt.N - pt.A * math.cos(pt.phi)) < 1e-10
    assert abs(pt.M ** 2 + pt.N ** 2 - pt.A ** 2) < 1e-10
    assert pt.degenerate and not pt.stable
    assert abs(pt.ineq7 + math.pi) < 1e-9


def test_resonance_curve_single_degenerate_row():
    pts = resonance_curve_nonsmooth(0.0, (0.0, 0.0), 1)
    assert len(pts) == 1
    assert abs(pts[0].A - A0) < 1e-9
    pts_c = resonance_curve_classical(0.0, (0.0, 0.0), 1)
    assert len(pts_c) == 1
    assert abs(pts_c[0].A - 2.0) < 1e-9


def test_resonance_curve_classical_symmetric_in_detuning():
    pts = resonance_curve_classical(0.7, (-0.5, 0.5), 5)
    by_a = {}
    for p in pts:
        by_a.setdefault(round(p.a, 12), []).append(p.A)
    for a in list(by_a):
        if a > 0:
            left = sorted(by_a[round(-a, 12)])
            right = sorted(by_a[a])
            assert len(left) == len(right)
            for x, y in zip(left, right):
                assert abs(x - y) < 1e-10


def test_resonance_stability_matches_eigenvalues_small_sweep():
    pts = resonance_curve_nonsmooth(1.0, (-1.0, 1.0), 21)
    assert pts
    for p in pts:
        if abs(p.ineq6) > 1e-6 and abs(p.ineq7) > 1e-6:
            assert p.stable == p.hurwitz_numeric


@pytest.mark.parametrize("curve,model", [
    (resonance_curve_classical, "classical"),
    (resonance_curve_nonsmooth, "nonsmooth"),
])
def test_resonance_curve_keeps_every_amplitude_root(curve, model):
    # the classical middle branch at a = +-0.52 (A = 1.72348) was once lost
    # when no Newton start phase reached it
    pts = curve(1.0, (-1.0, 1.0), 101)
    want = sum(len(amplitude_roots(model, float(a), 1.0))
               for a in np.linspace(-1.0, 1.0, 101))
    assert len(pts) == want
    for p in pts:
        g = averaged_closed_form(model, p.M, p.N, p.a, p.lam)
        assert np.max(np.abs(g)) <= 1e-12
    if model == "classical":
        middle = [p for p in pts if abs(abs(p.a) - 0.52) < 1e-12
                  and abs(p.A - 1.72348) < 1e-5]
        assert len(middle) == 2


def test_resonance_curves_do_not_call_newton(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("find_root called")

    monkeypatch.setattr(averaging, "find_root", refuse)
    for curve, model, lam, a_range, n in (
            (resonance_curve_nonsmooth, "nonsmooth", 1.0, (-1.0, 1.0), 21),
            (resonance_curve_classical, "classical", 0.3, (-0.5, 0.5), 5)):
        want = sum(len(amplitude_roots(model, float(a), lam))
                   for a in np.linspace(a_range[0], a_range[1], n))
        assert len(curve(lam, a_range, n)) == want


def test_resonance_validation():
    with pytest.raises(ValueError):
        resonance_curve_nonsmooth(-0.5, (0.0, 1.0), 3)
    with pytest.raises(ValueError):
        resonance_curve_nonsmooth(0.5, (1.0, 0.0), 3)
    with pytest.raises(ValueError):
        resonance_curve_nonsmooth(0.5, (0.0, 1.0), 0)


def test_full_prediction_cycle_end_to_end():
    # a stable resonance point must be realized by a stable periodic solution
    # whose reconstructed waveform approaches the predicted sinusoid
    from slowflow import orbit

    a, lam = 0.1, 1.2
    roots = amplitude_roots("nonsmooth", a, lam)
    stable_pts = [resonance_point("nonsmooth", a, lam, A) for A in roots]
    stable_pts = [p for p in stable_pts if p.stable]
    assert stable_pts
    pt = stable_pts[-1]
    v0 = np.array([pt.M, pt.N])
    f = nonsmooth_vdp_field(ForcingParams(a, lam))
    sup_errs, dists = [], []
    for eps in (0.05, 0.02, 0.01):
        r = orbit.find_periodic(f, v0, eps, v0=v0)
        assert r.stable
        dists.append(r.dist_to_v0)
        traj = integrate(f, 0.0, TWO_PI, r.v_star, eps)
        u_sim = traj.states[:, 0] * np.sin(traj.times) \
            + traj.states[:, 1] * np.cos(traj.times)
        u_pred = reconstruct_u(traj.times, pt.M, pt.N)
        sup_errs.append(float(np.max(np.abs(u_sim - u_pred))))
    assert dists[0] > dists[1] > dists[2]
    assert sup_errs[0] > sup_errs[1] > sup_errs[2]
    assert sup_errs[2] < 0.1


def test_reconstruct_u_identities():
    t = np.linspace(0.0, TWO_PI, 64)
    M, N = 1.1, -0.8
    u = reconstruct_u(t, M, N)
    amp = math.hypot(M, N)
    assert np.max(np.abs(u)) <= amp + 1e-12
    assert abs(reconstruct_u(0.0, M, N) - N) < 1e-15


def test_kink_metadata_matches_zero_crossings(unforced_nonsmooth):
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = rng.uniform(-2.0, 2.0, 2)
        if np.hypot(*v) < 0.1:
            continue
        for tk in unforced_nonsmooth.kinks(v, 0.0):
            assert abs(reconstruct_u(tk, v[0], v[1])) < 1e-10
