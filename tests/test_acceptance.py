"""Acceptance gate: one test per numbered criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion including elapsed time.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import certified_forced_params
from slowflow import averaging, certify, cli, orbit, smalllin, vdp
from slowflow.odeint import IntegratorConfig, flow, integrate

TWO_PI = 2.0 * math.pi
A0 = 3.0 * math.pi / 4.0


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[C{num}] {label}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS"
    if budget is not None and elapsed >= budget:
        status = f"FAIL (runtime {elapsed:.1f}s over budget {budget}s)"
    print(f"[C{num}] {label}: {status} ({elapsed:.1f}s)")
    assert budget is None or elapsed < budget


def _simulated_amplitude(field, eps=0.05, periods=400):
    """Iterate to the attractor and measure max |u| over the final period."""
    transient = IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8)
    x = flow(field, 0.0, (periods - 1) * field.period, np.array([0.5, 0.3]),
             eps, transient)
    traj = integrate(field, 0.0, field.period, x, eps)
    u = traj.states[:, 0] * np.sin(traj.times) \
        + traj.states[:, 1] * np.cos(traj.times)
    return float(np.max(np.abs(u)))


def test_c01_averaging_factor():
    with criterion(1, "rectified-cubed-sine quadrature equals 8/3", budget=1.0):
        from slowflow.odeint import PeriodicField

        def evaluate(t, x, eps):
            t = np.asarray(t, dtype=float)
            out = np.abs(np.sin(t)) * np.sin(t) ** 2
            return out.reshape(out.shape + (1,)) if out.ndim else np.array([out])

        f = PeriodicField(dim=1, period=TWO_PI, evaluate=evaluate)
        got = averaging.averaged_function(f, np.zeros(1))[0]
        assert abs(got - 8.0 / 3.0) < 1e-10


def test_c02_unforced_nonsmooth_amplitude():
    with criterion(2, "unforced kinked oscillator: root and simulation",
                   budget=30.0):
        f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.0, 0.0))
        root = averaging.find_root(f, np.array([2.0, 0.5]))
        assert root.converged
        assert abs(math.hypot(*root.v0) - A0) < 1e-8
        amp = _simulated_amplitude(f)
        assert abs(amp - A0) / A0 < 0.05


def test_c03_classical_amplitude():
    with criterion(3, "classical oscillator: root and simulation", budget=30.0):
        f = vdp.classical_vdp_field(vdp.ForcingParams(0.0, 0.0))
        root = averaging.find_root(f, np.array([2.1, 0.0]))
        assert root.converged
        assert abs(math.hypot(*root.v0) - 2.0) < 1e-8
        amp = _simulated_amplitude(f)
        assert abs(amp - 2.0) / 2.0 < 0.05


def test_c04_degeneracy_identity():
    with criterion(4, "degeneracy identity at the unforced amplitude",
                   budget=10.0):
        i6, i7 = vdp.stability_indicators("nonsmooth", A0 * A0, 0.0)
        assert abs(i6) < 1e-12
        assert abs(i7 + math.pi) < 1e-12
        f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.0, 0.0))
        root = averaging.find_root(f, np.array([2.0, 0.5]))
        rep = certify.theorem_report(f, root.v0)
        assert rep.verdict == "degenerate"
        re_parts = np.sort(rep.certificate.spectrum.values.real)
        scale = max(1.0, float(np.max(np.abs(rep.certificate.spectrum.values))))
        assert abs(re_parts[1]) < 1e-4
        assert re_parts[0] < -0.1 * scale


def test_c05_inequality_eigenvalue_equivalence():
    with criterion(5, "sign-based stability equals numeric Hurwitz on sweep",
                   budget=120.0):
        pts = vdp.resonance_curve("nonsmooth", 1.0, (-1.0, 1.0), 101)
        assert len(pts) >= 101
        checked = disagreements = 0
        for p in pts:
            if abs(p.ineq6) > 1e-6 and abs(p.ineq7) > 1e-6:
                checked += 1
                if p.stable != p.hurwitz_numeric:
                    disagreements += 1
        assert checked > 0
        assert disagreements == 0


def test_c06_theorem_conclusion_verification():
    with criterion(6, "forced point: stable orbit, approach order, uniqueness",
                   budget=180.0):
        a, amplitude = 0.1, 3.2
        lam = amplitude * math.sqrt(
            a * a + (1.0 - 4.0 * amplitude / (3.0 * math.pi)) ** 2)
        # the bisection oracle must recover the chosen amplitude from (a, lam)
        roots = vdp.amplitude_roots("nonsmooth", a, lam)
        assert any(abs(A - amplitude) < 1e-9 for A in roots)
        i6, i7 = vdp.stability_indicators("nonsmooth", amplitude ** 2, a)
        assert i6 > 0 and i7 < 0
        _, _, v0 = certified_forced_params(amplitude, a)
        f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))

        sweep = orbit.eps_sweep(f, v0, [0.05, 0.02, 0.01, 0.005])
        dists = []
        for entry in sweep.entries:
            r = entry.result
            assert r is not None and r.converged
            assert r.residual <= 1e-9
            assert np.all(np.abs(r.multipliers) < 1.0)
            dists.append(r.dist_to_v0)
        assert all(x > y for x, y in zip(dists, dists[1:]))
        assert sweep.order >= 1.0

        rng = np.random.default_rng(2718)
        fixed_points = []
        for _ in range(20):
            guess = v0 + 0.3 * rng.uniform(-1.0, 1.0, 2)
            fixed_points.append(orbit.find_periodic(f, guess, 0.02, v0=v0).v_star)
        spread = max(np.linalg.norm(p - fixed_points[0]) for p in fixed_points)
        assert spread < 1e-7


def test_c07_contraction_certificates():
    with criterion(7, "contraction certificates and measured map contraction"):
        rng = np.random.default_rng(137)
        built = 0
        for k in (2, 3, 4):
            while True:
                A = rng.standard_normal((k, k)) - (1.5 + k) * np.eye(k)
                if not smalllin.eigenvalues(A).max_real < -1e-9:
                    continue
                cert = certify.StabilityCertificate(
                    v0=np.zeros(k), jacobian=A,
                    spectrum=smalllin.eigenvalues(A), hurwitz=True,
                    degenerate=False)
                done = certify.build_contraction_certificate(cert)
                assert done.q < 1.0
                assert done.lyapunov_residual <= 1e-8
                bf = certify.pnorm_operator_sampled(
                    np.eye(k) + done.alpha * A, done.lyapunov_P,
                    10_000, seed=built)
                assert abs(bf - done.q) < 1e-6
                built += 1
                if built % 7 == 0:
                    break
        assert built >= 20

        a, lam, v0 = certified_forced_params()
        f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))
        done = certify.build_contraction_certificate(certify.certify_hurwitz(f, v0))
        eps = 0.02
        r = orbit.find_periodic(f, v0, eps, v0=v0)
        factor = orbit.measure_contraction(f, r.v_star, eps, 0.05, n_pairs=100,
                                           norm_matrix=done.lyapunov_P)
        assert factor <= 1.0 - eps * done.q_tilde / 2.0


def test_c08_linear_oracle_end_to_end():
    with criterion(8, "linear benchmark: fixed point and multiplier to 1e-8"):
        f = vdp.linear_test_field()
        for eps in (0.1, 0.01):
            r = orbit.find_periodic(f, np.array([0.0]), eps, v0=np.array([0.0]))
            assert abs(r.v_star[0] - eps * eps / (1 + eps * eps)) < 1e-8
            assert abs(r.multipliers[0] - math.exp(-TWO_PI * eps)) < 1e-8


def test_c09_integrator_orders(harmonic_field):
    with criterion(9, "integrator orders on smooth and kinked fields"):
        x0 = np.array([1.0, 0.0])

        def harmonic_err(h):
            cfg = IntegratorConfig(method="rk4-fixed", h=h)
            return np.max(np.abs(flow(harmonic_field, 0.0, TWO_PI, x0, 1.0, cfg)
                                 - x0))

        order_smooth = math.log2(harmonic_err(TWO_PI / 100)
                                 / harmonic_err(TWO_PI / 200))
        assert order_smooth >= 3.8

        from slowflow.odeint import PeriodicField
        f = PeriodicField(1, 1.0, lambda t, x, eps: np.abs(
            np.asarray(x, dtype=float)) - 1.0)
        exact = math.exp(-(1.0 - math.log(2.0))) - 1.0
        hs = np.array([1e-2, 5e-3, 2.5e-3])
        errs = np.array([
            abs(flow(f, 0.0, 1.0, np.array([0.5]), 1.0,
                     IntegratorConfig(method="rk4-fixed", h=h))[0] - exact)
            for h in hs])
        order_kinked = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order_kinked >= 1.0


def test_c10_resonance_determinism(tmp_path):
    with criterion(10, "resonance CSV is byte-identical across runs"):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["resonance", "--model", "nonsmooth", "--lambda", "1.0",
                "--a", "-1.0", "1.0", "--n", "11"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
