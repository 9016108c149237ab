import dataclasses
import math

import numpy as np
import pytest

from conftest import NONSMOOTH_DSL, certified_forced_params
from slowflow import averaging, certify, exprdsl, orbit, smalllin, vdp
from slowflow.certify import (
    StabilityCertificate, build_contraction_certificate,
    certify_hurwitz, estimate_lipschitz, pnorm_operator,
    pnorm_operator_sampled, theorem_report,
    uniform_limit_diagnostic,
)
from slowflow.errors import NotHurwitz
from slowflow.odeint import PeriodicField

TWO_PI = 2.0 * math.pi


def _cert_for(A):
    A = np.asarray(A, dtype=float)
    spec = smalllin.eigenvalues(A)
    return StabilityCertificate(v0=np.zeros(A.shape[0]), jacobian=A,
                                spectrum=spec, hurwitz=spec.max_real < -1e-9,
                                degenerate=False)


def test_certify_linear_field(linear_field):
    cert = certify_hurwitz(linear_field, np.array([0.0]))
    assert cert.hurwitz and not cert.degenerate
    assert abs(cert.spectrum.values[0].real + TWO_PI) < 1e-6


def test_certify_unforced_degenerate(unforced_nonsmooth):
    r = averaging.find_root(unforced_nonsmooth, np.array([2.0, 0.5]))
    cert = certify_hurwitz(unforced_nonsmooth, r.v0)
    assert cert.degenerate and not cert.hurwitz
    re_parts = sorted(cert.spectrum.values.real)
    assert abs(re_parts[0] + math.pi) < 1e-4      # contracting direction
    assert abs(re_parts[1]) < 1e-4                # phase direction


def test_certify_forced_hurwitz():
    a, lam, root = certified_forced_params()
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))
    cert = certify_hurwitz(f, root)
    assert cert.hurwitz and not cert.degenerate


def test_certify_passes_the_fd_step_through():
    a, lam, root = certified_forced_params()
    f = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))
    cert = certify_hurwitz(f, root)
    assert np.array_equal(cert.jacobian, averaging.averaged_jacobian(f, root, 16384))
    assert np.max(np.abs(cert.jacobian - vdp.averaged_jacobian_closed_form(
        "nonsmooth", root[0], root[1], a))) <= 1e-10
    # without `jacobian` the certificate takes the central difference
    g = dataclasses.replace(f, jacobian=None)
    cert = certify_hurwitz(g, root)
    assert np.array_equal(cert.jacobian, averaging.averaged_jacobian(g, root, 16384))
    assert cert.hurwitz and not cert.degenerate


def test_contraction_certificate_minus_identity():
    done = build_contraction_certificate(_cert_for(-np.eye(2)))
    assert np.allclose(done.lyapunov_P, 0.5 * np.eye(2), atol=1e-12)
    # |I + alpha A|_P = 1 - alpha here, so the best grid point is alpha = 1
    assert abs(done.alpha - 1.0) < 1e-9
    assert done.q < 1e-9
    assert abs(done.q_tilde - 1.0) < 1e-8
    assert abs(pnorm_operator(np.eye(2) - 0.5 * np.eye(2), done.lyapunov_P)
               - 0.5) < 1e-12


def test_contraction_certificate_diagonal():
    done = build_contraction_certificate(_cert_for(np.diag([-1.0, -2.0])))
    # in the diagonal P-norm the alpha = 0.5 evaluation is max(0.5, 0)
    mu_half = pnorm_operator(np.eye(2) + 0.5 * np.diag([-1.0, -2.0]),
                             done.lyapunov_P)
    assert abs(mu_half - 0.5) < 1e-12
    assert done.q < 1.0 and done.q_tilde > 0.0


def test_contraction_certificate_oscillatory():
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    done = build_contraction_certificate(_cert_for(A))
    assert done.q < 1.0
    assert done.lyapunov_residual <= 1e-10
    # certificate inequality holds on the alpha grid point actually chosen
    assert pnorm_operator(np.eye(2) + done.alpha * A, done.lyapunov_P) <= done.q + 1e-12


def test_contraction_certificate_factors_P_once(monkeypatch):
    # every mu(alpha) reuses one Cholesky factor of P, with the bits of
    # pnorm_operator(M, P) factoring P itself
    A = np.array([[-0.3, 2.0, 0.1], [-2.0, -0.4, 0.0], [0.5, 0.2, -1.1]])
    factors = []

    def cholesky(P):
        factors.append(P)
        return smalllin._lapack(np.linalg.cholesky, P)

    monkeypatch.setattr(smalllin, "cholesky", cholesky)
    done = build_contraction_certificate(_cert_for(A))
    assert len(factors) == 1
    M = np.eye(3) + done.alpha * A
    L = np.linalg.cholesky(done.lyapunov_P)
    assert pnorm_operator(M, done.lyapunov_P, L) == pnorm_operator(M, done.lyapunov_P) == done.q


def test_contraction_requires_hurwitz():
    with pytest.raises(NotHurwitz):
        build_contraction_certificate(_cert_for(np.array([[0.0, 1.0], [-1.0, 0.0]])))


def test_random_hurwitz_certificates_close():
    rng = np.random.default_rng(11)
    checked = 0
    for k in (2, 3, 4):
        for _ in range(5):
            A = rng.standard_normal((k, k)) - (1.5 + k) * np.eye(k)
            if not smalllin.eigenvalues(A).max_real < -1e-9:
                continue
            done = build_contraction_certificate(_cert_for(A))
            assert done.q < 1.0 and done.q_tilde > 0.0
            assert done.lyapunov_residual <= 1e-8
            bf = pnorm_operator_sampled(np.eye(k) + done.alpha * A,
                                        done.lyapunov_P, 5000, seed=checked)
            assert abs(bf - done.q) < 1e-6
            checked += 1
    assert checked >= 10


def test_brute_force_norm_agrees():
    rng = np.random.default_rng(4)
    for k in (2, 3, 4):
        B = rng.standard_normal((k, k))
        Q = rng.standard_normal((k, k))
        P = Q @ Q.T + k * np.eye(k)
        assert abs(pnorm_operator(B, P)
                   - pnorm_operator_sampled(B, P, 10_000, seed=k)) < 1e-6


def test_estimate_lipschitz_linear(linear_field):
    est = estimate_lipschitz(linear_field, np.array([0.0]), 1.0,
                             n_samples=4000, seed=0)
    assert est.l_hat <= 1.0 + 1e-12
    assert est.l_hat > 0.95


def test_estimate_lipschitz_constant_field():
    from slowflow.odeint import PeriodicField

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        tarr = np.asarray(t, dtype=float)
        batch = tarr.shape if tarr.ndim else x.shape[:-1]
        return np.broadcast_to(np.array([2.0]), batch + (1,)).copy()

    f = PeriodicField(dim=1, period=1.0, evaluate=evaluate)
    est = estimate_lipschitz(f, np.zeros(1), 0.5, n_samples=500, seed=1)
    assert est.l_hat == 0.0


def test_estimate_lipschitz_nonsmooth_below_interval_bound(unforced_nonsmooth):
    # coarse interval bound on |dF/d(M,N)| over |v| <= 3: |u'| + |u| + 1 + |a|
    # per component, hence sqrt(2) * (2R + 1) overall at a = 0
    R = 3.0
    bound = math.sqrt(2.0) * (2.0 * R + 1.0)
    est = estimate_lipschitz(unforced_nonsmooth, np.zeros(2), R,
                             n_samples=4000, seed=2)
    assert 0.0 < est.l_hat <= bound


@pytest.mark.parametrize("n_samples", [500, 10_000])
def test_estimate_lipschitz_one_call_per_side(n_samples):
    inner = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    calls = []

    def evaluate(t, x, eps):
        calls.append(np.shape(x))
        return inner.evaluate(t, x, eps)

    f = PeriodicField(dim=2, period=inner.period, evaluate=evaluate)
    est = estimate_lipschitz(f, np.array([0.5, 1.2]), 0.5, n_samples=n_samples)
    assert len(calls) <= 2
    assert est.samples == n_samples and est.l_hat > 0.0


def test_estimate_lipschitz_dsl_twin_matches_builtin():
    a, lam, root = certified_forced_params()
    builtin = vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))
    twin = exprdsl.field_from_spec(exprdsl.FieldSpec.from_strings(
        2, TWO_PI, NONSMOOTH_DSL, {"a": a, "lam": lam}))
    for seed in range(3):
        want = estimate_lipschitz(builtin, root, 0.5, n_samples=2000, seed=seed)
        got = estimate_lipschitz(twin, root, 0.5, n_samples=2000, seed=seed)
        assert abs(got.l_hat - want.l_hat) <= 1e-12 * want.l_hat


def test_estimate_lipschitz_skips_nan_quotients():
    # g(t, x) = x on the first half period and NaN on the second
    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        return np.where(np.asarray(t)[..., None] < 0.5, x, np.nan)

    f = PeriodicField(dim=1, period=1.0, evaluate=evaluate)
    est = estimate_lipschitz(f, np.zeros(1), 0.5, n_samples=400, seed=4)
    assert abs(est.l_hat - 1.0) <= 1e-12
    assert 100 < est.samples < 300
    assert estimate_lipschitz(f, np.zeros(1), 1e-14, n_samples=50).l_hat == 0.0


def test_theorem_report_linear_certified(linear_field):
    rep = theorem_report(linear_field, np.array([0.0]))
    assert rep.verdict == "certified"
    assert rep.root_ok
    assert rep.certificate.complete
    d = rep.to_dict()
    assert d["contraction"]["q"] < 1.0


def test_theorem_report_unforced_degenerate(unforced_nonsmooth):
    r = averaging.find_root(unforced_nonsmooth, np.array([2.0, 0.5]))
    rep = theorem_report(unforced_nonsmooth, r.v0)
    assert rep.verdict == "degenerate"
    assert not rep.certificate.complete


def test_theorem_report_non_root_fails(unforced_nonsmooth):
    rep = theorem_report(unforced_nonsmooth, np.array([1.0, 1.0]))
    assert rep.verdict.startswith("failed(root residual")
    assert not rep.root_ok


def test_theorem_report_mentions_unverifiable_hypotheses(linear_field):
    rep = theorem_report(linear_field, np.array([0.0]))
    joined = " ".join(rep.assumed_not_verified)
    assert "uniform-limit" in joined
    assert "switching" in joined


def test_uniform_limit_diagnostic_deterministic(linear_field):
    a = uniform_limit_diagnostic(linear_field, np.array([0.0]), 0.2,
                                 n_samples=10, seed=7)
    b = uniform_limit_diagnostic(linear_field, np.array([0.0]), 0.2,
                                 n_samples=10, seed=7)
    assert a == b
    assert math.isfinite(a) and a >= 0.0
    # for the linear field the integrand differences cancel exactly
    assert a < 1e-9


def test_alpha_policy_grid_bounds():
    # the grid centre 1/(2|tr A|) = 2.5 lies above the cap, and |I + alpha*A|_P
    # = 1 - 0.1*alpha falls all the way to it
    done = build_contraction_certificate(_cert_for(-0.1 * np.eye(2)))
    assert certify.ALPHA_MAX == 1.0
    assert done.alpha == certify.ALPHA_MAX
    assert abs(done.q - 0.9) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, run", [
    ("v_star", lambda f, v: orbit.measure_contraction(f, v, 0.05, 0.1, n_pairs=4)),
    ("v_star", lambda f, v: orbit.basin_probe(f, v, 0.05, 0.1, n_starts=4, n_periods=2)),
    ("v0", lambda f, v: estimate_lipschitz(f, v, 0.1, n_samples=8)),
    ("v0", lambda f, v: uniform_limit_diagnostic(f, v, 0.1, n_samples=4)),
], ids=["measure_contraction", "basin_probe", "estimate_lipschitz",
        "uniform_limit_diagnostic"])
def test_sampling_entry_points_reject_a_non_finite_centre(name, run, bad):
    # a NaN centre once gave a misleading "radius too small" or a silent 0.0,
    # an inf centre a RuntimeWarning from inf - inf; now a ValueError naming
    # the argument, before any field call
    base = vdp.nonsmooth_vdp_field(vdp.ForcingParams(0.1, 1.0))
    calls = [0]

    def evaluate(t, x, eps):
        calls[0] += 1
        return base.evaluate(t, x, eps)
    f = dataclasses.replace(base, evaluate=evaluate, floats=None)
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        run(f, np.array([bad, 1.0]))
    assert calls == [0]
