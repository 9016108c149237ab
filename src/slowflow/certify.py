"""Checkable stability conditions at a root of the averaged field.

Given a candidate root v0, this module certifies what can be certified
numerically:

* the averaged-field residual at v0 (is it actually a root),
* the eigenvalues of the averaged Jacobian (Hurwitz / degenerate / unstable),
* a constructive one-step contraction: a Lyapunov norm ``|x|_P`` built from
  A'P + PA = -I (one Kronecker-structured direct solve: at k^2 unknowns that
  is trivial and leaves fewer algorithms to validate than Bartels-Stewart)
  together with constants alpha and q < 1 such that
  ``|(I + alpha*A)x|_P <= q |x|_P``.  The derived margin rate
  ``q_tilde = (1 - q)/alpha`` bounds the period-map contraction factor by
  ``1 - eps*q_tilde`` for small eps,
* a sampled lower bound on the Lipschitz constant of g (diagnostic only),
  drawn as one batch and evaluated in one field call per side.

Two hypotheses of the underlying averaging theory are *not* checkable by any
finite computation -- the uniform-limit condition over all continuous
perturbations, and measurability/measure-zero structure of the switching set.
Reports list them as assumed; ``uniform_limit_diagnostic`` provides a sampled
exploration of the former without claiming verification.  The alpha grid,
sample sizes and noise band are module constants (``ALPHA_*``,
``LIPSCHITZ_*``, ``UNIFORM_*``, ``DEGENERACY_BAND``), one value each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import averaging, smalllin
from .errors import NoContraction, NoConvergence, NotHurwitz
from .odeint import PeriodicField
from .orbit import _ball_batch

__all__ = [
    "StabilityCertificate", "LipschitzEstimate", "TheoremReport",
    "certify_hurwitz", "build_contraction_certificate",
    "pnorm_operator", "pnorm_operator_sampled",
    "estimate_lipschitz",
    "uniform_limit_diagnostic", "theorem_report",
    "DEGENERACY_BAND",
]

# the averaged Jacobian carries its quadrature rule's error, and that of a
# field without ``jacobian`` FD noise well above machine precision; eigenvalues
# within this relative band of zero are classified degenerate, not guessed at
DEGENERACY_BAND = 1e-4
LYAPUNOV_RESIDUAL_TOL = 1e-8     # max |A'P + PA + I| a certificate accepts

ALPHA_OCTAVES = 20               # alpha grid: 2^j/(2|tr A|) for |j| <= 20,
ALPHA_MAX = 1.0                  # capped here, then refined by
ALPHA_REFINE_STEPS = 60          # golden-section steps around the minimizer
LIPSCHITZ_RADIUS = 0.5           # `theorem_report`'s sampled Lipschitz ball,
LIPSCHITZ_SAMPLES = 2000         # its pairs,
LIPSCHITZ_EPS_MAX = 1.0          # and the eps range [0, 1) they draw from
UNIFORM_KNOTS = 9                # `uniform_limit_diagnostic`: knots per perturbation


@dataclass
class StabilityCertificate:
    """Eigenvalue verdict plus (when Hurwitz) the contraction constants."""

    v0: np.ndarray
    jacobian: np.ndarray
    spectrum: smalllin.Spectrum
    hurwitz: bool
    degenerate: bool
    lyapunov_P: Optional[np.ndarray] = None
    alpha: Optional[float] = None
    q: Optional[float] = None
    q_tilde: Optional[float] = None
    lyapunov_residual: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.q is not None


@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled max difference quotient of g: a lower bound on the true constant."""

    radius: float
    l_hat: float
    samples: int


def certify_hurwitz(f: PeriodicField, v0,
                    n_nodes: int = averaging.DEFAULT_NODES) -> StabilityCertificate:
    """Eigenvalue classification of the averaged Jacobian at v0.

    The Jacobian is ``averaging.averaged_jacobian``: the quadrature of the
    field's ``jacobian`` when it has one, else a central difference.
    ``degenerate`` means some eigenvalue real part sits inside the noise band
    ``DEGENERACY_BAND * max(1, spectral radius)`` -- a first-class outcome
    (phase invariance of an unforced cycle lands exactly there), not an error.
    """
    v0 = np.asarray(v0, dtype=float)
    A = averaging.averaged_jacobian(f, v0, n_nodes)
    spec = smalllin.eigenvalues(A)
    scale = max(1.0, float(np.max(np.abs(spec.values))))
    band = DEGENERACY_BAND * scale
    degenerate = bool(np.any(np.abs(spec.values.real) <= band))
    hurwitz = spec.max_real < -band
    return StabilityCertificate(v0=v0, jacobian=A, spectrum=spec,
                                hurwitz=hurwitz, degenerate=degenerate)


def pnorm_operator(M, P) -> float:
    """Operator norm of M induced by |x|_P = sqrt(x'Px).

    Equals the largest generalized eigenvalue of (M'PM, P), computed through
    the Cholesky reduction L^-1 (M'PM) L^-T with P = LL'.
    """
    M = np.asarray(M, dtype=float)
    P = np.asarray(P, dtype=float)
    L = smalllin.cholesky(P)
    K = M.T @ P @ M
    C = np.linalg.solve(L, np.linalg.solve(L, K).T)
    lam = smalllin.eigenvalues(0.5 * (C + C.T)).values.real
    return math.sqrt(max(0.0, float(np.max(lam))))


def pnorm_operator_sampled(M, P, n_samples: int = 10_000, seed: int = 0) -> float:
    """Brute-force check of `pnorm_operator`: sampled Rayleigh quotients.

    Random sampling alone cannot localize the maximizer to 1e-6 in dimension
    three and up (and the optimal alpha typically ties the top two singular
    values, which also defeats plain power iteration), so the sampled maximum
    is polished by the top eigenvalue of the symmetric matrix B'B from LAPACK
    ``eigvalsh`` -- a route disjoint from the `eig2x2` closed form (k = 2) and
    the nonsymmetric ``eigvals`` (k > 2) used by `pnorm_operator`.
    """
    M = np.asarray(M, dtype=float)
    P = np.asarray(P, dtype=float)
    k = M.shape[0]
    L = smalllin.cholesky(P)
    # |Mx|_P / |x|_P = |B y|_2 / |y|_2 with y = L'x, B = L' M L^-T
    B = L.T @ np.linalg.solve(L, M.T).T
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n_samples, k))
    num = np.linalg.norm(Y @ B.T, axis=1)
    den = np.linalg.norm(Y, axis=1)
    best = float(np.max(num / den))
    w = np.linalg.eigvalsh(B.T @ B)
    polished = math.sqrt(max(0.0, float(w[-1])))
    return max(best, polished)


def build_contraction_certificate(cert: StabilityCertificate) -> StabilityCertificate:
    """Complete a Hurwitz certificate with the Lyapunov norm and (alpha, q).

    P solves A'P + PA = -I, assembled as (kron(A', I) + kron(I, A')) vec(P) =
    vec(-I); a residual above ``LYAPUNOV_RESIDUAL_TOL`` raises
    ``NoConvergence``, and a P that is not positive definite fails its
    Cholesky factor (``Singular``).  alpha scans a geometric grid (then
    golden-section refinement) minimizing mu(alpha) = |I + alpha*A|_P.  For
    Hurwitz A, mu(alpha) = 1 - alpha/(2*lambda_max(P)) + O(alpha^2) < 1 holds
    for small alpha, so the certificate always closes with q < 1.
    """
    if not cert.hurwitz:
        raise NotHurwitz("contraction certificate requires a Hurwitz Jacobian")
    A = cert.jacobian
    k = A.shape[0]
    eye = np.eye(k)
    P = smalllin.solve(np.kron(A.T, eye) + np.kron(eye, A.T), (-eye).reshape(-1)).reshape(k, k)
    P = 0.5 * (P + P.T)
    resid = float(np.max(np.abs(A.T @ P + P @ A + eye)))
    if resid > LYAPUNOV_RESIDUAL_TOL:
        raise NoConvergence(f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:g}")

    def mu(alpha: float) -> float:
        return pnorm_operator(eye + alpha * A, P)

    base = 1.0 / (2.0 * abs(float(np.trace(A))))
    alphas = sorted({
        min(ALPHA_MAX, base * 2.0 ** j) for j in range(-ALPHA_OCTAVES, ALPHA_OCTAVES + 1)
    })
    vals = [mu(a) for a in alphas]
    i = int(np.argmin(vals))
    lo = alphas[max(0, i - 1)]
    hi = alphas[min(len(alphas) - 1, i + 1)]
    # golden-section refinement on [lo, hi]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = mu(x1), mu(x2)
    for _ in range(ALPHA_REFINE_STEPS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = mu(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = mu(x2)
    candidates = [(vals[i], alphas[i]), (f1, x1), (f2, x2)]
    q, alpha = min(candidates)
    if not q < 1.0:
        raise NoContraction(f"min |I + alpha*A|_P = {q:.6f} >= 1")
    cert.lyapunov_P = P
    cert.alpha = float(alpha)
    cert.q = float(q)
    cert.q_tilde = (1.0 - float(q)) / float(alpha)
    cert.lyapunov_residual = resid
    return cert


def estimate_lipschitz(f: PeriodicField, v0, delta: float,
                       n_samples: int = 10_000, seed: int = 0) -> LipschitzEstimate:
    """Sampled difference quotient of g over the ball B_delta(v0).

    A lower bound on the true Lipschitz constant; diagnostic only.  All
    samples are drawn as one batch and each side is one field call with
    paired times, states and eps.  Pairs closer than 1e-12 are skipped, and
    so is a NaN quotient; ``samples`` counts the pairs that entered the max.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    v0 = np.asarray(v0, dtype=float)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, f.period, n_samples)
    eps = rng.uniform(0.0, LIPSCHITZ_EPS_MAX, n_samples)
    V1 = v0 + delta * _ball_batch(rng, n_samples, f.dim)
    V2 = v0 + delta * _ball_batch(rng, n_samples, f.dim)
    d = np.linalg.norm(V1 - V2, axis=1)
    keep = d >= 1e-12
    t, eps, V1, V2, d = t[keep], eps[keep], V1[keep], V2[keep], d[keep]
    g1 = np.asarray(f.evaluate(t, V1, eps), dtype=float)
    g2 = np.asarray(f.evaluate(t, V2, eps), dtype=float)
    q = np.linalg.norm(g1 - g2, axis=1) / d
    used = int(np.count_nonzero(~np.isnan(q)))
    return LipschitzEstimate(delta, float(np.fmax.reduce(q, initial=0.0)), used)


def uniform_limit_diagnostic(f: PeriodicField, v0, delta: float,
                             n_samples: int = 50, seed: int = 0) -> float:
    """Sampled exploration of the uniform-limit averaging condition.

    Draws random piecewise-linear perturbations u with sup-norm <= delta and
    random v1, v2 in B_delta(v0), eps in [0, delta], and returns the largest
    sampled quotient

        | integral of [g(., v1+u, eps) - g(., v2+u, eps)
                       - g(., v1, 0) + g(., v2, 0)] |  /  |v1 - v2|.

    The condition quantifies over *all* continuous u, so no finite sample can
    verify it; this is exploration, never certification.
    """
    v0 = np.asarray(v0, dtype=float)
    rng = np.random.default_rng(seed)
    k = f.dim
    T = f.period
    knots = np.linspace(0.0, T, UNIFORM_KNOTS)
    V = v0 + delta * _ball_batch(rng, 2 * n_samples, k)
    worst = 0.0
    for v1, v2 in zip(V[:n_samples], V[n_samples:]):
        uvals = rng.uniform(-delta, delta, size=(UNIFORM_KNOTS, k))
        d = float(np.linalg.norm(v1 - v2))
        if d < 1e-12:
            continue
        eps = float(rng.uniform(0.0, delta))

        def excess(t):          # u is linear between the knots, where segments end
            u = np.stack([np.interp(t, knots, uvals[:, j]) for j in range(k)], axis=-1)
            return (f.evaluate(t, v1 + u, eps) - f.evaluate(t, v2 + u, eps)
                    - f.evaluate(t, v1, 0.0) + f.evaluate(t, v2, 0.0))
        val = averaging._gauss_integrals(excess, knots[:-1], np.diff(knots))[0].sum(axis=0)
        worst = max(worst, float(np.linalg.norm(val)) / d)
    return worst


@dataclass
class TheoremReport:
    """Bundled verdict on the checkable conditions at a candidate root."""

    point: np.ndarray
    residual: float
    root_ok: bool
    certificate: StabilityCertificate
    lipschitz: LipschitzEstimate
    verdict: str                      # "certified" | "degenerate" | "failed(...)"
    assumed_not_verified: Tuple[str, ...] = (
        "uniform-limit averaging condition (quantifies over all continuous "
        "perturbations; not checkable by finite sampling)",
        "measure-zero switching structure (measure-theoretic; documented per "
        "built-in system, not checked)",
    )

    def to_dict(self) -> dict:
        cert = self.certificate
        d = {
            "point": [float(x) for x in self.point],
            "residual": float(self.residual),
            "root_ok": bool(self.root_ok),
            "spectrum": [[float(z.real), float(z.imag)] for z in cert.spectrum.values],
            "hurwitz": bool(cert.hurwitz),
            "degenerate": bool(cert.degenerate),
            "lipschitz_hat": float(self.lipschitz.l_hat),
            "lipschitz_radius": float(self.lipschitz.radius),
            "assumed_not_verified": list(self.assumed_not_verified),
            "verdict": self.verdict,
        }
        if cert.complete:
            d["contraction"] = {
                "alpha": float(cert.alpha),
                "q": float(cert.q),
                "q_tilde": float(cert.q_tilde),
                "lyapunov_P": [[float(x) for x in row] for row in cert.lyapunov_P],
                "lyapunov_residual": float(cert.lyapunov_residual),
            }
        else:
            d["contraction"] = None
        return d


def theorem_report(f: PeriodicField, point, root_tol: float = 1e-8,
                   n_nodes: int = averaging.DEFAULT_NODES, seed: int = 0) -> TheoremReport:
    """Evaluate every checkable condition at `point` and return the bundle.

    Verdicts: ``certified`` (root + Hurwitz + contraction certificate),
    ``degenerate`` (root whose Jacobian has an eigenvalue in the noise band,
    e.g. the phase direction of an unforced cycle), or ``failed(reason)``.
    """
    point = np.asarray(point, dtype=float)
    residual = float(np.linalg.norm(averaging.averaged_function(f, point, n_nodes)))
    root_ok = residual <= root_tol
    cert = certify_hurwitz(f, point, n_nodes=n_nodes)
    lip = estimate_lipschitz(f, point, LIPSCHITZ_RADIUS,
                             n_samples=LIPSCHITZ_SAMPLES, seed=seed)
    if not root_ok:
        verdict = f"failed(root residual {residual:.3e} > {root_tol:g})"
    elif cert.degenerate:
        verdict = "degenerate"
    elif not cert.hurwitz:
        verdict = f"failed(not Hurwitz: max Re eigenvalue {cert.spectrum.max_real:.3e})"
    else:
        cert = build_contraction_certificate(cert)
        verdict = "certified"
    return TheoremReport(point=point, residual=residual, root_ok=root_ok,
                         certificate=cert, lipschitz=lip, verdict=verdict)
