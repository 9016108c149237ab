"""Built-in oscillators in rotating (slow) coordinates and their resonance curves.

A weakly forced oscillator  u'' + eps*d(u, u') * u' + (1 + a*eps) u =
eps * lam * sin t  is reduced to standard slow form by the substitution

    u = M sin t + N cos t,      u' = M cos t - N sin t,

(constraint M' sin t + N' cos t = 0), which gives exactly

    M' =  eps * F(t, M, N) cos t,
    N' = -eps * F(t, M, N) sin t,       F = -d(u,u')*u' - a*u + lam*sin t.

Two damping laws are built in: the piecewise-linear ``|u| - 1`` and the
classical ``u^2 - 1``.  For both, the averaged field is k(A) (M, N) +
a*pi (-N, M) - (0, lam*pi) with A = sqrt(M^2 + N^2) and k = pi - 4A/3 or
pi (1 - A^2/4).  A root's amplitude solves a scalar amplitude equation, and
at that A a 2x2 linear system gives (M, N), checked against the quadrature
(``recover_root``; at lam = 0, the phase-0 point of the circle of roots).
The root is asymptotically stable exactly when the Jacobian determinant is
positive and its trace negative.  Those two signed quantities are exposed as
``ineq6``/``ineq7`` (the CSV column names of the resonance reports).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import averaging, certify
from .errors import RootRecoveryFailed
from .odeint import PeriodicField

__all__ = [
    "ForcingParams", "ResonancePoint",
    "nonsmooth_vdp_field", "classical_vdp_field", "linear_test_field",
    "averaged_closed_form", "averaged_jacobian_closed_form",
    "amplitude_equation", "amplitude_equation_derivative", "amplitude_roots",
    "stability_indicators", "recover_root", "resonance_point",
    "resonance_curve", "UNFORCED_AMPLITUDE",
]

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
UNFORCED_AMPLITUDE = {"nonsmooth": 3.0 * math.pi / 4.0, "classical": 2.0}

AMP_MATCH_TOL = 1e-6          # recovered root must match the amplitude this well
DEGENERATE_BAND = 1e-9        # |indicator| below this is flagged degenerate


@dataclass(frozen=True)
class ForcingParams:
    """Detuning ``a`` and forcing amplitude ``lam`` (both dimensionless)."""

    a: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.lam)):
            raise ValueError("forcing parameters must be finite")


@dataclass(frozen=True)
class ResonancePoint:
    """One root of the averaged field on a resonance curve.

    ``phi`` is the phase with M = A sin(phi), N = A cos(phi).  ``ineq6`` and
    ``ineq7`` are the determinant-sign and trace-sign stability indicators;
    the root is stable when ineq6 > 0 and ineq7 < 0.  ``hurwitz_numeric`` is
    the independent eigenvalue verdict of ``certify.certify_hurwitz`` on the
    quadrature Jacobian: max real part below minus its noise band.
    """

    a: float
    lam: float
    A: float
    M: float
    N: float
    phi: float
    ineq6: float
    ineq7: float
    hurwitz_numeric: bool
    stable: bool
    degenerate: bool


# --- built-in fields ----------------------------------------------------------


def _slow_field(damping_scalar, damping_array, slope_scalar, slope_array,
                p: ForcingParams, kinks, name):
    a, lam = p.a, p.lam

    def floats(t, x, eps, jac=False):
        # dF/dM and dF/dN through u and u', with slope = d'(u)
        M, N = x
        s, c = math.sin(t), math.cos(t)
        u, du = M * s + N * c, M * c - N * s
        d = damping_scalar(u)
        F = -d * du - a * u + lam * s
        if not jac:
            return [F * c, -F * s]
        dd = slope_scalar(u)
        FM = -dd * s * du - d * c - a * s
        FN = -dd * c * du + d * s - a * c
        return [F * c, -F * s], [[FM * c, FN * c], [-FM * s, -FN * s]]

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        if isinstance(t, float) and x.ndim == 1:
            return np.array(floats(t, x.tolist(), eps))
        s, c = np.sin(t), np.cos(t)
        x0, x1 = x[..., 0], x[..., 1]
        u = x0 * s + x1 * c
        du = x0 * c - x1 * s
        F = -damping_array(u) * du - a * u + lam * s
        out = np.empty(np.shape(F) + (2,))
        np.multiply(F, c, out=out[..., 0])
        np.multiply(-F, s, out=out[..., 1])
        return out

    def jacobian(t, x, eps):
        M, N = float(x[0]), float(x[1])
        if isinstance(t, float):
            return np.array(floats(t, [M, N], eps, True)[1])
        s, c = np.sin(t), np.cos(t)
        u, du = M * s + N * c, M * c - N * s
        d, dd = damping_array(u), slope_array(u)
        FM = -dd * s * du - d * c - a * s
        FN = -dd * c * du + d * s - a * c
        out = np.empty(np.shape(t) + (2, 2))
        np.multiply(FM, c, out=out[..., 0, 0])
        np.multiply(FN, c, out=out[..., 0, 1])
        np.multiply(-FM, s, out=out[..., 1, 0])
        np.multiply(-FN, s, out=out[..., 1, 1])
        return out

    return PeriodicField(dim=2, period=TWO_PI, evaluate=evaluate, kinks=kinks,
                         name=name, jacobian=jacobian, floats=floats)


def nonsmooth_vdp_field(p: ForcingParams = ForcingParams()) -> PeriodicField:
    """Slow-frame field of u'' + eps(|u| - 1)u' + (1 + a*eps)u = eps*lam*sin t.

    The field is Lipschitz but not differentiable across the switching set
    u = 0; the published ``kinks`` callback returns the two times per period
    where the frozen-state integrand crosses it.  Its ``jacobian`` takes
    d'(u) = sign(u), 0 on the switching set itself.
    """

    def kinks(v, eps):
        A = math.hypot(v[0], v[1])
        if A < 1e-12:
            return ()
        phi = math.atan2(v[0], v[1])        # u = A cos(t - phi)
        return tuple(sorted(((phi + math.pi / 2) % TWO_PI,
                             (phi - math.pi / 2) % TWO_PI)))

    return _slow_field(lambda u: abs(u) - 1.0, lambda u: np.abs(u) - 1.0,
                       lambda u: (u > 0) - (u < 0), np.sign, p, kinks, "nonsmooth_vdp")


def classical_vdp_field(p: ForcingParams = ForcingParams()) -> PeriodicField:
    """Slow-frame field of u'' + eps(u^2 - 1)u' + (1 + a*eps)u = eps*lam*sin t."""
    damping, slope = (lambda u: u * u - 1.0), (lambda u: 2.0 * u)
    return _slow_field(damping, damping, slope, slope, p, None, "classical_vdp")


def linear_test_field() -> PeriodicField:
    """1-d benchmark x' = eps(-x + cos t): closed-form periodic response.

    The periodic solution starts at eps^2/(1 + eps^2) and the period map
    contracts by exp(-2*pi*eps); averaged field -2*pi*v with root 0.
    """

    def floats(t, x, eps, jac=False):
        g = [math.cos(t) - x[0]]
        return (g, [[-1.0]]) if jac else g

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        if isinstance(t, float) and x.ndim == 1:
            return np.array(floats(t, x.tolist(), eps))
        return (np.cos(t) - x[..., 0])[..., None]

    return PeriodicField(dim=1, period=TWO_PI, evaluate=evaluate,
                         name="linear_test",
                         jacobian=lambda t, x, eps: np.full(np.shape(t) + (1, 1), -1.0),
                         floats=floats)


# --- closed-form averaged data (test oracles and fast paths) -------------------


def _k(model: str, A: float) -> Tuple[float, float]:
    """(k, dk/dA), where avg = k(A) (M, N) + detuning and forcing terms."""
    if model == "nonsmooth":
        return math.pi - (4.0 / 3.0) * A, -(4.0 / 3.0)
    if model == "classical":
        return math.pi * (1.0 - A * A / 4.0), -math.pi * A / 2.0
    raise ValueError(f"unknown model {model!r}")


def averaged_closed_form(model: str, M: float, N: float, a: float,
                         lam: float) -> np.ndarray:
    """Exact one-period average of the slow field (independent of quadrature)."""
    k, _ = _k(model, math.hypot(M, N))
    return np.array([M * k - a * math.pi * N,
                     N * k + a * math.pi * M - lam * math.pi])


def averaged_jacobian_closed_form(model: str, M: float, N: float,
                                  a: float) -> np.ndarray:
    A = math.hypot(M, N)
    k, dk = _k(model, A)
    if A == 0.0:            # A*(M, N) and A^2*(M, N) are O(|v|^2) there
        gMM, gMN, gNN = k, 0.0, k
    else:
        gMM, gMN, gNN = k + dk * M * M / A, dk * M * N / A, k + dk * N * N / A
    return np.array([[gMM, gMN - a * math.pi],
                     [gMN + a * math.pi, gNN]])


# --- amplitude equation ---------------------------------------------------------


def _detune_sq(model: str, A: float, a: float) -> float:
    if model == "nonsmooth":
        return a * a + (1.0 - 4.0 * abs(A) / (3.0 * math.pi)) ** 2
    if model == "classical":
        return a * a + (1.0 - A * A / 4.0) ** 2
    raise ValueError(f"unknown model {model!r}")


def amplitude_equation(model: str, A, a: float, lam: float):
    """Residual of A^2 * (a^2 + detune^2) = lam^2 at a float or array A."""
    return A * A * _detune_sq(model, A, a) - lam * lam


def amplitude_equation_derivative(model: str, A: float, a: float) -> float:
    if model == "nonsmooth":
        c = 4.0 / (3.0 * math.pi)
        return 2.0 * A * _detune_sq(model, A, a) \
            - 2.0 * c * A * A * (1.0 - c * A)
    return 2.0 * A * _detune_sq(model, A, a) - A ** 3 * (1.0 - A * A / 4.0)


def _bisect(fun, lo, hi, tol=1e-15, max_iter=200):
    flo = fun(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def amplitude_roots(model: str, a: float, lam: float,
                    n_scan: int = 2048) -> List[float]:
    """All positive amplitudes solving the resonance equation at (a, lam).

    Simple roots come from a sign scan over one array evaluation of the
    equation plus scalar bisection in each bracket; tangential (double)
    roots -- the whole curve at lam = 0, folds in general -- are picked up as
    touching minima and polished on the analytic derivative.  The trivial
    A = 0 solution at lam = 0 is excluded: it is the non-oscillating branch.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    base = UNFORCED_AMPLITUDE[model] if model in UNFORCED_AMPLITUDE else 2.0
    a_max = base + lam + abs(a) + 1.0
    grid = np.linspace(0.0, a_max, n_scan + 1)
    vals = amplitude_equation(model, grid, a, lam)
    scale = max(1.0, lam * lam, float(np.max(np.abs(vals))))
    roots: List[float] = []

    def push(A):
        if A > 1e-9 * a_max and all(abs(A - r) > 1e-8 * a_max for r in roots):
            roots.append(A)

    zero = vals[:-1] == 0.0
    cross = (vals[:-1] < 0) != (vals[1:] < 0)
    for i in np.flatnonzero(zero | cross):
        if zero[i]:
            push(grid[i])
        if cross[i]:
            push(_bisect(lambda A: amplitude_equation(model, A, a, lam),
                         grid[i], grid[i + 1]))
    # touching minima: polish the derivative zero, then require the value to
    # vanish (a genuine double root lands at machine level; a mere dip does not)
    mid = vals[1:-1]
    dips = (mid <= vals[:-2]) & (mid <= vals[2:]) & (np.abs(mid) <= 1e-4 * scale)
    d = lambda A: amplitude_equation_derivative(model, A, a)
    for i in np.flatnonzero(dips) + 1:
        if (d(grid[i - 1]) < 0) != (d(grid[i + 1]) < 0):
            A = _bisect(d, grid[i - 1], grid[i + 1])
            if abs(amplitude_equation(model, A, a, lam)) <= 1e-10 * scale:
                push(A)
    return sorted(roots)


# --- stability indicators -------------------------------------------------------


def stability_indicators(model: str, amp_sq: float, a: float) -> Tuple[float, float]:
    """(ineq6, ineq7) at squared amplitude M^2 + N^2.

    ineq6 is the determinant of the averaged Jacobian (up to the positive
    factor pi^2 in the classical normalization), ineq7 its trace; stability
    is ineq6 > 0 and ineq7 < 0.  Expressions are evaluated verbatim in the
    conventional printed form for each model.
    """
    amp = math.sqrt(amp_sq)
    if model == "nonsmooth":
        i6 = math.pi ** 2 * (1.0 + a * a) + (32.0 / 9.0) * amp_sq \
            - 4.0 * math.pi * amp
        i7 = 2.0 * (math.pi - 2.0 * amp)
        return i6, i7
    if model == "classical":
        i6 = 1.0 + a * a - amp_sq + (3.0 / 16.0) * amp_sq * amp_sq
        i7 = 2.0 - amp_sq
        return i6, i7
    raise ValueError(f"unknown model {model!r}")


# --- root recovery and resonance curves ----------------------------------------

def _field_for(model: str, a: float, lam: float) -> PeriodicField:
    p = ForcingParams(a, lam)
    return nonsmooth_vdp_field(p) if model == "nonsmooth" else classical_vdp_field(p)


def recover_root(model: str, a: float, lam: float, A: float,
                 root_tol: float = 1e-10) -> averaging.RootResult:
    """Full (M, N) root of the averaged field matching amplitude A.

    At fixed A the averaged field is linear in (M, N):  with k = k(A) and
    d = k^2 + a^2 pi^2, the root is M = a*pi * lam*pi / d, N = k * lam*pi / d.
    At lam = 0 the roots (a = 0 only) form a circle; its phase-0 point (0, A)
    is returned.  ``RootRecoveryFailed`` is raised unless |(M, N)| matches A
    within ``AMP_MATCH_TOL`` and the quadrature residual is at most
    ``root_tol``.  The result carries the closed-form Jacobian.
    """
    k, _ = _k(model, A)
    d = k * k + (a * math.pi) ** 2
    M, N = (0.0, A) if lam == 0.0 or d == 0.0 else \
        (a * math.pi * lam * math.pi / d, k * lam * math.pi / d)
    v = np.array([M, N])
    res = float(np.linalg.norm(averaging.averaged_function(_field_for(model, a, lam), v)))
    if not (abs(math.hypot(M, N) - A) <= AMP_MATCH_TOL and res <= root_tol):
        raise RootRecoveryFailed(a, A, f"no averaged-field root with amplitude {A:.6g} "
                                 f"at a={a:.6g}: closed form {v}, residual {res:.3e}")
    return averaging.RootResult(v, res, 0, True,
                                averaged_jacobian_closed_form(model, M, N, a))


def resonance_point(model: str, a: float, lam: float, A: float) -> ResonancePoint:
    """Assemble the full resonance record for one amplitude root."""
    r = recover_root(model, a, lam, A)
    M, N = float(r.v0[0]), float(r.v0[1])
    amp = math.hypot(M, N)
    i6, i7 = stability_indicators(model, amp * amp, a)
    # independent eigenvalue verdict, as `certify` gives it: at a = lam = 0 the
    # phase eigenvalue is 0, which the noise band reads as not Hurwitz
    hurwitz = certify.certify_hurwitz(_field_for(model, a, lam), r.v0).hurwitz
    stable = (i6 > 0.0) and (i7 < 0.0)
    degenerate = abs(i6) <= DEGENERATE_BAND or abs(i7) <= DEGENERATE_BAND
    return ResonancePoint(a=a, lam=lam, A=amp, M=M, N=N,
                          phi=math.atan2(M, N), ineq6=i6, ineq7=i7,
                          hurwitz_numeric=hurwitz, stable=stable,
                          degenerate=degenerate)


def resonance_curve(model: str, lam: float, a_range, n: int) -> List[ResonancePoint]:
    """Resonance curve of `model` ("nonsmooth" or "classical") over a detuning
    grid of `n` points on `a_range`; a row whose root recovery fails is logged
    and left out."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a_lo, a_hi = float(a_range[0]), float(a_range[1])
    if a_hi < a_lo:
        raise ValueError("a range must satisfy lo <= hi")
    grid = np.linspace(a_lo, a_hi, n) if n > 1 else np.array([a_lo])
    points: List[ResonancePoint] = []
    for a in grid.tolist():
        for A in amplitude_roots(model, a, lam):
            try:
                points.append(resonance_point(model, a, lam, A))
            except RootRecoveryFailed as exc:
                log.warning("root recovery failed: %s", exc)
    return points
