"""Dynamic verification: periodic solutions as fixed points of the period map.

``find_periodic`` runs the package's one damped Newton loop and driver, as
the one-row ``newton.solve``, on P(v) - v where P is the Poincare (period)
map.  Its Jacobian DP solves the variational equation Phi' = eps*(dg/dx)*Phi
(``variational_map``): g is piecewise differentiable and continuous across
switching sets that flows cross transversally, so P is C^1.  dg/dx is the
field's ``jacobian``, or a central difference of ``evaluate`` for a field
without one.  Every trial flows Phi with the state, and the Newton Jacobian
and the Floquet multipliers (the eigenvalues of Phi) are read off the flow of
the last point tried, where ``newton.solve`` asks for them.

Which ensemble flows share a step grid: ``measure_contraction`` does,
because close pairs need correlated integration errors that cancel in their
differences.  ``basin_probe`` does not: its starts are independent, a shared
grid would have to resolve the corners of every one of them, and with its
own step sizes each start costs only the steps it needs.  A batch whose flow
raises is flowed row by row by the package's one rule for stacks
(``errors.each_row``), so one start's failure touches no other.

An unforced self-oscillator has no fixed point of the 2*pi map (its period
differs from 2*pi at order eps^2), but its field commutes with the rotation
R(s): g(t + s, R(s)x) = R(s)g(t, x).  For such a field Newton solves
x(T + tau; v) = R(tau)v and <v - v_guess, S v_guess> = 0, S = R'(0), in
(v, tau) (Seydel, *Practical Bifurcation and Stability Analysis*, 3rd ed.,
2010, ch. 7; Viswanath, J. Fluid Mech. 580, 2007), and the multipliers are
those of R(-tau)Phi; on a cycle one of them is the neutral phase multiplier 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import newton, smalllin
from .errors import SlowflowError, each_row
from .odeint import IntegratorConfig, PeriodicField, flow_batch, variational_map

__all__ = [
    "PeriodicOrbitResult", "SweepEntry", "SweepResult",
    "find_periodic", "eps_sweep",
    "measure_contraction", "basin_probe",
]

STABLE_MARGIN = 1e-9
_S = np.array([[0.0, 1.0], [-1.0, 0.0]])       # R(s) = exp(s*S)
# rotation-check samples, one per row: time t, shift s, offset of x from v
_ROTATION_SAMPLES = np.array([[0.3, 0.7, 0.4, -0.2], [2.1, 2.6, -0.3, 0.5],
                              [4.4, 5.1, 0.1, 0.3]])

# fixed-point residuals are driven to _TOL, so the map itself is integrated
# well below that; the package-wide 1e-10 default would put integrator jitter
# right at the Newton target
_TOL = 1e-10
_ORBIT_CFG = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)


@dataclass
class PeriodicOrbitResult:
    """Periodic orbit through v_star at one eps; a cycle of a rotation-commuting
    field off the origin can be `orbitally_stable`, never `stable`."""

    eps: float
    v_star: np.ndarray
    residual: float
    multipliers: np.ndarray            # complex, sorted by (re, im)
    stable: bool
    dist_to_v0: float
    converged: bool
    iterations: int
    period: float
    orbitally_stable: bool


@dataclass(frozen=True)
class SweepEntry:
    eps: float
    result: Optional[PeriodicOrbitResult]
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Chain of periodic orbits over decreasing eps with fitted approach order."""

    entries: Tuple[SweepEntry, ...]
    order: Optional[float]             # least-squares slope of log dist vs log eps


def find_periodic(f: PeriodicField, v0_guess, eps: float,
                  cfg: IntegratorConfig = _ORBIT_CFG, v0=None) -> PeriodicOrbitResult:
    """Damped Newton (``newton.solve``) on P(v) - v from `v0_guess`, eps > 0,
    or on the relative-orbit equations in (v, tau) for a field that commutes
    with the slow-frame rotation.

    `v0` (when given) is the averaged-field root used for the reported
    distance; it defaults to the initial guess.  ``newton.solve`` raises
    ``SingularJacobian`` or ``MaxIterations`` when the solve fails.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    if not np.all(np.isfinite(v0_guess)):
        raise ValueError("v0_guess must be finite")
    guess = np.asarray(v0_guess, dtype=float)
    ref = np.asarray(v0, dtype=float) if v0 is not None else guess
    k, T = f.dim, f.period
    rel = _commutes_with_rotation(f, guess, eps)
    phase_row = _S @ guess if rel else None
    xPhi = None         # (x, Phi) flowed from the last point F saw

    def split(z):
        return (z[:k], z[k]) if rel else (z, 0.0)

    def F(z):
        nonlocal xPhi
        v, tau = split(z)
        xPhi = variational_map(f, v, eps, cfg, T + tau)
        if not rel:
            return xPhi[0] - v
        return np.append(xPhi[0] - _rotation(tau) @ v, (v - guess) @ phase_row)

    def jac(z):         # newton.solve calls it where F was last evaluated
        (v, tau), (x, Phi) = split(z), xPhi
        J = Phi - (_rotation(tau) if rel else np.eye(k))
        if rel:     # the tau column: d/dtau of x(T + tau; v) - R(tau)v, R' = SR
            dtau = eps * np.asarray(f.evaluate(T + tau, x, eps)) - _S @ _rotation(tau) @ v
            J = np.block([[J, dtau[:, None]], [phase_row, 0.0]])
        return J

    z, _, res, iters = newton.solve(F, jac, np.append(guess, 0.0) if rel else guess, _TOL)
    (v, tau), Phi = split(z), xPhi[1]
    mults = smalllin.eigenvalues(_rotation(-tau) @ Phi if rel else Phi).values
    inside = np.abs(mults) < 1.0 - STABLE_MARGIN
    # a cycle's phase direction, the multiplier nearest 1, is neutral; the
    # origin is a relative equilibrium with none
    cycle = rel and float(np.linalg.norm(v)) > _TOL
    if cycle:
        inside[np.argmin(np.abs(mults - 1.0))] = True
    return PeriodicOrbitResult(
        eps=eps, v_star=v, residual=res, multipliers=mults,
        stable=not cycle and bool(np.all(inside)),
        dist_to_v0=float(np.linalg.norm(v - ref)), converged=True,
        iterations=iters, period=T + tau,
        orbitally_stable=cycle and bool(np.all(inside)))


def _rotation(s):
    c, sn = np.cos(s), np.sin(s)
    return np.array([[c, sn], [-sn, c]])


def _commutes_with_rotation(f: PeriodicField, v, eps: float) -> bool:
    """Whether g(t + s, R(s)x) = R(s)g(t, x) to a relative 1e-9 at three fixed
    (t, s, x), x near v: the unforced built-ins miss by 4.4e-16 at most, the
    forced nonsmooth oscillator at a = 0.1, lam = 1 by 1.7."""
    if f.dim != 2:
        return False
    RG, H = [], []
    try:
        for t, s, *d in _ROTATION_SAMPLES:
            R, x = _rotation(s), v + (1.0 + float(np.linalg.norm(v))) * np.array(d)
            RG.append(R @ np.asarray(f.evaluate(t, x, eps), dtype=float))
            H.append(np.asarray(f.evaluate(t + s, R @ x, eps), dtype=float))
    except SlowflowError:
        return False
    return bool(np.linalg.norm(np.subtract(H, RG)) <= 1e-9 * np.linalg.norm(RG))


def eps_sweep(f: PeriodicField, v0, eps_list: Sequence[float],
              cfg: IntegratorConfig = _ORBIT_CFG) -> SweepResult:
    """Chain `find_periodic` over decreasing eps with warm starts.

    The fixed point at each eps seeds the next (staying on one solution
    branch); the approach order p of dist_to_v0 ~ C*eps^p is fitted by least
    squares on the successful entries.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError("eps_list needs at least 3 values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if not all(0.0 < e < np.inf for e in eps_list):
        raise ValueError("eps must be positive and finite")
    v0 = np.asarray(v0, dtype=float)
    guess = v0.copy()
    entries: List[SweepEntry] = []
    for eps in eps_list:
        try:
            r = find_periodic(f, guess, eps, cfg, v0=v0)
            entries.append(SweepEntry(eps, r))
            guess = r.v_star.copy()
        except SlowflowError as exc:
            entries.append(SweepEntry(eps, None, error=str(exc)))
    pts = [(e.eps, e.result.dist_to_v0) for e in entries
           if e.result is not None and e.result.dist_to_v0 > 0]
    order = None
    if len(pts) >= 2:
        lx = np.log([p[0] for p in pts])
        ly = np.log([p[1] for p in pts])
        order = float(np.polyfit(lx, ly, 1)[0])
    return SweepResult(tuple(entries), order)


def measure_contraction(f: PeriodicField, v_star, eps: float,
                        radius: float, n_pairs: int = 100,
                        norm_matrix=None, seed: int = 0,
                        cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Sampled Lipschitz constant of the period map near v_star.

    Pairs are drawn in B_radius(v_star) and flowed as one batch on a shared
    step grid, so the integration errors of a close pair are correlated and
    cancel in its difference; the ratio is measured in the Lyapunov norm when
    `norm_matrix` (P) is given, else Euclidean.  At eps = 0 the map is the
    identity and the factor is 1.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    v_star = np.asarray(v_star, dtype=float)
    if not np.all(np.isfinite(v_star)):
        raise ValueError("v_star must be finite")
    rng = np.random.default_rng(seed)
    k = f.dim
    W = np.eye(k) if norm_matrix is None else smalllin.cholesky(np.asarray(norm_matrix)).T
    pairs = v_star + radius * _ball_batch(rng, 2 * n_pairs, k)
    den = np.linalg.norm((pairs[:n_pairs] - pairs[n_pairs:]) @ W.T, axis=1)
    keep = den > 1e-12
    if not keep.any():
        raise ValueError("radius too small: no pair lies 1e-12 apart")
    out = pairs if eps == 0.0 else flow_batch(f, 0.0, f.period, pairs, eps, cfg)
    num = np.linalg.norm((out[:n_pairs] - out[n_pairs:]) @ W.T, axis=1)
    return float(np.max(num[keep] / den[keep]))


def _ball_batch(rng, n, k):
    x = rng.standard_normal((n, k))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = rng.uniform(size=(n, 1)) ** (1.0 / k)
    return x / norms * r


def basin_probe(f: PeriodicField, v_star, eps: float, radius: float,
                n_starts: int = 100, n_periods: int = 500,
                capture_radius: float = 1e-6, seed: int = 0,
                orbital: bool = False,
                cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Fraction of random starts in B_radius(v_star) attracted to the orbit.

    A start counts once its period-map iterates enter the capture ball around
    v_star -- or, for an orbitally stable cycle, once its distance to the
    invariant circle |v| = |v_star| drops below the capture radius.  A start
    that escapes (blows up, underflows its step, or makes its flow raise on
    its own) counts as not attracted.

    Each period flows only the starts not yet captured or escaped, every one
    on its own step sizes (``flow_batch(..., shared_steps=False)``): a shared
    grid would have to resolve the corners of every member, and a member's
    result does not depend on the rest of the batch, so dropping the settled
    starts changes nothing.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    v_star = np.asarray(v_star, dtype=float)
    if not np.all(np.isfinite(v_star)):
        raise ValueError("v_star must be finite")
    rng = np.random.default_rng(seed)
    X = v_star + radius * _ball_batch(rng, n_starts, f.dim)
    r_star = float(np.linalg.norm(v_star))

    def dist(Y):
        if orbital:
            return np.abs(np.linalg.norm(Y, axis=1) - r_star)
        return np.linalg.norm(Y - v_star, axis=1)

    entered = dist(X) <= capture_radius
    live = np.flatnonzero(~entered)
    for _ in range(n_periods):
        if live.size == 0:
            break
        Y = np.array([np.full(f.dim, np.nan) if isinstance(y, SlowflowError) else y
                      for y in each_row(lambda S: flow_batch(f, 0.0, f.period, S, eps, cfg,
                                                             shared_steps=False), X[live])])
        entered[live] = dist(Y) <= capture_radius     # NaN rows compare False
        X[live] = Y
        live = live[~entered[live] & ~np.isnan(Y[:, 0])]
    return float(np.mean(entered))
