"""Dynamic verification: periodic solutions as fixed points of the period map.

``find_periodic`` runs the damped Newton loop of ``newton.solve`` on
P(v) - v where P is the Poincare (period) map.  Its Jacobian DP solves the
variational equation Phi' = eps*(dg/dx)*Phi (``variational_map``): g is
piecewise differentiable and continuous across switching sets that flows
cross transversally, so P is C^1.  dg/dx is the field's ``jacobian``, or a
central difference of ``evaluate`` for a field without one.  The start and
the first trial of each Newton iteration flow Phi with the state;
backtracked trials use the plain map.  The Floquet multipliers are the
eigenvalues of Phi at the returned point.

Which ensemble flows share a step grid: ``measure_contraction`` does,
because close pairs need correlated integration errors that cancel in their
differences.  ``basin_probe`` does not: its starts are independent, a shared
grid would have to resolve the corners of every one of them, and with its
own step sizes each start costs only the steps it needs.

An unforced self-oscillator has no exact fixed point of the 2*pi map: its own
period differs from 2*pi at order eps^2 and the map instead carries an
attracting invariant circle (one neutral phase direction).  Newton then stalls
at a small residual floor; when the multiplier pattern at the stall point
shows exactly one unit-magnitude multiplier and the rest strictly inside the
unit circle, the result is reported as an orbitally stable cycle rather than
an error.  Newton tries the truncated step first whenever it drops a
direction, so it stalls on the circle instead of creeping along it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import newton, smalllin
from .errors import MaxIterations, Singular, SingularJacobian, SlowflowError
from .odeint import (IntegratorConfig, PeriodicField, flow_batch, poincare_map,
                     variational_map)

__all__ = [
    "PeriodicOrbitResult", "SweepEntry", "SweepResult",
    "find_periodic", "eps_sweep",
    "measure_contraction", "basin_probe",
    "ORBITAL_NOTE", "PHASE_BAND",
]

ORBITAL_NOTE = "orbitally stable cycle (phase-neutral)"
PHASE_BAND = 1e-4            # |mult| within this of 1 counts as the phase direction
STABLE_MARGIN = 1e-9
TRUNC_RATIO = 1e-2           # truncated step drops sigma <= ratio * sigma_max

# fixed-point residuals are driven to 1e-10, so the map itself is integrated
# well below that; the package-wide 1e-10 default would put integrator jitter
# right at the Newton target
_ORBIT_CFG = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)


@dataclass
class PeriodicOrbitResult:
    """Fixed point of the period map at one eps (or stall point on a cycle)."""

    eps: float
    v_star: np.ndarray
    residual: float
    multipliers: np.ndarray            # complex, sorted by (re, im)
    stable: bool
    dist_to_v0: float
    converged: bool
    iterations: int
    note: str = ""

    @property
    def orbitally_stable(self) -> bool:
        return self.note == ORBITAL_NOTE


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
                  cfg: IntegratorConfig = _ORBIT_CFG,
                  tol: float = 1e-10, v0=None) -> PeriodicOrbitResult:
    """Damped Newton (``newton.solve``) on P(v) - v from `v0_guess`, eps > 0.

    `v0` (when given) is the averaged-field root used for the reported
    distance; it defaults to the initial guess.  A stall is returned as an
    orbitally stable cycle when its multipliers are phase-neutral.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    ref = np.asarray(v0 if v0 is not None else v0_guess, dtype=float)
    # the start and the first trial of each iteration flow Phi along: an
    # accepted full step then brings its own DP, and only backtracked trials,
    # cheaper on the scalar map, leave it to be flowed
    fresh, at, Phi = True, None, None

    def F(v):
        nonlocal fresh, at, Phi
        if not fresh:
            return poincare_map(f, v, eps, cfg) - v
        fresh = False
        P, Phi = variational_map(f, v, eps, cfg)
        at = v.copy()
        return P - v

    def DP(v):
        nonlocal at, Phi
        if not np.array_equal(v, at):
            at, Phi = v.copy(), variational_map(f, v, eps, cfg)[1]
        return Phi

    def steps(v, Fv):
        nonlocal fresh
        J = DP(v) - np.eye(f.dim)
        fresh = True
        # plain Newton step, and a truncated pseudo-inverse step that moves
        # only in the well-conditioned directions; the truncated one goes
        # first when it drops a (neutral phase) direction, where the plain
        # step would creep along the invariant circle instead of stalling
        truncated, dropped = _truncated_step(J, Fv)
        try:
            plain = [smalllin.solve(J, -Fv)]
        except Singular:
            plain = []
        out = [truncated] + plain if dropped else plain + [truncated]
        if not any(np.any(s) for s in out):
            raise SingularJacobian(f"period-map Jacobian singular at {v}")
        return out

    v, _, res, iters, stop = newton.solve(F, v0_guess, tol, steps)
    r = _finish(DP(v), v, eps, res, ref, iters,
                stop == "converged")
    if r.converged or r.orbitally_stable:
        return r
    raise MaxIterations(f"Newton {stop} at residual {res:.3e} (> tol {tol:g}) after "
                        f"{iters} iterations, multipliers not phase-neutral")


def _truncated_step(J, Fv):
    """Truncated-SVD Newton step -pinv_r(J) Fv, and whether it dropped a
    direction.

    LAPACK ``gelsd`` (``numpy.linalg.lstsq``) zeroes every singular value
    sigma <= TRUNC_RATIO * sigma_max, whose content is noise; working on J
    itself rather than J'J keeps the condition number unsquared.
    """
    step, _, rank, _ = np.linalg.lstsq(J, -Fv, rcond=TRUNC_RATIO)
    return step, bool(rank < J.shape[1])


def _finish(DP, v, eps, res, ref, iters, converged):
    mults = smalllin.eigenvalues(DP).values
    mags = np.abs(mults)
    # exactly one multiplier of unit magnitude (within the band), the rest
    # inside; a multiplier in the band is indistinguishable from unit
    # magnitude at solver resolution, so it cannot support a strict stability
    # verdict even when the iteration converged to an exact fixed point
    phase_neutral = (int(np.sum(np.abs(mags - 1.0) <= PHASE_BAND)) == 1 and
                     int(np.sum(mags < 1.0 - PHASE_BAND)) == len(mults) - 1)
    stable = (converged and not phase_neutral
              and bool(np.all(mags < 1.0 - STABLE_MARGIN)))
    note = ORBITAL_NOTE if phase_neutral else ""
    return PeriodicOrbitResult(
        eps=eps, v_star=v, residual=res, multipliers=mults, stable=stable,
        dist_to_v0=float(np.linalg.norm(v - ref)), converged=converged,
        iterations=iters, note=note,
    )


def eps_sweep(f: PeriodicField, v0, eps_list: Sequence[float],
              cfg: IntegratorConfig = _ORBIT_CFG,
              tol: float = 1e-10) -> SweepResult:
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
    v0 = np.asarray(v0, dtype=float)
    guess = v0.copy()
    entries: List[SweepEntry] = []
    for eps in eps_list:
        try:
            r = find_periodic(f, guess, eps, cfg, tol=tol, v0=v0)
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
    v_star = np.asarray(v_star, dtype=float)
    rng = np.random.default_rng(seed)
    k = f.dim
    W = np.eye(k) if norm_matrix is None else smalllin.cholesky(np.asarray(norm_matrix)).T
    pairs = v_star + radius * _ball_batch(rng, 2 * n_pairs, k)
    if eps == 0.0:
        out = pairs
    else:
        out = flow_batch(f, 0.0, f.period, pairs, eps, cfg)
    a_in, b_in = pairs[:n_pairs], pairs[n_pairs:]
    a_out, b_out = out[:n_pairs], out[n_pairs:]
    den = np.linalg.norm((a_in - b_in) @ W.T, axis=1)
    num = np.linalg.norm((a_out - b_out) @ W.T, axis=1)
    keep = den > 1e-12
    return float(np.max(num[keep] / den[keep]))


def _ball_batch(rng, n, k):
    x = rng.standard_normal((n, k))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = rng.uniform(size=(n, 1)) ** (1.0 / k)
    return x / norms * r


def _flow_or_nan(f: PeriodicField, X, eps: float, cfg: IntegratorConfig):
    """One period of every row of X; if that raises, each row is flowed alone."""
    try:
        return flow_batch(f, 0.0, f.period, X, eps, cfg, shared_steps=False)
    except SlowflowError:
        return (np.full_like(X, np.nan) if len(X) == 1 else
                np.vstack([_flow_or_nan(f, x[None], eps, cfg) for x in X]))


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
    v_star = np.asarray(v_star, dtype=float)
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
        Y = _flow_or_nan(f, X[live], eps, cfg)
        entered[live] = dist(Y) <= capture_radius     # NaN rows compare False
        X[live] = Y
        live = live[~entered[live] & ~np.isnan(Y[:, 0])]
    return float(np.mean(entered))
