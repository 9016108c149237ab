"""Dynamic verification: periodic solutions as fixed points of the period map.

``find_periodic`` runs a damped Newton iteration on P(v) - v where P is the
Poincare (period) map, with a finite-difference Jacobian: the field may be
only Lipschitz, so variational equations are not assumed to exist, but the
flow itself is Lipschitz and differentiates cleanly through quadrature-grade
integration; its 2k perturbed states share one batched step sequence.
Floquet multipliers are the eigenvalues of the FD Jacobian of P at the fixed
point.

Which ensemble flows share a step grid: ``poincare_jacobian`` and
``measure_contraction`` do, because FD columns and close pairs need
correlated integration errors that cancel in their differences.
``basin_probe`` does not: its starts are independent, a shared grid would
have to resolve the corners of every one of them, and with its own step
sizes each start costs only the steps it needs.

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

from . import smalllin
from .errors import MaxIterations, Singular, SingularJacobian, SlowflowError
from .odeint import IntegratorConfig, PeriodicField, flow_batch, poincare_map

__all__ = [
    "PeriodicOrbitResult", "SweepEntry", "SweepResult",
    "find_periodic", "poincare_jacobian", "eps_sweep",
    "measure_contraction", "basin_probe",
    "ORBITAL_NOTE", "PHASE_BAND",
]

ORBITAL_NOTE = "orbitally stable cycle (phase-neutral)"
PHASE_BAND = 1e-4            # |mult| within this of 1 counts as the phase direction
STABLE_MARGIN = 1e-9

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

    @property
    def results(self) -> List[PeriodicOrbitResult]:
        return [e.result for e in self.entries if e.result is not None]


def poincare_jacobian(f: PeriodicField, v, eps: float,
                      cfg: IntegratorConfig = IntegratorConfig(),
                      fd_step: Optional[float] = None) -> np.ndarray:
    """Central-difference Jacobian of the period map at v.

    The states v +- h*e_j are flowed as one batch, so all columns share one
    step sequence and its noise cancels in the differences.
    """
    v = np.asarray(v, dtype=float)
    k = f.dim
    if eps == 0.0:
        return np.eye(k)
    h = fd_step if fd_step is not None else 1e-7 * (1.0 + float(np.linalg.norm(v)))
    E = h * np.eye(k)
    X = flow_batch(f, 0.0, f.period, np.concatenate([v + E, v - E]), eps, cfg)
    return (X[:k] - X[k:]).T / (2.0 * h)


def _phase_pattern(mults, band: float) -> bool:
    """Exactly one multiplier of unit magnitude (within band), rest inside."""
    mags = np.abs(mults)
    near_one = np.abs(mags - 1.0) <= band
    inside = mags < 1.0 - band
    return int(np.sum(near_one)) == 1 and int(np.sum(inside)) == len(mults) - 1


def find_periodic(f: PeriodicField, v0_guess, eps: float,
                  cfg: IntegratorConfig = _ORBIT_CFG,
                  tol: float = 1e-10, max_iter: int = 50,
                  newton_fd_scale: float = 1e-7,
                  multiplier_fd_scale: float = 1e-3,
                  v0=None,
                  phase_band: float = PHASE_BAND) -> PeriodicOrbitResult:
    """Newton iteration on P(v) - v from `v0_guess` at fixed eps > 0.

    `v0` (when given) is the averaged-field root used for the reported
    distance; it defaults to the initial guess.  The Newton Jacobian uses a
    small FD step (accuracy only affects convergence speed); the multiplier
    Jacobian uses a larger one so integrator noise does not leak into the
    reported Floquet multipliers.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    v = np.asarray(v0_guess, dtype=float).copy()
    ref = np.asarray(v0 if v0 is not None else v0_guess, dtype=float)
    Fv = poincare_map(f, v, eps, cfg) - v
    res = float(np.linalg.norm(Fv))
    for it in range(1, max_iter + 1):
        if res <= tol:
            return _finish(f, v, eps, cfg, res, ref, it - 1, True,
                           multiplier_fd_scale, phase_band)
        h = newton_fd_scale * (1.0 + float(np.linalg.norm(v)))
        DP = poincare_jacobian(f, v, eps, cfg, fd_step=h)
        J = DP - np.eye(f.dim)
        # plain Newton step, and a truncated pseudo-inverse step that moves
        # only in the well-conditioned directions; the truncated one goes
        # first when it drops a (neutral phase) direction, where the plain
        # step would creep along the invariant circle instead of stalling
        truncated, dropped = _truncated_step(J, Fv)
        steps = []
        try:
            steps.append(smalllin.solve(J, -Fv))
        except Singular:
            pass
        steps.insert(0 if dropped else len(steps), truncated)
        if all(float(np.max(np.abs(s))) == 0.0 for s in steps):
            raise SingularJacobian(f"period-map Jacobian singular at {v}")
        improved = False
        for step in steps:
            lam_d = 1.0
            for _ in range(9):
                v_try = v + lam_d * step
                F_try = poincare_map(f, v_try, eps, cfg) - v_try
                r_try = float(np.linalg.norm(F_try))
                # Armijo-style: a damped step must still buy a decrease
                # proportional to its length, else floor wiggles get
                # accepted forever
                if r_try <= res * (1.0 - 0.1 * lam_d):
                    v, Fv, res = v_try, F_try, r_try
                    improved = True
                    break
                lam_d *= 0.5
            if improved:
                break
        if not improved:
            # the damped residual is monotone, so a failed line search means
            # we sit at the residual floor: either the phase-neutral cycle
            # of a self-oscillator, or a genuine failure
            r = _finish(f, v, eps, cfg, res, ref, it, False,
                        multiplier_fd_scale, phase_band)
            if r.orbitally_stable:
                return r
            raise MaxIterations(
                f"Newton stalled at residual {res:.3e} (> tol {tol:g}) with "
                f"no phase-neutral multiplier pattern"
            )
    r = _finish(f, v, eps, cfg, res, ref, max_iter, res <= tol,
                multiplier_fd_scale, phase_band)
    if r.converged or r.orbitally_stable:
        return r
    raise MaxIterations(f"no fixed point after {max_iter} iterations "
                        f"(residual {res:.3e})")


def _truncated_step(J, Fv, trunc_ratio: float = 1e-2):
    """Truncated-SVD Newton step -pinv_r(J) Fv, and whether it dropped a
    direction.

    LAPACK ``gelsd`` (``numpy.linalg.lstsq``) zeroes every singular value
    sigma <= trunc_ratio * sigma_max, whose content is FD noise; working on J
    itself rather than J'J keeps the condition number unsquared.
    """
    step, _, rank, _ = np.linalg.lstsq(J, -Fv, rcond=trunc_ratio)
    return step, bool(rank < J.shape[1])


def _finish(f, v, eps, cfg, res, ref, iters, converged, mult_scale, band):
    DP = poincare_jacobian(f, v, eps, cfg,
                           fd_step=mult_scale * (1.0 + float(np.linalg.norm(v))))
    mults = smalllin.eigenvalues(DP).values
    mags = np.abs(mults)
    # a multiplier inside the phase band is indistinguishable from unit
    # magnitude at FD resolution, so it cannot support a strict stability
    # verdict even when the iteration converged to an exact fixed point
    phase_neutral = _phase_pattern(mults, band)
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
              tol: float = 1e-10, **kwargs) -> SweepResult:
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
            r = find_periodic(f, guess, eps, cfg, tol=tol, v0=v0, **kwargs)
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
