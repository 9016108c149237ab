"""The averaged field: one-period quadrature, its FD Jacobian, and root finding.

For a T-periodic field g the averaged field at frozen state v is

    avg(v) = integral over [0, T] of g(tau, v, 0) dtau,

computed by composite Simpson quadrature.  When the field publishes its
switching times (``field.kinks``), panel boundaries are aligned with them so
each panel integrates a smooth piece and the full O(h^4) rate is retained;
without that metadata a corner inside a panel costs O(h^2) locally and the
caller should raise ``n_nodes`` accordingly.

Zeros of the averaged field are the candidate initial points of periodic
solutions of x' = eps*g; they are located by a damped Newton iteration on the
quadrature values with a central-difference Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import smalllin
from .errors import (MaxIterations, NonFiniteValue, Singular, SingularJacobian,
                     SlowflowError)
from .odeint import PeriodicField

__all__ = [
    "AveragedReport", "RootResult",
    "averaged_function", "averaged_jacobian", "averaged_report",
    "find_root", "scan_roots",
    "DEFAULT_NODES", "DEFAULT_FD_STEP_SCALE",
]

DEFAULT_NODES = 4096
DEFAULT_FD_STEP_SCALE = 1e-6      # fd step = scale * (1 + |v|)
NON_ISOLATED_RATIO = 1e-6         # sigma_min/sigma_max below this flags a continuum


@dataclass(frozen=True)
class AveragedReport:
    """Averaged field value (and optionally its Jacobian) at one point."""

    point: np.ndarray
    value: np.ndarray
    jacobian: Optional[np.ndarray]
    quadrature_nodes: int
    fd_step: Optional[float]


@dataclass(frozen=True)
class RootResult:
    """A root of the averaged field, from ``find_root`` or a closed form."""

    v0: np.ndarray
    residual: float
    iterations: int
    converged: bool
    jacobian: Optional[np.ndarray] = None
    non_isolated: bool = False     # near-singular Jacobian: continuum suspected


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _panel_layout(f: PeriodicField, v, n_nodes: int):
    """Segment [0, T] at the field's switching times; panels stay even per segment."""
    T = f.period
    pts = [0.0, T]
    if f.kinks is not None:
        for s in f.kinks(np.asarray(v, dtype=float), 0.0):
            s = float(s) % T
            if 1e-12 * T < s < T * (1 - 1e-12):
                pts.append(s)
    pts = sorted(set(pts))
    segs = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(2, 2 * int(round(n_nodes * (hi - lo) / T / 2.0)))
        segs.append((lo, hi, n))
    return segs


def averaged_function(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Integral of g(., v, 0) over one period (not divided by T)."""
    if n_nodes < 16 or n_nodes % 2:
        raise ValueError("n_nodes must be even and >= 16")
    v = np.asarray(v, dtype=float)
    total = np.zeros(f.dim)
    for lo, hi, n in _panel_layout(f, v, n_nodes):
        t = np.linspace(lo, hi, n + 1)
        vals = np.asarray(f.evaluate(t, v, 0.0), dtype=float)
        if vals.shape != (n + 1, f.dim):
            vals = vals.reshape(n + 1, f.dim)
        h = (hi - lo) / n
        total = total + (h / 3.0) * (_simpson_weights(n) @ vals)
    if not np.all(np.isfinite(total)):
        raise NonFiniteValue(f"averaged field not finite at v={v}")
    return total


def averaged_jacobian(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES,
                      fd_step: Optional[float] = None) -> np.ndarray:
    """Central-difference Jacobian of the averaged field at v.

    Differentiation happens on the averaged field, not on g itself: averaging
    smooths the corners, so the derivative is well defined near simple roots
    even when g is only Lipschitz.
    """
    v = np.asarray(v, dtype=float)
    h = fd_step if fd_step is not None else DEFAULT_FD_STEP_SCALE * (1.0 + float(np.linalg.norm(v)))
    if not h > 0:
        raise ValueError("fd_step must be positive")
    k = f.dim
    J = np.empty((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = h
        J[:, j] = (averaged_function(f, v + e, n_nodes)
                   - averaged_function(f, v - e, n_nodes)) / (2.0 * h)
    if not np.all(np.isfinite(J)):
        raise NonFiniteValue(f"averaged Jacobian not finite at v={v}")
    return J


def averaged_report(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES,
                    with_jacobian: bool = False,
                    fd_step: Optional[float] = None) -> AveragedReport:
    v = np.asarray(v, dtype=float)
    val = averaged_function(f, v, n_nodes)
    J = averaged_jacobian(f, v, n_nodes, fd_step) if with_jacobian else None
    h = (fd_step if fd_step is not None
         else DEFAULT_FD_STEP_SCALE * (1.0 + float(np.linalg.norm(v)))) if with_jacobian else None
    return AveragedReport(v, val, J, n_nodes, h)


def _singular_ratio(J: np.ndarray) -> float:
    """sigma_min / sigma_max of J (0.0 for the zero matrix)."""
    s = np.linalg.svd(J, compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0.0 else 0.0


def find_root(f: PeriodicField, guess, root_tol: float = 1e-10,
              n_nodes: int = DEFAULT_NODES, max_iter: int = 50,
              fd_step: Optional[float] = None) -> RootResult:
    """Damped Newton on the averaged field from `guess`.

    Converged means the quadrature residual dropped to ``root_tol``; the step
    is halved up to 20 times whenever the residual would not decrease.
    """
    v = np.asarray(guess, dtype=float).copy()
    if not np.all(np.isfinite(v)):
        raise ValueError("guess must be finite")
    g = averaged_function(f, v, n_nodes)
    res = float(np.linalg.norm(g))
    J = None
    for it in range(1, max_iter + 1):
        if res <= root_tol:
            J = averaged_jacobian(f, v, n_nodes, fd_step)
            return RootResult(v, res, it - 1, True, J,
                              _singular_ratio(J) < NON_ISOLATED_RATIO)
        J = averaged_jacobian(f, v, n_nodes, fd_step)
        try:
            step = smalllin.solve(J, -g)
        except Singular as exc:
            raise SingularJacobian(f"Newton Jacobian singular at {v}") from exc
        lam = 1.0
        for _ in range(20):
            v_try = v + lam * step
            g_try = averaged_function(f, v_try, n_nodes)
            r_try = float(np.linalg.norm(g_try))
            if r_try < res:
                v, g, res = v_try, g_try, r_try
                break
            lam *= 0.5
        else:
            # no decrease in 20 halvings: accept the full step once and let
            # the residual check decide next round
            v = v + step
            g = averaged_function(f, v, n_nodes)
            res = float(np.linalg.norm(g))
    if res <= root_tol:
        J = averaged_jacobian(f, v, n_nodes, fd_step)
        return RootResult(v, res, max_iter, True, J,
                          _singular_ratio(J) < NON_ISOLATED_RATIO)
    raise MaxIterations(
        f"Newton did not reach residual {root_tol:g} in {max_iter} iterations "
        f"(residual {res:.3e})"
    )


def scan_roots(f: PeriodicField, box, grid_n: int = 32,
               root_tol: float = 1e-10, n_nodes: int = DEFAULT_NODES,
               dedup_tol: float = 1e-6) -> List[RootResult]:
    """Grid scan of the averaged field over an axis-aligned box, Newton polish.

    Newton is launched from every cell whose corner values change sign in some
    component and from every grid-local minimum of the residual norm; results
    closer than `dedup_tol` are merged.  Scanning is supported for k <= 3.
    """
    box = np.asarray(box, dtype=float)
    if box.shape != (f.dim, 2):
        raise ValueError("box must have shape (k, 2) rows of (lo, hi)")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("box rows must satisfy lo < hi")
    if f.dim > 3:
        raise ValueError("scan_roots supports k <= 3")
    if grid_n < 2 or grid_n > 64:
        raise ValueError("grid_n must be in [2, 64]")

    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    shape = (grid_n,) * f.dim
    vals = np.empty(shape + (f.dim,))
    scan_nodes = max(256, min(n_nodes, 1024))
    for idx in np.ndindex(shape):
        pt = np.array([axes[d][idx[d]] for d in range(f.dim)])
        vals[idx] = averaged_function(f, pt, scan_nodes)
    norms = np.linalg.norm(vals, axis=-1)

    seeds = []
    for idx in np.ndindex(tuple(n - 1 for n in shape)):
        corners = list(np.ndindex((2,) * f.dim))
        cvals = np.array([vals[tuple(np.add(idx, c))] for c in corners])
        if np.any(np.min(cvals, axis=0) < 0) and np.any(
                (np.min(cvals, axis=0) < 0) & (np.max(cvals, axis=0) > 0)):
            center = np.array([
                0.5 * (axes[d][idx[d]] + axes[d][idx[d] + 1]) for d in range(f.dim)
            ])
            seeds.append(center)
    for idx in np.ndindex(shape):
        is_min = True
        for d in range(f.dim):
            for off in (-1, 1):
                j = idx[d] + off
                if 0 <= j < grid_n:
                    nidx = list(idx)
                    nidx[d] = j
                    if norms[tuple(nidx)] < norms[idx]:
                        is_min = False
        if is_min:
            seeds.append(np.array([axes[d][idx[d]] for d in range(f.dim)]))

    roots: List[RootResult] = []
    for seed in seeds:
        try:
            r = find_root(f, seed, root_tol, n_nodes)
        except SlowflowError:      # e.g. a DSL domain error off the box
            continue
        if np.any(r.v0 < box[:, 0] - 0.5) or np.any(r.v0 > box[:, 1] + 0.5):
            continue
        if any(np.linalg.norm(r.v0 - prev.v0) < dedup_tol for prev in roots):
            continue
        roots.append(r)
    roots.sort(key=lambda r: tuple(r.v0))
    return roots
