"""The averaged field: one-period quadrature, its Jacobian, and root finding.

For a T-periodic field g the averaged field at frozen state v is

    avg(v) = integral over [0, T] of g(tau, v, 0) dtau,

computed by composite Simpson quadrature.  When the field publishes its
switching times (``field.kinks``: the built-ins and every DSL field with
``abs``/``sign`` do), panel boundaries are aligned with them so each panel
integrates a smooth piece and the full O(h^4) rate is retained; a corner
inside a panel costs O(h^2) locally.

Its Jacobian (g0)'(v) is the average of dg/dx: g is continuous in x, and
differentiable off a switching set of measure zero with a bounded
derivative, so dominated convergence moves the derivative under the
integral, and the theorem has no step size.  The field picks the path: one
that publishes ``jacobian`` (the built-ins and every DSL field do) gets that
integral by the same kink-aligned Simpson rule; one without gets central
differences of the averaged field at ``odeint.FD_STEP_SCALE * (1 + |v|)``.
A field that jumps (``PeriodicField.jumps``) jumps only at fixed times, so
its ``jacobian`` integrates like any other.

Zeros of the averaged field are the candidate initial points of periodic
solutions of x' = eps*g; they are located by the damped Newton loop of
``newton.solve`` (trust region, Armijo line search, no full-step fallback) on
the quadrature values with that Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import newton, smalllin
from .errors import (MaxIterations, NonFiniteValue, Singular, SingularJacobian,
                     SlowflowError)
from .odeint import FD_STEP_SCALE, PeriodicField

__all__ = [
    "RootResult",
    "averaged_function", "averaged_jacobian",
    "find_root", "scan_roots",
    "DEFAULT_NODES",
]

DEFAULT_NODES = 4096
NON_ISOLATED_RATIO = 1e-6         # sigma_min/sigma_max below this flags a continuum
DEDUP_TOL = 1e-6                  # `scan_roots` merges roots closer than this
JACOBIAN_CHUNK = 2048             # nodes per `jacobian` call: (n, k, k) tangents stay small


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
    if n_nodes < 16 or n_nodes % 2:
        raise ValueError("n_nodes must be even and >= 16")
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


def _nodes(lo: float, hi: float, n: int, T: float, one_sided: bool) -> np.ndarray:
    """The n + 1 Simpson nodes of [lo, hi].  With `one_sided` the end nodes,
    which lie on the switching set, move inward to take the value of the
    segment's own side (``sign(0) = 0`` would take neither): by 1e-9 of the
    segment, and by at least 1e-12*T, far past the 1e-15*T to which the
    switching times are found."""
    t = np.linspace(lo, hi, n + 1)
    if one_sided:
        d = max(1e-9 * (hi - lo), 1e-12 * T)
        t[0], t[-1] = lo + d, hi - d
    return t


def averaged_function(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Integral of g(., v, 0) over one period (not divided by T).  A field
    that jumps takes one-sided values at the segment ends, so a piecewise
    constant g integrates exactly."""
    v = np.asarray(v, dtype=float)
    total = np.zeros(f.dim)
    for lo, hi, n in _panel_layout(f, v, n_nodes):
        t = _nodes(lo, hi, n, f.period, f.jumps)
        vals = np.asarray(f.evaluate(t, v, 0.0), dtype=float)
        if vals.shape != (n + 1, f.dim):
            vals = vals.reshape(n + 1, f.dim)
        h = (hi - lo) / n
        total = total + (h / 3.0) * (_simpson_weights(n) @ vals)
    if not np.all(np.isfinite(total)):
        raise NonFiniteValue(f"averaged field not finite at v={v}")
    return total


def _integrated_jacobian(f: PeriodicField, v: np.ndarray, n_nodes: int) -> np.ndarray:
    """Simpson rule for the integral of dg/dx(., v, 0) on the kink-aligned
    segments.  dg/dx jumps at a corner, where ``jacobian`` may take either
    side or neither, so the end nodes take one-sided values."""
    k = f.dim
    total = np.zeros(k * k)
    for lo, hi, n in _panel_layout(f, v, n_nodes):
        t, w, part = _nodes(lo, hi, n, f.period, True), _simpson_weights(n), np.zeros(k * k)
        for i in range(0, n + 1, JACOBIAN_CHUNK):
            J = np.asarray(f.jacobian(t[i:i + JACOBIAN_CHUNK], v, 0.0), dtype=float)
            part += w[i:i + JACOBIAN_CHUNK] @ J.reshape(-1, k * k)
        total += ((hi - lo) / n / 3.0) * part
    return total.reshape(k, k)


def averaged_jacobian(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Jacobian (g0)'(v) of the averaged field at v.

    For a field that publishes ``jacobian`` it is the Simpson integral of
    dg/dx over the kink-aligned panels of `averaged_function`: one
    quadrature, and exact up to that rule.  For a field without one it is the
    central difference of the averaged field with step
    ``FD_STEP_SCALE * (1 + |v|)``: 2k quadratures, and the derivative of the
    average, which is smooth near simple roots even when g is only Lipschitz.
    """
    v = np.asarray(v, dtype=float)
    if f.jacobian is not None:
        J = _integrated_jacobian(f, v, n_nodes)
    else:
        h = FD_STEP_SCALE * (1.0 + float(np.linalg.norm(v)))
        J = np.column_stack([(averaged_function(f, v + h * e, n_nodes)
                              - averaged_function(f, v - h * e, n_nodes)) / (2.0 * h)
                             for e in np.eye(f.dim)])
    if not np.all(np.isfinite(J)):
        raise NonFiniteValue(f"averaged Jacobian not finite at v={v}")
    return J


def _singular_ratio(J: np.ndarray) -> float:
    """sigma_min / sigma_max of J (0.0 for the zero matrix)."""
    s = np.linalg.svd(J, compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0.0 else 0.0


def find_root(f: PeriodicField, guess, root_tol: float = 1e-10,
              n_nodes: int = DEFAULT_NODES) -> RootResult:
    """Damped Newton (``newton.solve``) on the averaged field from `guess`.

    Converged means the quadrature residual dropped to ``root_tol``; a stall
    or the iteration cap raises ``MaxIterations`` naming the stop reason.
    """
    v = np.asarray(guess, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("guess must be finite")

    def steps(v, g):
        try:
            return [smalllin.solve(averaged_jacobian(f, v, n_nodes), -g)]
        except Singular as exc:
            raise SingularJacobian(f"Newton Jacobian singular at {v}") from exc

    v, _, res, iters, stop = newton.solve(
        lambda v: averaged_function(f, v, n_nodes), v, root_tol, steps)
    if stop != "converged":
        raise MaxIterations(f"Newton {stop} at residual {res:.3e} (> tol "
                            f"{root_tol:g}) after {iters} iterations")
    J = averaged_jacobian(f, v, n_nodes)
    return RootResult(v, res, iters, True, J,
                      _singular_ratio(J) < NON_ISOLATED_RATIO)


def scan_roots(f: PeriodicField, box, grid_n: int = 32,
               root_tol: float = 1e-10, n_nodes: int = DEFAULT_NODES) -> List[RootResult]:
    """Grid scan of the averaged field over an axis-aligned box, Newton polish.

    Newton is launched from every cell whose corner values change sign in some
    component and from every grid-local minimum of the residual norm; results
    closer than ``DEDUP_TOL`` are merged.  Scanning is supported for k <= 3.
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
        if any(np.linalg.norm(r.v0 - prev.v0) < DEDUP_TOL for prev in roots):
            continue
        roots.append(r)
    roots.sort(key=lambda r: tuple(r.v0))
    return roots
