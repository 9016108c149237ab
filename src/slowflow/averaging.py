"""The averaged field: one-period quadrature, its Jacobian, and root finding.

For a T-periodic field g the averaged field at frozen state v is

    avg(v) = integral over [0, T] of g(tau, v, 0) dtau,

computed by adaptive Gauss-Legendre quadrature on the segments of [0, T]
between the field's switching times (``field.kinks``: the built-ins and every
DSL field with ``abs``/``sign`` publish them), on each of which it converges
geometrically (Davis & Rabinowitz, *Methods of Numerical Integration*, 2.7).
One field call takes ``GL_ORDER`` nodes on every segment and as many on each
of its halves (at most 216 per period for the built-ins): the halves give the
value, their difference from the whole the error estimate.  Segments whose
estimate exceeds ``GL_TOL * length * (1 + max |g|)`` are bisected while the
budget of ``n_nodes`` per period lasts; the first pass always runs, and a
spent budget returns the finer value with a ``WARNING`` naming the estimate.
Nodes are interior, so none sits on a corner or a jump.  An unpublished
corner is found only if the first pass sees it: a dip narrower than about
1/25 of its segment can fall between all the nodes.

Its Jacobian (g0)'(v) is the average of dg/dx: g is continuous in x, and
differentiable off a switching set of measure zero with a bounded
derivative, so dominated convergence moves the derivative under the
integral, and the theorem has no step size.  The field picks the path: one
that publishes ``jacobian`` (the built-ins and every DSL field do) gets that
integral by the same rule on the same segments; one without gets central
differences of the averaged field at ``odeint.FD_STEP_SCALE * (1 + |v|)``.

Zeros of the averaged field are the candidate initial points of periodic
solutions of x' = eps*g; ``find_root`` hands the quadrature values and that
Jacobian to the damped Newton loop of ``newton.solve`` (trust region, Armijo
line search, no full-step fallback), which also raises its failures.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import newton
from .errors import NonFiniteValue, SlowflowError
from .odeint import FD_STEP_SCALE, PeriodicField

__all__ = [
    "RootResult",
    "averaged_function", "averaged_jacobian",
    "find_root", "scan_roots",
    "DEFAULT_NODES",
]

log = logging.getLogger(__name__)

DEFAULT_NODES = 4096              # node budget per period
GL_ORDER = 24                     # Gauss-Legendre nodes per segment and per half
GL_TOL = 1e-12                    # bisect where |whole - halves| > this * length * (1 + max|g|)
NON_ISOLATED_RATIO = 1e-6         # sigma_min/sigma_max below this flags a continuum
DEDUP_TOL = 1e-6                  # `scan_roots` merges roots closer than this


def _gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1], from the
    eigen-decomposition of the Jacobi matrix (Golub & Welsch 1969)."""
    k = np.arange(1.0, m)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, V = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    w = V[0] ** 2                   # half the weights on [-1, 1]; symmetrized below
    return 0.5 + 0.25 * (x - x[::-1]), 0.5 * (w + w[::-1])


_X, _W = _gauss_legendre(GL_ORDER)


@dataclass(frozen=True)
class RootResult:
    """A root of the averaged field, from ``find_root`` or a closed form."""

    v0: np.ndarray
    residual: float
    iterations: int
    converged: bool
    jacobian: Optional[np.ndarray] = None

    @property
    def non_isolated(self) -> bool:
        """sigma_min/sigma_max of the Jacobian below ``NON_ISOLATED_RATIO``
        (the zero matrix included): a continuum of roots is suspected."""
        if self.jacobian is None:
            return False
        s = np.linalg.svd(self.jacobian, compute_uv=False)
        return bool(s[0] == 0.0 or s[-1] / s[0] < NON_ISOLATED_RATIO)


def _gauss_integrals(fn: Callable, lo: np.ndarray, L: np.ndarray) -> tuple:
    """The ``GL_ORDER``-point integrals of `fn` over each [lo, lo + L], from
    one call of `fn` on all their nodes: shape (len(lo), values), and max |fn|."""
    vals = np.asarray(fn((lo[:, None] + L[:, None] * _X).ravel()), dtype=float)
    vals = vals.reshape(len(lo), GL_ORDER, -1)
    return L[:, None] * (_W @ vals), max(vals.max(), -vals.min())


def _integrate(fn: Callable, f: PeriodicField, v, n_nodes: int) -> np.ndarray:
    """Integral over one period, flattened, of `fn`: times -> ``(len(t), ...)``
    values at frozen v, by the rule of the module docstring on f's segments."""
    if n_nodes < 16 or n_nodes % 2:
        raise ValueError("n_nodes must be even and >= 16")
    T = f.period
    cuts = {float(s) % T for s in (f.kinks(v, 0.0) if f.kinks else ())}
    edges = np.array([0.0, *sorted(s for s in cuts if 1e-12 * T < s < T * (1 - 1e-12)), T])
    lo, L = edges[:-1], np.diff(edges)
    n, half = len(lo), 0.5 * L
    S, gmax = _gauss_integrals(fn, np.concatenate([lo, lo, lo + half]),
                               np.concatenate([L, half, half]))
    whole, left, right = S[:n], S[n:2 * n], S[2 * n:]
    used, total = 3 * GL_ORDER * n, 0.0
    while True:
        fine = left + right
        err = np.abs(whole - fine).max(axis=1)
        over = err > GL_TOL * (1.0 + gmax) * L         # NaN is not: the caller checks
        if not over.any():
            return total + fine.sum(axis=0)
        total = total + fine[~over].sum(axis=0)
        lo, L, left, right, fine, err = (x[over] for x in (lo, L, left, right, fine, err))
        n = len(lo)
        if used + 4 * GL_ORDER * n > n_nodes:
            log.warning("quadrature node budget %d spent with error estimate %.3e",
                        n_nodes, err.sum())
            return total + fine.sum(axis=0)
        # bisect: the halves become segments, and their halves, the quarters,
        # come from one call
        q = 0.25 * L
        Q, h = _gauss_integrals(fn, (lo + np.arange(4.0)[:, None] * q).ravel(), np.tile(q, 4))
        used, gmax = used + 4 * GL_ORDER * n, max(gmax, h)
        lo, L = np.concatenate([lo, lo + 2.0 * q]), np.tile(2.0 * q, 2)
        whole = np.concatenate([left, right])
        left, right = Q.reshape(2, 2, n, -1).swapaxes(0, 1).reshape(2, 2 * n, -1)


def averaged_function(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Integral of g(., v, 0) over one period (not divided by T)."""
    v = np.asarray(v, dtype=float)
    total = _integrate(lambda t: f.evaluate(t, v, 0.0), f, v, n_nodes)
    if not np.all(np.isfinite(total)):
        raise NonFiniteValue(f"averaged field not finite at v={v}")
    return total


def averaged_jacobian(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Jacobian (g0)'(v) of the averaged field at v.

    For a field that publishes ``jacobian`` it is the integral of dg/dx by the
    rule of `averaged_function`: one quadrature.  For a field without one it
    is the central difference of the averaged field with step ``FD_STEP_SCALE
    * (1 + |v|)``: 2k quadratures, and the derivative of the average, which is
    smooth near simple roots even when g is only Lipschitz.
    """
    v = np.asarray(v, dtype=float)
    if f.jacobian is not None:
        J = _integrate(lambda t: f.jacobian(t, v, 0.0), f, v, n_nodes).reshape(f.dim, f.dim)
    else:
        h = FD_STEP_SCALE * (1.0 + float(np.linalg.norm(v)))
        J = np.column_stack([(averaged_function(f, v + h * e, n_nodes)
                              - averaged_function(f, v - h * e, n_nodes)) / (2.0 * h)
                             for e in np.eye(f.dim)])
    if not np.all(np.isfinite(J)):
        raise NonFiniteValue(f"averaged Jacobian not finite at v={v}")
    return J


def find_root(f: PeriodicField, guess, root_tol: float = 1e-10,
              n_nodes: int = DEFAULT_NODES) -> RootResult:
    """Damped Newton (``newton.solve``) on the averaged field from `guess`.

    Converged means the quadrature residual dropped to ``root_tol``; a
    singular step raises ``SingularJacobian``, a stall or the iteration cap
    ``MaxIterations`` naming the stop reason.
    """
    v = np.asarray(guess, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("guess must be finite")
    v, _, res, iters = newton.solve(lambda v: averaged_function(f, v, n_nodes),
                                    lambda v: averaged_jacobian(f, v, n_nodes),
                                    v, root_tol)
    return RootResult(v, res, iters, True, averaged_jacobian(f, v, n_nodes))


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

    k = f.dim
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.array([averaged_function(f, p, n_nodes)
                     for p in pts.reshape(-1, k)]).reshape(pts.shape)
    norms = np.linalg.norm(vals, axis=-1)

    # a cell's corner values are its 2^k slices, shifted by 0 or 1 per axis
    corners = [vals[tuple(slice(c, grid_n - 1 + c) for c in cs)]
               for cs in np.ndindex((2,) * k)]
    cmin, cmax = np.minimum.reduce(corners), np.maximum.reduce(corners)
    mids = [0.5 * (ax[:-1] + ax[1:]) for ax in axes]
    centers = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1)
    # a grid minimum: no neighbour along any axis is strictly smaller
    is_min = np.ones(norms.shape, dtype=bool)
    for d in range(k):
        n, m = np.moveaxis(norms, d, 0), np.moveaxis(is_min, d, 0)
        m[:-1] &= ~(n[1:] < n[:-1])
        m[1:] &= ~(n[:-1] < n[1:])
    seeds = [*centers[((cmin < 0) & (cmax > 0)).any(axis=-1)], *pts[is_min]]

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
