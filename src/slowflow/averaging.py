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
budget of ``n_nodes`` per period lasts and the estimates summed over all
segments exceed ``GL_SUM_TOL * T * (1 + max |g|)`` (at a corner that is not
published the per-length test never passes).  The first pass always runs,
and a spent budget returns the finer value with a ``WARNING`` naming the
estimate.
Nodes are interior, so none sits on a corner or a jump.  An unpublished
corner is found only if the first pass sees it: a dip narrower than about
1/25 of its segment can fall between all the nodes.

The quadrature runs on stacks of frozen states, each with its own segments:
the first passes of the states with as many segments share one call of the
field with paired times (``evaluate`` or ``jacobian``), in chunks of at most
``STACK_NODES`` nodes, so memory stays flat however many states there are,
and only a state whose first pass fails the test is bisected, alone.  Every
state gets the bits it gets alone; a single average is a stack of one.

Its Jacobian (g0)'(v) is the average of dg/dx: g is continuous in x, and
differentiable off a switching set of measure zero with a bounded
derivative, so dominated convergence moves the derivative under the
integral, and the theorem has no step size.  The field picks the path: one
that publishes ``jacobian`` (the built-ins and every DSL field do) gets that
integral by the same rule on the same segments; one without gets central
differences of the averaged field at ``odeint.FD_STEP_SCALE * (1 + |v|)``.

Zeros of the averaged field are the candidate initial points of periodic
solutions of x' = eps*g.  ``find_root`` (one seed) and ``scan_roots`` (its
grid's seeds in lockstep) solve for them with the one Newton driver,
``newton.run`` (trust region, Armijo line search, no full-step fallback),
answered with stacked averages and Jacobians; a stack that raises, or has a
row that is not finite, is answered row by row (``errors.each_row``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import newton
from .errors import NonFiniteValue, SlowflowError, each_row
from .odeint import FD_STEP_SCALE, PeriodicField

__all__ = [
    "RootResult",
    "averaged_function", "averaged_jacobian",
    "find_root", "scan_roots",
    "DEFAULT_NODES",
]

log = logging.getLogger(__name__)

DEFAULT_NODES = 4096              # node budget per period
STACK_NODES = 1 << 13             # first-pass nodes per stacked field call
GL_ORDER = 24                     # Gauss-Legendre nodes per segment and per half
GL_TOL = 1e-12                    # bisect where |whole - halves| > this * length * (1 + max|g|)
GL_SUM_TOL = 1e-15                # ... until the estimates sum to this * T * (1 + max|g|)
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
    one call of `fn` on all their nodes: shape (len(lo), values), and the
    values at the nodes, shape (len(lo), GL_ORDER, values)."""
    vals = np.asarray(fn((lo[:, None] + L[:, None] * _X).ravel()), dtype=float)
    vals = vals.reshape(len(lo), GL_ORDER, -1)
    return L[:, None] * (_W @ vals), vals


def _integrate(fn: Callable, f: PeriodicField, V: np.ndarray, n_nodes: int) -> np.ndarray:
    """Integrals over one period, flattened, of `fn` at every row v of V by
    the rule of the module docstring, shape (len(V), values).  ``fn(t, X)``
    maps paired times (N,) and states (N, k), or times and one frozen state
    (k,), to ``(N, ...)`` values; a row whose first pass fails goes on alone.
    A stack of one takes its state frozen, as a single average always did."""
    if n_nodes < 16 or n_nodes % 2:
        raise ValueError("n_nodes must be even and >= 16")
    T = f.period
    cuts = [[]] * len(V)
    for i, v in enumerate(V if f.kinks else ()):
        c = {float(s) % T for s in f.kinks(v, 0.0)}
        cuts[i] = sorted(s for s in c if 1e-12 * T < s < T * (1 - 1e-12))
    if len(V) == 1:                 # one state: its own arrays, no stack bookkeeping
        one = lambda t: fn(t, V[0])
        e = np.array([0.0, *cuts[0], T])
        lo, L, n = e[:-1], e[1:] - e[:-1], len(cuts[0]) + 1
        half = 0.5 * L
        S, vals = _gauss_integrals(one, np.concatenate([lo, lo, lo + half]),
                                   np.concatenate([L, half, half]))
        return _bisect(one, T, lo, L, S[:n], S[n:2 * n], S[2 * n:], np.abs(vals).max(),
                       n_nodes)[None]
    counts = [len(c) for c in cuts]
    out = None
    for n in sorted(set(counts)):
        rows = [i for i, c in enumerate(counts) if c == n]
        step = max(1, STACK_NODES // (3 * GL_ORDER * (n + 1)))
        for a in range(0, len(rows), step):
            run = rows[a:a + step]
            e = np.array([[0.0, *cuts[i], T] for i in run])
            lo, L = e[:, :-1], e[:, 1:] - e[:, :-1]
            half = 0.5 * L
            X = np.repeat(V[run], 3 * GL_ORDER * (n + 1), axis=0)
            # per row: its segments, their left halves, their right halves
            S, vals = _gauss_integrals(lambda t: fn(t, X),
                                       np.concatenate([lo, lo, lo + half], axis=1).ravel(),
                                       np.concatenate([L, half, half], axis=1).ravel())
            S = S.reshape(len(run), 3, n + 1, -1)
            whole, left, right = S[:, 0], S[:, 1], S[:, 2]
            gmax = np.abs(vals.reshape(len(run), -1)).max(axis=1)
            fine = left + right
            err = np.abs(whole - fine).max(axis=2)
            over = (err > GL_TOL * (1.0 + gmax[:, None]) * L).any(axis=1)
            sums = 0.0 + fine.sum(axis=1)
            for r in over.nonzero()[0]:
                sums[r] = _bisect(lambda t, v=V[run[r]]: fn(t, v), T, lo[r], L[r],
                                  whole[r], left[r], right[r], gmax[r], n_nodes)
            if out is None:
                out = np.empty((len(V), sums.shape[1]))
            out[run] = sums
    return out


def _bisect(fn: Callable, T: float, lo, L, whole, left, right, gmax, n_nodes: int):
    """One row's integral from its first pass on (`fn` maps times to values
    at its frozen state): bisect the segments whose estimate fails the test
    while the budget lasts and the summed estimates exceed theirs."""
    n = len(lo)
    used, total, done = 3 * GL_ORDER * n, 0.0, 0.0
    while True:
        fine = left + right
        err = np.abs(whole - fine).max(axis=1)
        over = err > GL_TOL * (1.0 + gmax) * L         # NaN is not: the caller checks
        if not over.any() or done + err.sum() <= GL_SUM_TOL * (1.0 + gmax) * T:
            return total + fine.sum(axis=0)
        total, done = total + fine[~over].sum(axis=0), done + err[~over].sum()
        lo, L, left, right, fine, err = (x[over] for x in (lo, L, left, right, fine, err))
        n = len(lo)
        if used + 4 * GL_ORDER * n > n_nodes:
            log.warning("quadrature node budget %d spent with error estimate %.3e",
                        n_nodes, err.sum())
            return total + fine.sum(axis=0)
        # bisect: the halves become segments, and their halves, the quarters,
        # come from one call
        q = 0.25 * L
        Q, vals = _gauss_integrals(fn, (lo + np.arange(4.0)[:, None] * q).ravel(), np.tile(q, 4))
        used, gmax = used + 4 * GL_ORDER * n, max(gmax, np.abs(vals).max())
        lo, L = np.concatenate([lo, lo + 2.0 * q]), np.tile(2.0 * q, 2)
        whole = np.concatenate([left, right])
        left, right = Q.reshape(2, 2, n, -1).swapaxes(0, 1).reshape(2, 2 * n, -1)


def _averages(f: PeriodicField, V: np.ndarray, n_nodes: int) -> np.ndarray:
    """`averaged_function` at every row of V; a row may be non-finite."""
    return _integrate(lambda t, X: f.evaluate(t, X, 0.0), f, V, n_nodes)


def _jacobians(f: PeriodicField, V: np.ndarray, n_nodes: int) -> np.ndarray:
    """`averaged_jacobian` at every row of V; a row may be non-finite."""
    k = f.dim
    if f.jacobian is not None:
        return _integrate(lambda t, X: f.jacobian(t, X, 0.0), f, V, n_nodes).reshape(-1, k, k)
    h = FD_STEP_SCALE * (1.0 + np.array([float(np.linalg.norm(v)) for v in V]))[:, None, None]
    steps = h * np.eye(k)                       # steps[i, j] = h_i e_j
    A = _averages(f, np.concatenate([V[:, None] + steps, V[:, None] - steps]).reshape(-1, k),
                  n_nodes).reshape(2, len(V), k, k)
    return ((A[0] - A[1]) / (2.0 * h)).swapaxes(1, 2)


@np.errstate(invalid="ignore")     # a field's inf - inf in the error estimates: no warning
def _stacked(f: PeriodicField, what: str, V: np.ndarray, n_nodes: int) -> np.ndarray:
    """The averaged field ("F") or its Jacobian ("J") at every row of V;
    ``NonFiniteValue`` names the first row where it is not finite."""
    A = _averages(f, V, n_nodes) if what == "F" else _jacobians(f, V, n_nodes)
    if not np.isfinite(A).all():
        bad = np.isfinite(A.reshape(len(V), -1)).all(axis=1).argmin()
        name = "field" if what == "F" else "Jacobian"
        raise NonFiniteValue(f"averaged {name} not finite at v={V[bad]}")
    return A


def averaged_function(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Integral of g(., v, 0) over one period (not divided by T)."""
    return _stacked(f, "F", np.asarray(v, dtype=float)[None], n_nodes)[0]


def averaged_jacobian(f: PeriodicField, v, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Jacobian (g0)'(v) of the averaged field at v.

    For a field that publishes ``jacobian`` it is the integral of dg/dx by the
    rule of `averaged_function`: one quadrature.  For a field without one it
    is the central difference of the averaged field with step ``FD_STEP_SCALE
    * (1 + |v|)``: 2k quadratures, in one stack, and the derivative of the
    average, which is smooth near simple roots even when g is only Lipschitz.
    """
    return _stacked(f, "J", np.asarray(v, dtype=float)[None], n_nodes)[0]


def _root_steps(guess, root_tol: float):
    """`find_root` as a generator of ``newton.iterate``: the solve, then the
    Jacobian at the root."""
    v, _, res, iters = yield from newton.iterate(guess, root_tol)
    return RootResult(v, res, iters, True, (yield "J", v))


def _solve_roots(f: PeriodicField, seeds, root_tol: float, n_nodes: int) -> list:
    """`find_root` from every seed in lockstep (``newton.run``): a root, or
    the ``SlowflowError`` that ended the solve, per seed."""
    return newton.run([_root_steps(s, root_tol) for s in seeds],
                      lambda what, X: _stacked(f, what, X, n_nodes))


def find_root(f: PeriodicField, guess, root_tol: float = 1e-10,
              n_nodes: int = DEFAULT_NODES) -> RootResult:
    """Damped Newton (``newton.iterate``) on the averaged field from `guess`.

    Converged means the quadrature residual dropped to ``root_tol``; a
    singular step raises ``SingularJacobian``, a stall or the iteration cap
    ``MaxIterations`` naming the stop reason.
    """
    v = np.asarray(guess, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("guess must be finite")
    root, = _solve_roots(f, [v], root_tol, n_nodes)
    if isinstance(root, SlowflowError):
        raise root
    return root


def _find_roots(f: PeriodicField, seeds, root_tol: float, n_nodes: int) -> list:
    """`find_root` from every seed in lockstep; None for a seed whose solve
    raised ``SlowflowError`` (e.g. a DSL domain error off the box)."""
    return [None if isinstance(r, SlowflowError) else r
            for r in _solve_roots(f, seeds, root_tol, n_nodes)]


def scan_roots(f: PeriodicField, box, grid_n: int = 32,
               root_tol: float = 1e-10, n_nodes: int = DEFAULT_NODES) -> List[RootResult]:
    """Grid scan of the averaged field over an axis-aligned box, Newton polish.

    Newton is launched from every cell whose corner values change sign in some
    component and from every grid-local minimum of the residual norm; results
    closer than ``DEDUP_TOL`` are merged.  Scanning is supported for k <= 3.

    The grid is averaged as one stack, and the seeds' solves run in lockstep
    (`_find_roots`): a round costs one stacked average and one stacked
    Jacobian for all live seeds, in chunks of ``STACK_NODES`` nodes.  A grid
    point whose average raises ``SlowflowError`` is missing: it makes no sign
    change and is no minimum.  A seed whose solve raises is dropped; neither
    touches the rest.
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
    vals = np.array([np.full(k, np.nan) if isinstance(a, SlowflowError) else a
                     for a in each_row(lambda X: _stacked(f, "F", X, n_nodes),
                                       pts.reshape(-1, k))]).reshape(pts.shape)
    norms = np.linalg.norm(vals, axis=-1)

    # a cell's corner values are its 2^k slices, shifted by 0 or 1 per axis;
    # fmin and fmax pass over a missing (NaN) corner
    corners = [vals[tuple(slice(c, grid_n - 1 + c) for c in cs)]
               for cs in np.ndindex((2,) * k)]
    cmin, cmax = np.fmin.reduce(corners), np.fmax.reduce(corners)
    mids = [0.5 * (ax[:-1] + ax[1:]) for ax in axes]
    centers = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1)
    # a grid minimum: no neighbour along any axis is strictly smaller
    is_min = np.isfinite(norms)
    for d in range(k):
        n, m = np.moveaxis(norms, d, 0), np.moveaxis(is_min, d, 0)
        m[:-1] &= ~(n[1:] < n[:-1])
        m[1:] &= ~(n[:-1] < n[1:])
    seeds = [*centers[((cmin < 0) & (cmax > 0)).any(axis=-1)], *pts[is_min]]

    roots: List[RootResult] = []
    for r in _find_roots(f, seeds, root_tol, n_nodes):
        if r is None:
            continue
        if np.any(r.v0 < box[:, 0] - 0.5) or np.any(r.v0 > box[:, 1] + 0.5):
            continue
        if any(np.linalg.norm(r.v0 - prev.v0) < DEDUP_TOL for prev in roots):
            continue
        roots.append(r)
    roots.sort(key=lambda r: tuple(r.v0))
    return roots
