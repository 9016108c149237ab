"""The one damped Newton loop, behind ``averaging.find_root``,
``averaging.scan_roots`` and ``orbit.find_periodic``: the caller passes the
residual F and its Jacobian, and the loop solves each step J p = -F itself
(``smalllin.solve``).

A step longer than the trust radius 1 + |v| is cut to that length (Dennis &
Schnabel, *Numerical Methods for Unconstrained Optimization*, ch. 6).  The
line search tries lam = 1, 1/2, ..., 1/256 and accepts the first point with
|F(v + lam*p)| <= (1 - 0.1*lam) |F(v)| (Armijo); a trial whose evaluation
raises ``SlowflowError`` counts as no decrease.  The loop raises rather than
return a stop reason: ``SingularJacobian`` for a singular step,
``MaxIterations`` when no trial is accepted ("stalled": there is no
full-step fallback) or at the iteration cap ("max_iter").

``iterate`` is the loop as a generator that asks for each value it needs:
``run`` answers one point at a time, ``averaging.scan_roots`` many solves at
once with stacked calls, and either way a solve does the same arithmetic.
"""

from __future__ import annotations

import numpy as np

from . import smalllin
from .errors import MaxIterations, Singular, SingularJacobian, SlowflowError

__all__ = ["solve", "iterate", "run", "MAX_ITER"]

MAX_ITER = 50


def iterate(v, tol: float):
    """Damped Newton from v as a generator.  It yields ``("F", x)`` or
    ``("J", x)`` for the residual or Jacobian it needs next, takes the value
    through ``send`` and a ``SlowflowError`` of that evaluation through
    ``throw``, and returns ``(v, Fv, res, iterations)`` once res = |F(v)| <=
    tol.  The Jacobian is always asked for at the point where F was last
    evaluated, so a caller may read work F cached."""
    v = np.asarray(v, dtype=float).copy()
    Fv = yield "F", v
    res = float(np.linalg.norm(Fv))
    stop = "max_iter"
    for it in range(MAX_ITER + 1):
        if res <= tol:
            return v, Fv, res, it
        if it == MAX_ITER:
            break
        J = yield "J", v
        try:
            p = smalllin.solve(J, -Fv)
        except Singular as exc:
            raise SingularJacobian(f"Newton Jacobian singular at {v}") from exc
        length = float(np.linalg.norm(p))
        radius = 1.0 + float(np.linalg.norm(v))
        if length > radius:
            p = p * (radius / length)
        lam = 1.0
        for _ in range(9):
            v_try = v + lam * p
            try:
                F_try = yield "F", v_try
            except SlowflowError:
                F_try = np.nan          # fails the test, as a NaN residual does
            r_try = float(np.linalg.norm(F_try))
            if r_try <= res * (1.0 - 0.1 * lam):
                break
            lam *= 0.5
        else:
            stop, it = "stalled", it + 1
            break
        v, Fv, res = v_try, F_try, r_try
    raise MaxIterations(f"Newton {stop} at residual {res:.3e} (> tol {tol:g}) "
                        f"after {it} iterations")


def run(steps, F, jac):
    """What the generator `steps` returns (``iterate`` or one that yields from
    it), answered with ``F(x)`` and ``jac(x)``; their errors are thrown in."""
    try:
        what, x = next(steps)
        while True:
            try:
                out = (F if what == "F" else jac)(x)
            except SlowflowError as exc:
                out = exc
            what, x = steps.throw(out) if isinstance(out, SlowflowError) else steps.send(out)
    except StopIteration as done:
        return done.value


def solve(F, jac, v, tol: float):
    """Damped Newton on F from v; returns ``(v, Fv, res, iterations)`` once
    res = |F(v)| <= tol.  ``jac(v)`` is called once per iteration, always at
    the point where F was last evaluated, so it may read work F cached."""
    return run(iterate(v, tol), F, jac)
