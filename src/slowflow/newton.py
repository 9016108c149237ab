"""The one damped Newton loop and its one driver, behind
``averaging.find_root``, ``averaging.scan_roots`` and ``orbit.find_periodic``:
the caller answers for the residual F and its Jacobian, and the loop solves
each step J p = -F itself (``smalllin.solve``).

A step longer than the trust radius 1 + |v| is cut to that length (Dennis &
Schnabel, *Numerical Methods for Unconstrained Optimization*, ch. 6).  The
line search tries lam = 1, 1/2, ..., 1/256 and accepts the first point with
|F(v + lam*p)| <= (1 - 0.1*lam) |F(v)| (Armijo); a trial whose evaluation
raises ``SlowflowError`` counts as no decrease.  The loop raises rather than
return a stop reason: ``SingularJacobian`` for a singular step,
``MaxIterations`` when no trial is accepted ("stalled": there is no
full-step fallback) or at the iteration cap ("max_iter").

``iterate`` is the loop as a generator that asks for each value it needs.
``run`` drives many in lockstep, one stacked call a round for the asks for F
and one for the asks for J, and answers a row of a stack that raises alone
(``errors.each_row``), so a solve does the same arithmetic alone as in a
crowd.  ``solve`` is ``run`` on one solve.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import smalllin
from .errors import MaxIterations, Singular, SingularJacobian, SlowflowError, each_row

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


def run(solves, answer) -> list:
    """Drive the generators `solves` (``iterate``, or ones that yield from it)
    in lockstep; returns what each returns, or the ``SlowflowError`` that
    ended it.  A round answers every solve that asks for F with one
    ``answer("F", X)``, X the stack of the points they ask at, then every
    solve that asks for J with one ``answer("J", X)``; a row's error
    (``each_row``) is thrown into its solve."""
    solves = list(solves)
    out, asks = [None] * len(solves), {}

    def resume(i, val):
        try:
            asks[i] = solves[i].throw(val) if isinstance(val, SlowflowError) else solves[i].send(val)
            return
        except StopIteration as done:
            out[i] = done.value
        except SlowflowError as exc:
            out[i] = exc
        asks.pop(i, None)

    for i in range(len(solves)):
        resume(i, None)
    while asks:
        for what in "FJ":
            rows = [i for i, (w, _) in asks.items() if w == what]
            if rows:
                X = np.array([asks[i][1] for i in rows])
                for i, val in zip(rows, each_row(partial(answer, what), X)):
                    resume(i, val)
    return out


def solve(F, jac, v, tol: float):
    """Damped Newton on F from v; returns ``(v, Fv, res, iterations)`` once
    res = |F(v)| <= tol, or raises what ended the solve.  ``jac(v)`` is called
    once per iteration, always at the point where F was last evaluated, so it
    may read work F cached."""
    out, = run([iterate(v, tol)], lambda what, X: [(F if what == "F" else jac)(X[0])])
    if isinstance(out, SlowflowError):
        raise out
    return out
