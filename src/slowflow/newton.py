"""The one damped Newton loop, behind ``averaging.find_root`` and
``orbit.find_periodic``.

A step longer than the trust radius 1 + |v| is cut to that length (Dennis &
Schnabel, *Numerical Methods for Unconstrained Optimization*, ch. 6).  The
line search tries lam = 1, 1/2, ..., 1/256 and accepts the first point with
|F(v + lam*p)| <= (1 - 0.1*lam) |F(v)| (Armijo); a trial whose evaluation
raises ``SlowflowError`` counts as no decrease.  When no trial is accepted
the loop stops as "stalled": there is no full-step fallback.
"""

from __future__ import annotations

import numpy as np

from .errors import SlowflowError

__all__ = ["solve", "MAX_ITER"]

MAX_ITER = 50


def solve(F, v, tol: float, step):
    """Damped Newton on F from v; returns ``(v, Fv, res, iterations, stop)``.

    ``step(v, Fv)`` returns the Newton step.  `stop` is "converged"
    (res <= tol), "stalled" or "max_iter"; `iterations` counts the calls to
    `step`, a stalled one included.
    """
    v = np.asarray(v, dtype=float).copy()
    Fv = F(v)
    res = float(np.linalg.norm(Fv))
    for it in range(MAX_ITER):
        if res <= tol:
            return v, Fv, res, it, "converged"
        p = step(v, Fv)
        length = float(np.linalg.norm(p))
        radius = 1.0 + float(np.linalg.norm(v))
        if length > radius:
            p = p * (radius / length)
        lam = 1.0
        for _ in range(9):
            v_try = v + lam * p
            try:
                F_try = F(v_try)
            except SlowflowError:
                F_try = np.nan          # fails the test, as a NaN residual does
            r_try = float(np.linalg.norm(F_try))
            if r_try <= res * (1.0 - 0.1 * lam):
                break
            lam *= 0.5
        else:
            return v, Fv, res, it + 1, "stalled"
        v, Fv, res = v_try, F_try, r_try
    return v, Fv, res, MAX_ITER, "converged" if res <= tol else "max_iter"
