import math

import numpy as np
import pytest

from slowflow import newton
from slowflow.errors import MaxIterations, NonFiniteValue, SingularJacobian


def _atan_jac(v):
    return np.array([[1.0 / (1.0 + v[0] * v[0])]])


def _one(v):
    return np.eye(1)


def test_atan_converges_where_undamped_newton_diverges():
    x = 1.5
    for _ in range(5):
        x = x - math.atan(x) * (1.0 + x * x)
    assert abs(x) > 1e3               # undamped Newton diverges from 1.5
    v, Fv, res, iters = newton.solve(np.arctan, _atan_jac, np.array([1.5]), 1e-12)
    assert res <= 1e-12 and abs(v[0]) <= 1e-12 and iters <= 10
    assert res == abs(Fv[0])


def test_trust_region_cuts_long_steps():
    # a step of length 99 from |v| = 1 is cut to length 2; no trial within
    # that radius decreases |F| enough, so the solve stalls
    tried = []

    def F(v):
        tried.append(v.copy())
        return v - 100.0

    with pytest.raises(MaxIterations, match="stalled"):
        newton.solve(F, _one, np.array([1.0]), 1e-12)
    assert abs(tried[1][0] - 3.0) <= 1e-12


def test_jacobian_is_taken_where_F_was_last_evaluated():
    # a Jacobian 2.5 times too small overshoots, so every iteration backtracks
    # once; jac must be called at the accepted trial, the last F point
    seen = []

    def F(v):
        seen.append(("F", v[0]))
        return np.arctan(v)

    def jac(v):
        seen.append(("jac", v[0]))
        return 0.4 * _atan_jac(v)

    v, _, _, iters = newton.solve(F, jac, np.array([0.5]), 1e-12)
    assert abs(v[0]) <= 1e-12
    calls = [i for i, (what, _) in enumerate(seen) if what == "jac"]
    assert len(calls) == iters and len(seen) - iters > iters + 1     # backtracked
    assert all(seen[i - 1] == ("F", seen[i][1]) for i in calls)


def test_failed_trial_counts_as_no_decrease():
    # trials right of 2 raise: the line search halves back inside the domain
    raised = []

    def F(v):
        if v[0] > 2.0:
            raised.append(v[0])
            raise NonFiniteValue("outside the domain")
        return v - 1.5

    v, _, _, _ = newton.solve(F, lambda v: 0.25 * np.eye(1), np.array([0.0]), 1e-12)
    assert raised and abs(v[0] - 1.5) <= 1e-12


def test_stall_without_fallback():
    # F = v^2 + 1 has no root: every step fails the Armijo test at the
    # minimum of |F|, and the loop stops there instead of taking a full step
    with pytest.raises(MaxIterations) as exc:
        newton.solve(lambda v: v * v + 1.0, lambda v: -np.eye(1),
                     np.array([0.0]), 1e-12)
    assert str(exc.value) == ("Newton stalled at residual 1.000e+00 (> tol 1e-12) "
                              "after 1 iterations")


def test_max_iter():
    # half the Newton step buys a sufficient decrease every time but never
    # reaches the target
    with pytest.raises(MaxIterations) as exc:
        newton.solve(lambda v: v, lambda v: 2.0 * np.eye(1), np.array([1.0]), 1e-300)
    assert str(exc.value) == (f"Newton max_iter at residual {0.5 ** newton.MAX_ITER:.3e} "
                              f"(> tol 1e-300) after {newton.MAX_ITER} iterations")


def test_singular_step_raises():
    with pytest.raises(SingularJacobian, match=r"Newton Jacobian singular at \[1\.\]"):
        newton.solve(lambda v: v, lambda v: np.zeros((1, 1)), np.array([1.0]), 1e-12)
