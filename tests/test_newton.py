import math

import numpy as np
import pytest

from slowflow import newton
from slowflow.errors import NonFiniteValue


def _atan_step(v, Fv):
    return -Fv * (1.0 + v * v)


def test_atan_converges_where_undamped_newton_diverges():
    x = 1.5
    for _ in range(5):
        x = x - math.atan(x) * (1.0 + x * x)
    assert abs(x) > 1e3               # undamped Newton diverges from 1.5
    v, Fv, res, iters, stop = newton.solve(np.arctan, np.array([1.5]), 1e-12,
                                           _atan_step)
    assert stop == "converged"
    assert res <= 1e-12 and abs(v[0]) <= 1e-12 and iters <= 10


def test_trust_region_cuts_long_steps():
    # a step of length 100 from |v| = 1 is cut to length 2
    tried = []

    def F(v):
        tried.append(v.copy())
        return v - 100.0

    newton.solve(F, np.array([1.0]), 1e-12, lambda v, Fv: -Fv)
    assert abs(tried[1][0] - 3.0) <= 1e-12


def test_failed_trial_counts_as_no_decrease():
    # trials right of 2 raise: the line search halves back inside the domain
    raised = []

    def F(v):
        if v[0] > 2.0:
            raised.append(v[0])
            raise NonFiniteValue("outside the domain")
        return v - 1.5

    v, _, _, _, stop = newton.solve(F, np.array([0.0]), 1e-12,
                                    lambda v, Fv: -4.0 * Fv)
    assert raised and stop == "converged" and abs(v[0] - 1.5) <= 1e-12


def test_stall_without_fallback():
    # F = v^2 + 1 has no root: every step fails the Armijo test at the
    # minimum of |F|, and the loop stops there instead of taking a full step
    v, _, res, iters, stop = newton.solve(
        lambda v: v * v + 1.0, np.array([0.0]), 1e-12, lambda v, Fv: np.ones(1))
    assert stop == "stalled" and iters == 1 and v[0] == 0.0 and res == 1.0


def test_max_iter():
    # half the Newton step buys a sufficient decrease every time but never
    # reaches the target
    v, _, res, iters, stop = newton.solve(
        lambda v: v, np.array([1.0]), 1e-300, lambda v, Fv: -0.5 * Fv)
    assert stop == "max_iter" and iters == newton.MAX_ITER
    assert res == pytest.approx(0.5 ** newton.MAX_ITER)
