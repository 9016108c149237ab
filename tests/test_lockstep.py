"""The one Newton driver (``newton.run``) and the one per-row rule for stacked
calls (``errors.each_row``)."""

import numpy as np
import pytest

from slowflow import newton
from slowflow.errors import DomainError, SlowflowError, each_row


def _atan_answer(calls):
    # arctan and its derivative on a stack of points, one row per solve
    def answer(what, X):
        calls.append((what, len(X)))
        if what == "F":
            return np.arctan(X)
        return (1.0 / (1.0 + X * X))[:, :, None]
    return answer


def _atan_alone(v):
    return newton.solve(np.arctan, lambda v: np.array([[1.0 / (1.0 + v[0] * v[0])]]),
                        np.array([v]), 1e-12)


def _same(got, want):
    v, Fv, res, iters = want
    return (np.array_equal(got[0], v) and np.array_equal(got[1], Fv)
            and got[2] == res and got[3] == iters)


def test_run_lockstep_gives_each_solve_what_it_gets_alone():
    calls = []
    out = newton.run([newton.iterate(np.array([v]), 1e-12) for v in (1.5, 0.5)],
                     _atan_answer(calls))
    assert _same(out[0], _atan_alone(1.5)) and _same(out[1], _atan_alone(0.5))
    # both solves share the first F and the first J: one stacked call each
    assert calls[:2] == [("F", 2), ("J", 2)]
    assert out[0][3] != out[1][3]       # and each stops on its own


def test_run_gives_a_row_its_error_and_the_other_its_result():
    calls, err = [], DomainError("x < -5")
    atan = _atan_answer(calls)

    def answer(what, X):
        if (X < -5.0).any():
            calls.append(("raise", len(X)))
            raise err
        return atan(what, X)

    out = newton.run([newton.iterate(np.array([v]), 1e-12) for v in (1.5, -10.0)], answer)
    assert _same(out[0], _atan_alone(1.5))
    assert out[1] is err
    # the stack raised, then each row went alone
    assert calls[:3] == [("raise", 2), ("F", 1), ("raise", 1)]


def test_solve_raises_the_error_of_its_row():
    def F(v):
        raise DomainError("F")

    with pytest.raises(DomainError):
        newton.solve(F, lambda v: np.eye(1), np.array([1.0]), 1e-12)


def test_each_row_retries_a_stack_that_raises_row_by_row():
    calls = []

    def call(X):
        calls.append(len(X))
        if (X < 0).any():
            raise DomainError("negative")
        return 2.0 * X

    X = np.array([[1.0], [-1.0], [3.0]])
    out = each_row(call, X)
    assert calls == [3, 1, 1, 1]
    assert np.array_equal(out[0], [2.0]) and np.array_equal(out[2], [6.0])
    assert isinstance(out[1], DomainError)
    # a stack that does not raise is one call
    calls.clear()
    assert np.array_equal(np.array(each_row(call, X[[0, 2]])), [[2.0], [6.0]])
    assert calls == [2]


def test_each_row_does_not_retry_a_stack_of_one():
    calls = []

    def call(X):
        calls.append(len(X))
        raise DomainError("always")

    out = each_row(call, np.array([[1.0]]))
    assert calls == [1]
    assert len(out) == 1 and isinstance(out[0], SlowflowError)


def test_each_row_lets_other_errors_through():
    def call(X):
        raise ValueError("not a numerical failure")

    with pytest.raises(ValueError):
        each_row(call, np.array([[1.0], [2.0]]))
