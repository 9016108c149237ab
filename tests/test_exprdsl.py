import math

import numpy as np
import pytest

from conftest import NONSMOOTH_DSL
from slowflow import vdp
from slowflow.errors import (
    DimensionMismatch,
    DivisionByZero,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from slowflow.exprdsl import (
    Binary, Const, FieldSpec, Param, Unary, Var,
    eval_expr, field_from_spec, parse, pretty,
)

TWO_PI = 2.0 * math.pi


def test_parse_abs_expression():
    assert parse("abs(x1)-1") == Binary("-", Unary("abs", Var("x1")), Const(1.0))


def test_parse_param_product():
    got = parse("lam*sin(t)", params=("lam",))
    assert got == Binary("*", Param("lam"), Unary("sin", Var("t")))


def test_power_right_associative():
    assert eval_expr(parse("2^3^2"), 0.0, np.zeros(1), 0.0) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert eval_expr(parse("-2^2"), 0.0, np.zeros(1), 0.0) == -4.0
    assert eval_expr(parse("2^-3"), 0.0, np.zeros(1), 0.0) == 0.125


def test_precedence_and_parens():
    e = parse("1+2*3^2")
    assert eval_expr(e, 0.0, np.zeros(1), 0.0) == 19.0
    assert eval_expr(parse("(1+2)*3"), 0.0, np.zeros(1), 0.0) == 9.0


def test_eval_examples():
    assert eval_expr(parse("abs(x1)-1"), 0.0, np.array([-2.0]), 0.0) == 1.0
    assert abs(eval_expr(parse("sin(t)"), math.pi / 2, np.zeros(1), 0.0) - 1.0) < 1e-15


def test_eval_division_by_zero():
    with pytest.raises(DivisionByZero):
        eval_expr(parse("x1/x2"), 0.0, np.array([1.0, 0.0]), 0.0)


def test_eval_sqrt_negative():
    with pytest.raises(DomainError):
        eval_expr(parse("sqrt(x1)"), 0.0, np.array([-1.0]), 0.0)


def test_abs_and_sign_exact_at_zero():
    assert eval_expr(parse("abs(x1)"), 0.0, np.array([0.0]), 0.0) == 0.0
    assert eval_expr(parse("sign(x1)"), 0.0, np.array([0.0]), 0.0) == 0.0
    assert eval_expr(parse("sign(x1)"), 0.0, np.array([-3.0]), 0.0) == -1.0


def test_unknown_function_rejected():
    with pytest.raises(UnknownIdentifier):
        parse("tan(t)")


def test_unknown_variable_at_eval():
    with pytest.raises(UnknownIdentifier):
        eval_expr(parse("nope"), 0.0, np.zeros(1), 0.0)


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("1+*2")
    assert ei.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse("sin(t")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")


def test_expr_is_immutable():
    e = parse("sin(t)")
    with pytest.raises(AttributeError):
        e.op = "cos"


def test_field_from_spec_basic():
    spec = FieldSpec.from_strings(1, TWO_PI, ["cos(t)"])
    f = field_from_spec(spec)
    for t in (0.0, 1.3, 5.1):
        assert abs(f.evaluate(t, np.zeros(1), 0.0)[0] - math.cos(t)) < 1e-15


def test_field_from_spec_dimension_mismatch():
    spec = FieldSpec(2, TWO_PI, (parse("cos(t)"),))
    with pytest.raises(DimensionMismatch):
        field_from_spec(spec)


def test_field_from_spec_unresolvable_name():
    spec = FieldSpec(1, TWO_PI, (parse("x2"),))
    with pytest.raises(UnknownIdentifier):
        field_from_spec(spec)


CLASSICAL_DSL = [
    "(-((x1*sin(t)+x2*cos(t))^2-1)*(x1*cos(t)-x2*sin(t))"
    "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t))*cos(t)",
    "-((-((x1*sin(t)+x2*cos(t))^2-1)*(x1*cos(t)-x2*sin(t))"
    "-a*(x1*sin(t)+x2*cos(t))+lam*sin(t)))*sin(t)",
]


@pytest.mark.parametrize("components,builder", [
    (NONSMOOTH_DSL, vdp.nonsmooth_vdp_field),
    (CLASSICAL_DSL, vdp.classical_vdp_field),
])
def test_dsl_matches_builtin_pointwise(components, builder):
    a, lam = 0.3, 0.7
    spec = FieldSpec.from_strings(2, TWO_PI, components, {"a": a, "lam": lam})
    dsl_field = field_from_spec(spec)
    built = builder(vdp.ForcingParams(a, lam))
    rng = np.random.default_rng(42)
    ts = np.linspace(0.0, TWO_PI, 100)
    for t in ts:
        x = rng.uniform(-3.0, 3.0, 2)
        eps = rng.uniform(0.0, 0.2)
        d = dsl_field.evaluate(float(t), x, eps)
        b = built.evaluate(float(t), x, eps)
        assert np.max(np.abs(d - b)) < 1e-14


def test_dsl_matches_linear_builtin():
    spec = FieldSpec.from_strings(1, TWO_PI, ["cos(t)-x1"])
    dsl_field = field_from_spec(spec)
    built = vdp.linear_test_field()
    rng = np.random.default_rng(1)
    for _ in range(50):
        t, x = float(rng.uniform(0, TWO_PI)), rng.uniform(-2, 2, 1)
        assert abs(dsl_field.evaluate(t, x, 0.1)[0]
                   - built.evaluate(t, x, 0.1)[0]) < 1e-14


def test_dsl_vectorized_time_evaluation():
    spec = FieldSpec.from_strings(2, TWO_PI, ["sin(t)*x2", "x1-eps"])
    f = field_from_spec(spec)
    ts = np.linspace(0.0, TWO_PI, 33)
    got = f.evaluate(ts, np.array([2.0, 3.0]), 0.5)
    assert got.shape == (33, 2)
    assert np.allclose(got[:, 0], np.sin(ts) * 3.0)
    assert np.allclose(got[:, 1], 1.5)


def test_dsl_ensemble_evaluation():
    spec = FieldSpec.from_strings(2, TWO_PI, ["x1+x2", "x1*x2"])
    f = field_from_spec(spec)
    X = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    got = f.evaluate(0.7, X, 0.0)
    assert got.shape == (3, 2)
    assert np.allclose(got[:, 0], X[:, 0] + X[:, 1])
    assert np.allclose(got[:, 1], X[:, 0] * X[:, 1])


# --- pretty-print round trip -----------------------------------------------------

_FUNCS = ("sin", "cos", "abs", "sqrt", "sign", "neg")
_BINOPS = ("+", "-", "*", "/", "^")


def _random_tree(rng, depth, params):
    if depth == 0 or rng.uniform() < 0.25:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Const(float(np.round(rng.uniform(0.0, 9.0), 3)))
        if kind == 1:
            return Var("t")
        if kind == 2:
            return Var(f"x{rng.integers(1, 4)}")
        return Param(params[rng.integers(0, len(params))])
    if rng.uniform() < 0.4:
        return Unary(_FUNCS[rng.integers(0, len(_FUNCS))],
                     _random_tree(rng, depth - 1, params))
    op = _BINOPS[rng.integers(0, len(_BINOPS))]
    return Binary(op, _random_tree(rng, depth - 1, params),
                  _random_tree(rng, depth - 1, params))


def test_pretty_print_round_trip():
    rng = np.random.default_rng(2024)
    params = ("lam", "mu")
    for _ in range(300):
        tree = _random_tree(rng, int(rng.integers(1, 7)), params)
        assert parse(pretty(tree), params) == tree
