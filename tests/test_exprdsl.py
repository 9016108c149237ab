import linecache
import math
import re
import time
import traceback

import numpy as np
import pytest

from conftest import NONSMOOTH_DSL, certified_forced_params
from slowflow import vdp
from slowflow.averaging import averaged_jacobian
from slowflow.certify import theorem_report
from slowflow.errors import (
    DimensionMismatch,
    DivisionByZero,
    DomainError,
    ExprSyntaxError,
    ParameterError,
    UnknownIdentifier,
)
from slowflow import exprdsl
from slowflow.odeint import flow
from slowflow.exprdsl import (
    MAX_DEPTH, Binary, Const, FieldSpec, Param, Unary, Var, _Tape,
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


# --- reference tree walk ------------------------------------------------------------
# The evaluator the compiled tape replaced: one recursive walk per component
# and call, names resolved on the way.  The tape must reproduce its values bit
# for bit and raise the same errors naming the same subexpressions.

def _ref_eval(e, t, x, eps, params):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, Param)):
        name = e.name
        if name == "t":
            return t
        if name == "eps":
            return eps
        if name in params:
            return params[name]
        if name.startswith("x") and name[1:].isdigit():
            i = int(name[1:])
            if 1 <= i <= x.shape[-1]:
                return x[..., i - 1]
        raise UnknownIdentifier(name)
    if isinstance(e, Unary):
        a = _ref_eval(e.arg, t, x, eps, params)
        if e.op == "neg":
            return -a
        if e.op == "sin":
            return np.sin(a)
        if e.op == "cos":
            return np.cos(a)
        if e.op == "abs":
            return np.abs(a)
        if e.op == "sign":
            return np.sign(a)
        if e.op == "sqrt":
            if np.any(np.asarray(a) < 0):
                raise DomainError(pretty(e), "square root of a negative number")
            return np.sqrt(a)
        raise UnknownIdentifier(e.op)
    l = _ref_eval(e.left, t, x, eps, params)
    r = _ref_eval(e.right, t, x, eps, params)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return l - r
    if e.op == "*":
        return l * r
    if e.op == "/":
        if np.any(np.asarray(r) == 0):
            raise DivisionByZero(pretty(e))
        return l / r
    if e.op == "^":
        out = np.power(l, r)
        if not np.all(np.isfinite(out)):
            raise DomainError(pretty(e), "non-finite power")
        return out
    raise UnknownIdentifier(e.op)


# partial derivatives of each op's result in its arguments: (a, b, out) ->
# (d out/da, d out/db)
_REF_PARTIALS = {
    "neg": lambda a, b, out: (-1.0, None),
    "sin": lambda a, b, out: (np.cos(a), None),
    "cos": lambda a, b, out: (-np.sin(a), None),
    "abs": lambda a, b, out: (np.sign(a), None),
    "sign": lambda a, b, out: (0.0, None),
    "sqrt": lambda a, b, out: (0.5 / out, None),
    "+": lambda a, b, out: (1.0, 1.0),
    "-": lambda a, b, out: (1.0, -1.0),
    "*": lambda a, b, out: (b, a),
    "/": lambda a, b, out: (1.0 / b, -out / b),
    "^": lambda a, b, out: (b * a ** (b - 1.0), out * np.log(a)),
}


def _ref_tangent(e, t, x, eps, params):
    """(value, d value/dx) by a forward-mode walk, the tangent None where e
    does not depend on x; a side without a tangent is left out of d = pa*da +
    pb*db, and a checked op whose tangent is not finite raises DomainError."""
    if isinstance(e, Var) and e.name not in ("t", "eps"):
        return _ref_eval(e, t, x, eps, params), np.eye(x.shape[-1])[int(e.name[1:]) - 1]
    if not isinstance(e, (Unary, Binary)):
        return _ref_eval(e, t, x, eps, params), None
    kids = [e.arg] if isinstance(e, Unary) else [e.left, e.right]
    (a, da), (b, db) = [_ref_tangent(c, t, x, eps, params) for c in kids] + [(None, None)] * (2 - len(kids))
    out = _ref_eval(e, t, x, eps, params)
    if da is None and db is None:
        return out, None
    pa, pb = _REF_PARTIALS[e.op](a, b, out)
    d = pb * db if da is None else pa * da if db is None else pa * da + pb * db
    if e.op in ("sqrt", "/", "^") and not np.all(np.isfinite(d)):
        raise DomainError(pretty(e), "non-finite derivative")
    return out, d


def _ref_jacobian(components, k, params):
    """The tape's ``jacobian`` over the reference walk: every value first, so a
    domain error anywhere comes before a non-finite derivative."""

    def jacobian(t, x, eps):
        x = np.asarray(x, dtype=float)
        rows = np.shape(t)
        t = np.asarray(t, dtype=float)[:, None] if rows else t
        x = x[:, None] if x.ndim == 2 else x
        with np.errstate(all="ignore"):
            for c in components:
                _ref_eval(c, t, x, eps, params)
            dots = [_ref_tangent(c, t, x, eps, params)[1] for c in components]
        if not rows:
            return np.array([np.zeros(k) if d is None else d for d in dots])
        J = np.zeros(rows + (len(dots), k))
        for r, d in enumerate(dots):
            if d is not None:
                J[:, r] = d
        return J

    return jacobian


def _sign_of_state(e, under_sign=False):
    """Whether some ``sign`` in e takes an argument that names x1..xk."""
    if isinstance(e, Var):
        return under_sign and e.name.startswith("x")
    if isinstance(e, Unary):
        return _sign_of_state(e.arg, under_sign or e.op == "sign")
    if isinstance(e, Binary):
        return _sign_of_state(e.left, under_sign) or _sign_of_state(e.right, under_sign)
    return False


def _ref_field(components, k, params):
    """The replaced ``field_from_spec`` evaluate over the reference walk."""

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            vals = [_ref_eval(c, t, x, eps, params) for c in components]
        tarr = np.asarray(t, dtype=float)
        if x.ndim == 1 and tarr.ndim == 0:
            return np.array(vals, dtype=float)
        out = np.empty((tarr.shape if tarr.ndim else x.shape[:-1]) + (k,))
        for j, v in enumerate(vals):
            out[..., j] = v
        return out

    return evaluate


def _outcome(fn, *args):
    """(value, None) or (None, (error class, message)) of one call."""
    try:
        return fn(*args), None
    except (DivisionByZero, DomainError) as exc:
        return None, (type(exc), str(exc))


def _same(a, b):
    if a[1] is not None or b[1] is not None:
        return a[1] == b[1]
    return (np.shape(a[0]) == np.shape(b[0])
            and np.array_equal(a[0], b[0], equal_nan=True))


# the four evaluate shapes of PeriodicField, then paired eps
_RNG_SHAPES = np.random.default_rng(11)
_M = 7
_SHAPES = [
    (1.3, _RNG_SHAPES.uniform(-2, 2, 3), 0.05),
    (np.linspace(0.0, TWO_PI, 9), _RNG_SHAPES.uniform(-2, 2, 3), 0.05),
    (0.4, _RNG_SHAPES.uniform(-2, 2, (_M, 3)), 0.05),
    (_RNG_SHAPES.uniform(0, TWO_PI, _M), _RNG_SHAPES.uniform(-2, 2, (_M, 3)), 0.05),
    (_RNG_SHAPES.uniform(0, TWO_PI, _M), _RNG_SHAPES.uniform(-2, 2, (_M, 3)),
     _RNG_SHAPES.uniform(0, 0.2, _M)),
]


def test_tape_bit_identical_to_tree_walk():
    rng = np.random.default_rng(2024)
    names = ("lam", "mu")
    params = {"lam": 0.7, "mu": -1.3}
    raised = 0
    trees = [_random_tree(rng, int(rng.integers(1, 7)), names) for _ in range(300)]
    for tree in trees:
        for t, x, eps in _SHAPES:
            with np.errstate(all="ignore"):
                want = _outcome(_ref_eval, tree, t, x, eps, params)
            got = _outcome(eval_expr, tree, t, x, eps, params)
            assert _same(got, want), pretty(tree)
            raised += got[1] is not None
    assert raised > 0          # the trees do reach the domain checks
    # the same trees as the components of 3-dimensional fields, which reject
    # a jump that moves with x
    for i in range(0, 300, 3):
        comps = tuple(trees[i:i + 3])
        spec = FieldSpec(3, TWO_PI, comps, tuple(params.items()))
        if any(map(_sign_of_state, comps)):
            with pytest.raises(DomainError, match=re.escape("sign of an argument in x1..xk")):
                field_from_spec(spec)
            continue
        f = field_from_spec(spec)
        for t, x, eps in _SHAPES:
            want = _outcome(_ref_field(comps, 3, params), t, x, eps)
            assert _same(_outcome(f.evaluate, t, x, eps), want), list(map(pretty, comps))


def test_jacobian_bit_identical_to_forward_mode_tree_walk():
    rng = np.random.default_rng(2024)
    names = ("lam", "mu")
    params = {"lam": 0.7, "mu": -1.3}
    trees = [_random_tree(rng, int(rng.integers(1, 7)), names) for _ in range(300)]
    raised = checked = 0
    # each tree alone, then three trees as the components of one field
    zero = Const(0.0)
    groups = [(tree, zero, zero) for tree in trees] + [tuple(trees[i:i + 3]) for i in range(0, 300, 3)]
    for comps in groups:
        if any(map(_sign_of_state, comps)):
            continue
        f = field_from_spec(FieldSpec(3, TWO_PI, comps, tuple(params.items())))
        for t, x, eps in (_SHAPES[0], _SHAPES[1], _SHAPES[3]):    # the jacobian shapes
            want = _outcome(_ref_jacobian(comps, 3, params), t, x, eps)
            got = _outcome(f.jacobian, t, x, eps)
            assert _same(got, want), list(map(pretty, comps))
            raised += got[1] is not None
            checked += 1
    assert checked > 900 and raised > 0


def _bits(outcome):
    """An outcome with its NaNs made one NaN, for a comparison of bits."""
    if outcome[1] is not None:
        return outcome[1]
    a = np.asarray(outcome[0], dtype=float)
    return a.shape, np.where(np.isnan(a), np.nan, a).tobytes()


def _float_parity(f, t, x, eps):
    # floats at one point against evaluate, and with jac against both
    plain = _outcome(lambda: f.floats(t, x.tolist(), eps))
    full = _outcome(lambda: np.concatenate([np.ravel(v)
                                            for v in f.floats(t, x.tolist(), eps, True)]))
    assert _bits(plain) == _bits(_outcome(lambda: f.evaluate(t, x, eps)))
    assert _bits(full) == _bits(_outcome(
        lambda: np.concatenate([f.evaluate(t, x, eps), f.jacobian(t, x, eps).ravel()])))
    return plain[1] is not None, full[1] is not None


def test_floats_bit_identical_to_evaluate_and_jacobian():
    # the random trees of the tape test, alone and in threes, at scalar t and
    # a 1-D x: the float program gives the bits and errors of the numpy ones
    rng = np.random.default_rng(2024)
    params = {"lam": 0.7, "mu": -1.3}
    trees = [_random_tree(rng, int(rng.integers(1, 7)), ("lam", "mu")) for _ in range(300)]
    zero = Const(0.0)
    groups = [(tree, zero, zero) for tree in trees] + [tuple(trees[i:i + 3]) for i in range(0, 300, 3)]
    points = [_SHAPES[0], (0.0, np.array([0.0, 1.0, -1.0]), 0.0)]
    raised = [0, 0]
    for comps in groups:
        if any(map(_sign_of_state, comps)):
            continue
        f = field_from_spec(FieldSpec(3, TWO_PI, comps, tuple(params.items())))
        for t, x, eps in points:
            for j, r in enumerate(_float_parity(f, t, x, eps)):
                raised[j] += r
    assert min(raised) > 0 and raised[1] > raised[0]


@pytest.mark.parametrize("source,x", [
    ("sin(x1 * 1e300 * 1e300)", 1.0),       # math.sin(inf) raises, numpy gives NaN
    ("sqrt(x1)", 0.0),                      # 0.5 / 0.0 raises, numpy's inf fails the check
    ("x1 ^ 0.5", -8.0),                     # a complex power in Python
    ("2 ^ x1", 2000.0),                     # an overflow
    ("0.0 ^ x1", -1.0),                     # 0.0 ** -1 raises
    ("x1 ^ x1", 0.0),                       # log(0) in the tangent
    ("(x1 - x1) ^ 2.0 + x1 ^ 3", 1.5),      # powers numpy's pow and math.pow may round apart
])
def test_floats_fall_back_to_numpy_where_floats_raise(source, x):
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [source]))
    _float_parity(f, 0.3, np.array([x]), 0.0)


def test_float_program_shows_in_tracebacks():
    # x1 falls through 0 mid-flow, and sqrt(x1) fails in the float program
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["sqrt(x1) - 1"]))
    with pytest.raises(DomainError, match="square root of a negative number") as ei:
        flow(f, 0.0, TWO_PI, [0.5], 1.0)
    frames = traceback.extract_tb(ei.value.__traceback__)
    assert "<slowflow dopri n=1>" in [fr.filename for fr in frames]
    assert re.fullmatch(r"<slowflow dsl \d+ floats>", frames[-1].filename)
    assert "raise _fail(" in frames[-1].line


@pytest.mark.parametrize("params,text", [
    ({"t": 5.0}, "parameter 't' shadows a variable"),
    ({"eps": 5.0}, "parameter 'eps' shadows a variable"),
    ({"x2": 5.0}, "parameter 'x2' shadows a variable"),
    ({"c": "abc"}, "parameter 'c' must be a finite real"),
    ({"c": math.inf}, "parameter 'c' must be a finite real"),
    ({"c": True}, "parameter 'c' must be a finite real"),
    ({"c": 10 ** 400}, "parameter 'c' must be a finite real"),
])
def test_parameters_are_checked(params, text):
    with pytest.raises(ParameterError, match=re.escape(text)):
        FieldSpec.from_strings(2, TWO_PI, ["-x1 + t", "x2"], params)
    with pytest.raises(ParameterError, match=re.escape(text)):
        field_from_spec(FieldSpec(2, TWO_PI, (parse("-x1"), parse("x2")), tuple(params.items())))
    # x3 names no variable of a 2-dimensional field, and an int is a real
    f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, ["x3 - x1", "2 ^ c"], {"x3": 1, "c": -1}))
    assert f.evaluate(0.0, np.zeros(2), 0.0).tolist() == [1.0, 0.5]


@pytest.mark.parametrize("source,error,subexpr", [
    ("x2 + sqrt(x1 - 3)", DomainError, "sqrt(x1 - 3.0)"),
    ("1 + x2 / (x1 - x1)", DivisionByZero, "x2 / (x1 - x1)"),
    ("x2 * (x1 - 5)^0.5", DomainError, "(x1 - 5.0) ^ 0.5"),
    # post-order: the left operand's failure is the one reported
    ("sqrt(-x2) + 1 / (x1 - x1)", DomainError, "sqrt(-x2)"),
    ("1 / (x1 - x1) + sqrt(-x2)", DivisionByZero, "1.0 / (x1 - x1)"),
])
def test_domain_errors_name_the_subexpression(source, error, subexpr):
    x = np.array([1.0, 2.0])
    with pytest.raises(error) as ei:
        eval_expr(parse(source), 0.3, x, 0.0)
    assert ei.value.subexpr == subexpr
    with pytest.raises(error) as ref:
        with np.errstate(all="ignore"):
            _ref_eval(parse(source), 0.3, x, 0.0, {})
    assert str(ei.value) == str(ref.value)
    f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, [source, "x1"]))
    with pytest.raises(error, match=re.escape(repr(subexpr))):
        f.evaluate(np.linspace(0.0, 1.0, 5), x, 0.0)


def test_signed_zero_constants_keep_their_slots():
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    f = field_from_spec(FieldSpec(2, TWO_PI, (Const(0.0), Const(-0.0))))
    assert np.signbit(f.evaluate(0.0, np.zeros(2), 0.0)).tolist() == [False, True]
    got = eval_expr(Binary("*", Const(-0.0), Const(0.0)), 0.0, np.zeros(1), 0.0)
    assert np.signbit(got)


def test_long_sum_compiles():
    # a left-leaning chain is as deep as it is long; the nesting cap does not
    # bound it
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["+".join(["x1"] * 300)]))
    assert f.evaluate(0.0, np.array([1.0]), 0.0)[0] == 300.0


@pytest.mark.parametrize("op,value,slope", [("+", 5000.0, 5000.0), ("*", 1.0, 5000.0)])
def test_long_chain_compiles_evaluates_and_differentiates(op, value, slope):
    # 5,000 terms: far past Python's recursion limit, compiled off a stack
    source = op.join(["x1"] * 5000)
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [source]))
    x = np.array([1.0])
    assert f.evaluate(0.0, x, 0.0)[0] == value
    assert f.jacobian(0.0, x, 0.0)[0, 0] == slope
    assert pretty(parse(source)) == f" {op} ".join(["x1"] * 5000)


def test_long_chain_compares_hashes_and_reprs():
    # ==, hash and repr walk the tree off a stack, as the compiler does
    source = "+".join(["x1"] * 5000)
    tree = parse(source)
    assert tree == parse(source) and hash(tree) == hash(parse(source))
    assert tree != parse("x2+" + source[3:])        # differs in the deepest leaf
    assert repr(tree).count("Var(name='x1')") == 5000
    assert repr(parse("-x1^2")) == (
        "Unary(op='neg', arg=Binary(op='^', left=Var(name='x1'), "
        "right=Const(value=2.0)))")


@pytest.mark.parametrize("source", [
    "(" * 300 + "x1" + ")" * 300,
    "-" * 1000 + "x1",
    "2^" * 1000 + "x1",
    "sin(" * 300 + "x1" + ")" * 300,
])
def test_deep_nesting_is_a_syntax_error(source):
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as ei:
        parse(source)
    assert 0 < ei.value.position < len(source)
    assert any(str(MAX_DEPTH) in e for e in ei.value.expected)
    with pytest.raises(ExprSyntaxError):
        FieldSpec.from_strings(1, TWO_PI, [source])
    assert time.perf_counter() - start < 1.0


def test_nesting_up_to_the_cap_parses():
    depth = MAX_DEPTH - 1
    e = parse("(" * depth + "x1" + ")" * depth)
    assert e == Var("x1")
    assert eval_expr(parse("-" * depth + "x1"), 0.0, np.array([2.0]), 0.0) == -2.0


# --- the emitted source -----------------------------------------------------------

_NAMED = ["np*x1 + _c*sin(t) - r2*abs(x2 - d0)", "_fail/x2 + d2^2*x1 - sqrt(x1 + np)*eps"]


def test_parameter_names_never_reach_the_source():
    # parameters named like the source's own identifiers behave as neutral names
    values = {"np": 0.3, "_c": 1.7, "_fail": -0.4, "r2": 2.5, "d2": 0.8, "d0": 0.25}
    neutral = {f"p{i}": v for i, v in enumerate(values.values())}
    rename = dict(zip(values, neutral))
    comps = [re.sub(r"\b(np|_c|_fail|r2|d2|d0)\b", lambda m: rename[m.group(0)], c) for c in _NAMED]
    f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, _NAMED, values))
    g = field_from_spec(FieldSpec.from_strings(2, TWO_PI, comps, neutral))
    for t, x, eps in (_SHAPES[0], _SHAPES[1], _SHAPES[3]):
        x = np.abs(x[..., :2]) + 0.5
        assert np.array_equal(f.evaluate(t, x, eps), g.evaluate(t, x, eps))
        assert np.array_equal(f.jacobian(t, x, eps), g.jacobian(t, x, eps))
    assert f.kinks(np.array([1.0, 1.0]), 0.0) == g.kinks(np.array([1.0, 1.0]), 0.0)


def test_fields_of_one_structure_keep_their_own_parameters():
    # built alternately, they share compiled code but not constants
    fields = []
    for a in (0.1, 2.0, 0.1, -3.0):
        spec = FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL, {"a": a, "lam": 1.0 - a})
        fields.append((field_from_spec(spec), _ref_field(spec.components, 2, dict(spec.params))))
    t, x, eps = _SHAPES[1][0], np.array([0.4, -1.1]), 0.05
    for f, ref in fields:
        assert np.array_equal(f.evaluate(t, x, eps), ref(t, x, eps))
    assert not np.array_equal(fields[0][0].evaluate(t, x, eps), fields[1][0].evaluate(t, x, eps))
    codes = {f.jacobian.__self__.values.__code__ for f, _ in fields}
    assert len(codes) == 1


def test_compiled_programs_stay_within_their_bound():
    # more distinct structures than the bound (a chain of sin and cos, one
    # per bit pattern): the kept programs and their linecache entries stay
    # within it, and the first field keeps its program and its bits
    def chain(i):
        e = "x1"
        for j in range(9):
            e = f"{'sin' if i >> j & 1 else 'cos'}({e})"
        return e

    x, jac = np.array([0.7]), lambda f: f.jacobian(0.3, x, 0.0).tobytes()
    first = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [chain(0)]))
    want = first.evaluate(0.3, x, 0.0).tobytes(), jac(first)
    names = set()
    for i in range(exprdsl.COMPILED_MAX):
        f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [chain(i + 1)]))
        jac(f)
        names.add(f.jacobian.__self__.values.__code__.co_filename)
    assert len(names) == exprdsl.COMPILED_MAX       # the names stay unique
    assert len(exprdsl._made) == exprdsl.COMPILED_MAX
    dsl = [name for name in linecache.cache if name.startswith("<slowflow dsl ")]
    assert len(dsl) <= exprdsl.COMPILED_MAX
    assert (first.evaluate(0.3, x, 0.0).tobytes(), jac(first)) == want


@pytest.mark.parametrize("call,text", [
    ("evaluate", "square root of a negative number"), ("jacobian", "non-finite derivative")])
def test_domain_errors_point_into_the_emitted_source(call, text):
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["cos(t) + sqrt(x1 - 3)"]))
    with pytest.raises(DomainError, match=text) as ei:
        getattr(f, call)(0.5, np.array([3.0 if call == "jacobian" else 1.0]), 0.0)
    raised = traceback.extract_tb(ei.value.__traceback__)[-1]
    assert raised.filename.startswith("<slowflow dsl ")
    assert "raise _fail(" in linecache.getline(raised.filename, raised.lineno)


# --- switching structure ---------------------------------------------------------

def _twin(a=0.1, lam=1.0):
    spec = FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL, {"a": a, "lam": lam})
    return field_from_spec(spec), vdp.nonsmooth_vdp_field(vdp.ForcingParams(a, lam))


def test_twin_compiles_to_shared_slots():
    spec = FieldSpec.from_strings(2, TWO_PI, NONSMOOTH_DSL, {"a": 0.1, "lam": 1.0})
    tape = _Tape(spec.components, dict(spec.params), 2)
    # u = x1*sin(t)+x2*cos(t) appears four times, sin(t) and cos(t) more
    # often; every distinct subtree is computed once
    assert len(tape.code) == 19
    assert len(tape.switches) == 1       # both abs(u) share their argument


def test_twin_kinks_match_builtin():
    f, b = _twin()
    rng = np.random.default_rng(5)
    for v in rng.uniform(-3.0, 3.0, (200, 2)):
        got, want = f.kinks(v, 0.0), b.kinks(v, 0.0)
        assert len(got) == len(want) == 2
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_twin_averaged_jacobian_matches_closed_form():
    a = 0.1
    f, _ = _twin(a)
    rng = np.random.default_rng(6)
    worst = 0.0
    for v in rng.uniform(-3.0, 3.0, (200, 2)):
        J = averaged_jacobian(f, v, 4096)
        worst = max(worst, float(np.max(np.abs(
            J - vdp.averaged_jacobian_closed_form("nonsmooth", v[0], v[1], a)))))
    assert worst <= 1e-10


def test_twin_certified_at_closed_form_root():
    a, lam, root = certified_forced_params()
    f, b = _twin(a, lam)
    rep = theorem_report(f, root)
    assert rep.verdict == "certified" == theorem_report(b, root).verdict
    assert rep.residual <= 1e-12


def test_kinks_only_for_switching_fields():
    assert field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["cos(t)-x1"])).kinks is None
    f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, ["abs(x2) - x1", "sign(cos(t))"]))
    # abs(x2) is constant in t: broadcast, and never crossing zero
    got = f.kinks(np.array([0.3, -0.5]), 0.0)
    assert np.allclose(got, [math.pi / 2, 3 * math.pi / 2], rtol=0, atol=1e-12)
    assert f.kinks(np.array([0.3, 0.0]), 0.0) == got
    # a switching function that reads eps
    g = field_from_spec(FieldSpec.from_strings(1, 2.0, ["abs(t - 1 - eps)"]))
    assert abs(g.kinks(np.zeros(1), 0.25)[0] - 1.25) <= 1e-12
    assert g.kinks(np.zeros(1), 5.0) == ()


def test_kinks_find_two_zeros_in_one_scan_interval():
    # sin(t + 0.05) - 0.99999 dips below zero for 0.009 near t = 1.52, inside
    # one 2 pi / 64 scan interval, and changes sign at no grid point
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["abs(sin(t + 0.05) - 0.99999)"]))
    a = math.asin(0.99999)
    got = f.kinks(np.zeros(1), 0.0)
    assert np.allclose(got, [a - 0.05, math.pi - a - 0.05], rtol=0, atol=1e-12)
    # two switching functions with such dips, one of depth 1e-9
    h = field_from_spec(FieldSpec.from_strings(
        1, TWO_PI, ["abs(cos(t - 3) - 0.99999) + abs(cos(t - 1.3) - 0.999999999)"]))
    d1, d2 = math.acos(0.99999), math.acos(0.999999999)
    assert np.allclose(h.kinks(np.zeros(1), 0.0), [1.3 - d2, 1.3 + d2, 3 - d1, 3 + d1],
                       rtol=0, atol=1e-9)
    # a dip that stays above zero adds no kink
    g = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["abs(sin(t + 0.05) - 1.00001)"]))
    assert g.kinks(np.zeros(1), 0.0) == ()


@pytest.mark.parametrize("c", [0.03, TWO_PI - 0.03])
def test_kinks_find_a_dip_in_an_end_scan_interval(c):
    # the grid minimum of |s| is the first (last) scan point, so the dip lies
    # in the first (last) interval and has no interior grid minimum
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [f"abs(cos(t - {c!r}) - 0.99999)"]))
    d = math.acos(0.99999)
    assert np.allclose(f.kinks(np.zeros(1), 0.0), [c - d, c + d], rtol=0, atol=1e-12)


# --- forward-mode jacobian ---------------------------------------------------------

def test_twin_jacobian_matches_builtin():
    f, b = _twin()
    rng = np.random.default_rng(7)
    for _ in range(200):
        t, x = float(rng.uniform(0.0, TWO_PI)), rng.uniform(-3.0, 3.0, 2)
        assert np.max(np.abs(f.jacobian(t, x, 0.05) - b.jacobian(t, x, 0.05))) <= 1e-12


def test_jacobian_matches_central_difference_for_every_op():
    # every function and operator, on a box where all of them are smooth
    f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, [
        "sin(x1)*cos(x2) + sqrt(x1)/x2 - x1^x2 + abs(x2)*x1",
        "-x1^2 + 2^x2 + sign(cos(t))*x2 - (x2 - 3)^3 + eps*t*x1"]))
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(50):
        t, x = float(rng.uniform(0.0, TWO_PI)), rng.uniform(0.5, 2.0, 2)
        fd = np.column_stack([(f.evaluate(t, x + h * e, 0.3) - f.evaluate(t, x - h * e, 0.3))
                              / (2.0 * h) for e in np.eye(2)])
        assert np.max(np.abs(f.jacobian(t, x, 0.3) - fd)) <= 1e-7


def test_jacobian_corners_and_constant_exponents():
    # abs' = sign (0 at the corner), sign of t is a constant factor, and a
    # negative base under a constant exponent differentiates without the log term
    f = field_from_spec(FieldSpec.from_strings(2, TWO_PI, ["abs(x1) + sign(t - 1)*x2", "x1^3"]))
    assert np.array_equal(f.jacobian(0.0, np.array([0.0, -2.0]), 0.0), [[0.0, -1.0], [0.0, 0.0]])
    assert np.array_equal(f.jacobian(0.0, np.array([-2.0, 0.0]), 0.0), [[-1.0, -1.0], [12.0, 0.0]])
    g = field_from_spec(FieldSpec.from_strings(1, TWO_PI, ["cos(t) + eps"]))
    assert np.array_equal(g.jacobian(1.0, np.array([3.0]), 0.1), [[0.0]])


def test_jacobian_rows_at_an_array_of_times():
    # tangents that depend on t, on x alone, and none at all
    f = field_from_spec(FieldSpec.from_strings(3, TWO_PI, [
        "abs(x1 - sin(t))*x2 / (2 + cos(t))",
        "x1^3 - x2/x3 + sin(x2)^2",
        "cos(t)^2 + eps"]))
    t, x = np.linspace(0.0, TWO_PI, 101), np.array([0.7, 1.4, 2.1])
    J = f.jacobian(t, x, 0.1)
    assert J.shape == (101, 3, 3)
    rows = np.array([f.jacobian(float(ti), x, 0.1) for ti in t])
    assert np.max(np.abs(J - rows)) <= 1e-13
    assert not np.any(J[:, 2])


@pytest.mark.parametrize("source,x,error,text", [
    ("sqrt(x1)", 0.0, DomainError, "non-finite derivative while evaluating 'sqrt(x1)'"),
    ("x1^0.5 + 1", 0.0, DomainError, "non-finite derivative while evaluating 'x1 ^ 0.5'"),
    ("sqrt(x1)", -1.0, DomainError, "square root of a negative number"),
    ("1/(x1 - 2)", 2.0, DivisionByZero, "'1.0 / (x1 - 2.0)'"),
])
def test_jacobian_keeps_domain_checks(source, x, error, text):
    f = field_from_spec(FieldSpec.from_strings(1, TWO_PI, [source]))
    with pytest.raises(error, match=re.escape(text)):
        f.jacobian(0.0, np.array([x]), 0.0)
