"""Tiny expression language for defining periodic vector fields from text.

Grammar (standard precedence, ^ right-associative and binding tighter than
unary minus; factors nest at most ``MAX_DEPTH`` deep)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)? | '-' factor
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Recognized functions: ``sin cos abs sqrt sign``.  Free names must be ``t``,
``eps``, ``x1..xk`` or a declared parameter; there are no conditionals or
loops, so every expression is a pure formula.  ``abs`` and ``sign`` are exact
at 0 (``abs(0) = 0``, ``sign(0) = 0``).  Expressions run compiled, as one
straight-line tape per field (``field_from_spec``), which keeps g Lipschitz
in x: ``sign`` there takes only arguments free of x1..xk.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields
from functools import partial
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .errors import (DimensionMismatch, DivisionByZero, DomainError,
                     ExprSyntaxError, UnknownIdentifier)
from .odeint import PeriodicField

__all__ = ["Expr", "Const", "Var", "Param", "Unary", "Binary", "FUNCTIONS", "parse",
           "pretty", "eval_expr", "FieldSpec", "field_from_spec"]

FUNCTIONS = ("sin", "cos", "abs", "sqrt", "sign")
MAX_DEPTH = 100          # nested factors ('(', calls, '-', '^') per source
KINK_SCAN = 64           # t intervals per period scanned for switches
KINK_MAX_ITER = 60       # Illinois steps per refinement (about 10 suffice)


class _Node:
    """Structural ``==``, ``hash`` and ``repr`` off an explicit stack: the
    dataclass-generated ones recurse once per tree level, and a long sum is as
    deep as it is long."""

    def _items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def _preorder(self):
        # (class, leaf fields) of each node; with the arities, the tree
        out, stack = [], [self]
        while stack:
            e = stack.pop()
            items = e._items()
            out.append((type(e), *[v for _, v in items if not isinstance(v, _Node)]))
            stack += reversed([v for _, v in items if isinstance(v, _Node)])
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        # the dataclass format, e.g. Unary(op='neg', arg=Var(name='x1'))
        parts, stack = [], [self]
        while stack:
            e = stack.pop()
            if isinstance(e, str):
                parts.append(e)
                continue
            pieces = [f"{type(e).__qualname__}("]
            for i, (name, v) in enumerate(e._items()):
                pieces += [f"{', ' if i else ''}{name}=", v if isinstance(v, _Node) else repr(v)]
            stack += reversed(pieces + [")"])
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Param(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Node):
    op: str              # 'neg' or a function name
    arg: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Node):
    op: str              # '+', '-', '*', '/', '^'
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Param, Unary, Binary]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens, pos = [], 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None or m.end() == pos:
            tail = source[pos:].lstrip()
            if not tail:
                break
            raise ExprSyntaxError(pos, {"number", "identifier", "operator"},
                                  tail[0])
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens + [("end", "", len(source))]


class _Parser:
    def __init__(self, source: str, params: Sequence[str] = ()):
        self.tokens = _tokenize(source)
        self.i = self.depth = 0
        self.params = frozenset(params)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, value):
        kind, text, pos = self.peek()
        if text != value:
            raise ExprSyntaxError(pos, {repr(value)}, text)
        return self.advance()

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            e = Binary(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        self.depth += 1             # every nesting passes here
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(self.peek()[2], {f"nesting depth <= {MAX_DEPTH}"}, self.peek()[1])
        if self.peek()[1] == "-":
            self.advance()
            e = Unary("neg", self.factor())
        else:
            e = self.atom()
            if self.peek()[1] == "^":
                self.advance()
                e = Binary("^", e, self.factor())   # right-associative
        self.depth -= 1
        return e

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Unary(text, arg)
            return Param(text) if text in self.params else Var(text)
        if text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(pos, {"number", "identifier", "'('", "'-'"}, text)


def parse(source: str, params: Sequence[str] = ()) -> Expr:
    """Parse `source` into an expression tree.

    Names listed in `params` become late-bound parameters; everything else
    stays a variable reference, resolved when the expression is compiled.
    """
    p = _Parser(source, params)
    e = p.expr()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ExprSyntaxError(pos, {"operator", "end of input"}, text)
    return e


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(e: Expr) -> str:
    """Render with the fewest parentheses that reparse to the same tree."""
    # children are rendered off an explicit stack of (node, parent precedence,
    # children done), so a long chain needs no deeper recursion than a short one
    done, stack = [], [(e, 0, False)]
    while stack:
        e, parent_prec, ready = stack.pop()
        if isinstance(e, Const):
            done.append(repr(e.value))
        elif isinstance(e, (Var, Param)):
            done.append(e.name)
        elif not ready:
            stack.append((e, parent_prec, True))
            if isinstance(e, Unary):
                stack.append((e.arg, _PREC["neg"] if e.op == "neg" else 0, False))
            else:
                # left-assoc ops need parens on an equal-precedence right
                # child; '^' is the mirror case
                prec = _PREC[e.op]
                lp, rp = (prec + 1, prec) if e.op == "^" else (prec, prec + 1)
                stack += [(e.right, rp, False), (e.left, lp, False)]
        elif isinstance(e, Unary):
            s = done.pop()
            s = f"-{s}" if e.op == "neg" else f"{e.op}({s})"
            done.append(f"({s})" if e.op == "neg" and parent_prec > _PREC["neg"] else s)
        else:
            right, left = done.pop(), done.pop()
            s = f"{left} {e.op} {right}"
            done.append(f"({s})" if parent_prec > _PREC[e.op] else s)
    return done[0]


# --- compiled evaluation --------------------------------------------------------

_UNARY = {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "abs": np.abs,
          "sign": np.sign, "sqrt": np.sqrt}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide, "^": np.power}
_CHECKS = {   # op: (test on the arguments and the result, error, reason)
    "sqrt": (lambda a, out: np.any(a < 0), DomainError, "square root of a negative number"),
    "/": (lambda l, r, out: np.any(r == 0), DivisionByZero),
    "^": (lambda l, r, out: not np.all(np.isfinite(out)), DomainError, "non-finite power"),
}


# partial derivatives of each op's result in its arguments: (a, b, out) ->
# (d out/da, d out/db), b and d out/db None for unary ops
_PARTIALS = {
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


def _tangent(partials):
    """Forward-mode rule d out = pa*da + pb*db.  A side without a tangent
    (None) is left out, so its partial is never used: a constant exponent
    takes a negative base, whose log is NaN."""
    def rule(a, b, out, da, db):
        pa, pb = partials(a, b, out)
        return pb * db if da is None else pa * da if db is None else pa * da + pb * db
    return rule


def _checked(fn, e, bad, error, *reason):
    def op(*args):
        out = fn(*args)
        if bad(*args, out):
            raise error(pretty(e), *reason)
        return out
    return op


def _nonfinite(*args):
    return not np.all(np.isfinite(args[-1]))


class _Tape:
    """Expressions as one straight-line program: slots for t, eps, x1..xk and the
    parameters, then one per distinct subtree in post-order, keyed on its op and
    its children's slots (a constant on its repr, so 0.0 and -0.0 stay apart)."""

    def __init__(self, exprs, params, k):
        # names resolve to t, eps, then parameters, then x1..xk
        self.keyed = {**{f"x{i + 1}": i + 2 for i in range(k)},
                      **{p: k + 2 + j for j, p in enumerate(params)}, "t": 0, "eps": 1}
        self.k, self.values, self.code = k, [None] * (k + 2) + list(params.values()), []
        self.signs = []                 # (argument slot, expression) of each `sign`
        self.out = [self._slot(e) for e in exprs]
        self.switches = sorted({i for _, fn, _, i, _ in self.code if fn in (np.abs, np.sign)})
        # kinks run the ops up to the last switching slot
        self.switch_ops = sum(s <= max(self.switches, default=-1) for s, *_ in self.code)

    def _slot(self, root):
        # post-order off an explicit stack: a left-leaning chain is as deep as
        # it is long, and Python's recursion limit would cap its length
        done, stack = [], [(root, False)]
        while stack:
            e, ready = stack.pop()
            kids = ([e.arg] if isinstance(e, Unary) else
                    [e.left, e.right] if isinstance(e, Binary) else [])
            if kids and not ready:
                stack += [(e, True)] + [(c, False) for c in reversed(kids)]
                continue
            args = done[len(done) - len(kids):]
            del done[len(done) - len(kids):]
            key = ((e.op, *args) if kids else (Const, repr(e.value))
                   if isinstance(e, Const) else e.name)
            if key not in self.keyed:
                if isinstance(e, (Var, Param)):
                    raise UnknownIdentifier(e.name)
                self.keyed[key] = len(self.values)
                self.values.append(e.value if isinstance(e, Const) else None)
                if kids:
                    fn = (_UNARY if len(args) == 1 else _BINARY).get(e.op)
                    if fn is None:
                        raise UnknownIdentifier(e.op)
                    dfn = _tangent(_PARTIALS[e.op])
                    if e.op in _CHECKS:
                        fn = _checked(fn, e, *_CHECKS[e.op])
                        dfn = _checked(dfn, e, _nonfinite, DomainError, "non-finite derivative")
                    self.code.append((self.keyed[key], fn, dfn, args[0],
                                      args[1] if len(args) > 1 else None))
                    if e.op == "sign":
                        self.signs.append((args[0], e))
            done.append(self.keyed[key])
        return done[0]

    def run(self, t, x, eps, n_ops=None):
        """Slot values at (t, x, eps) after the first `n_ops` ops (default all)."""
        regs = self.values.copy()
        regs[0], regs[1] = t, eps
        for i in range(self.k):             # scalars for one state
            regs[2 + i] = x[i] if x.ndim == 1 else x[..., i]
        with np.errstate(all="ignore"):
            for s, fn, _, i, j in self.code[:n_ops]:
                regs[s] = fn(regs[i]) if j is None else fn(regs[i], regs[j])
        return regs

    def jacobian(self, t, x, eps):
        """d(outputs)/dx at x of shape (k,), in forward mode: one k-tangent per
        slot, None for slots that do not depend on x.  A scalar t gives (k, k);
        an array of n times runs as a column, so a slot that depends on t holds
        (n, 1) values and (n, k) tangents, and gives (n, k, k)."""
        x = np.asarray(x, dtype=float)
        rows = np.shape(t)
        regs = self.run(np.asarray(t, dtype=float)[:, None] if rows else t, x, eps)
        dot = [None] * len(self.values)
        dot[2:2 + self.k] = np.eye(self.k)
        with np.errstate(all="ignore"):
            for s, _, dfn, i, j in self.code:
                da, db = dot[i], None if j is None else dot[j]
                if da is not None or db is not None:
                    dot[s] = dfn(regs[i], None if j is None else regs[j], regs[s], da, db)
        if not rows:
            return np.array([np.zeros(self.k) if dot[s] is None else dot[s] for s in self.out])
        J = np.zeros(rows + (len(self.out), self.k))
        for r, s in enumerate(self.out):
            if dot[s] is not None:
                J[:, r] = dot[s]
        return J


def eval_expr(e: Expr, t, x, eps, params: Optional[Dict[str, float]] = None):
    """Evaluate in IEEE doubles; `t` may be an array, `x` a (k,) or (m,k) array.
    Raises DivisionByZero / DomainError with the offending subexpression,
    UnknownIdentifier for unbound names."""
    x = np.asarray(x, dtype=float)
    tape = _Tape([e], params or {}, x.shape[-1] if x.ndim else 0)
    return tape.run(t, x, eps)[tape.out[0]]


def _switch_zeros(tape: _Tape, grid, v, eps) -> tuple:
    """Zeros in [0, T) of the switching slots at frozen v: a sign scan on `grid`,
    then Illinois regula falsi on all brackets at once (Dahlquist & Björck §6.2).
    Two zeros in one scan interval leave only a grid minimum of |s| with no
    sign change beside it; a dip below zero there gives two more brackets.
    An interior minimum is searched over its two intervals.  One at the first
    or last grid point is searched over its one interval, as s need not be
    T-periodic, and only when the parabola through that interval's ends and
    midpoint has its vertex inside: near a zero-free end, a smooth |s| that
    rises away from the end is not searched."""
    x = np.asarray(v, dtype=float)
    def values(t):                          # (len(t), switches)
        regs, zero = tape.run(t, x, eps, tape.switch_ops), np.zeros_like(t)
        return np.array([regs[s] + zero for s in tape.switches]).T

    S = values(np.concatenate([grid, 0.5 * (grid[[0, -2]] + grid[[1, -1]])]))
    S, mid = S[:-2], S[-2:]                 # the grid, the end intervals' midpoints
    col, row = np.nonzero((S[:-1] < 0) != (S[1:] < 0))   # a sign change
    ends, g = grid[[col, col + 1]], S[[col, col + 1], row]
    A, same, n = np.abs(S), (S[:-1] < 0) == (S[1:] < 0), len(grid) - 1
    lo, drow = np.nonzero((A[1:-1] < A[:-2]) & (A[1:-1] <= A[2:]) & (S[1:-1] != 0)
                          & same[:-1] & same[1:])
    at, hi = lo + 1, lo + 2                 # the grid minimum, the search interval
    for e, o, is_min, fm in ((0, 1, A[0] <= A[1], mid[0]),        # an end point,
                             (n, n - 1, A[n] < A[n - 1], mid[1])):  # its neighbour
        r = np.nonzero(is_min & (S[e] != 0) & same[min(e, o)])[0]
        fm = np.sign(S[e, r]) * fm[r]
        r = r[np.abs(A[e, r] - A[o, r]) < 2.0 * (A[e, r] + A[o, r] - 2.0 * fm)]
        at, drow = np.concatenate([at, np.full(len(r), e)]), np.concatenate([drow, r])
        lo = np.concatenate([lo, np.full(len(r), min(e, o))])
        hi = np.concatenate([hi, np.full(len(r), max(e, o))])
    if len(drow):
        sign = np.sign(S[at, drow])
        t_dip, f_dip = _dip_floor(values, grid[lo], grid[hi], drow, sign)
        hit = f_dip < 0
        lo, hi, drow, t_dip, g_dip = lo[hit], hi[hit], drow[hit], t_dip[hit], (sign * f_dip)[hit]
        ends = np.hstack([ends, [grid[lo], t_dip], [t_dip, grid[hi]]])
        g = np.hstack([g, [S[lo, drow], g_dip], [g_dip, S[hi, drow]]])
        row = np.concatenate([row, drow, drow])
    ar, last = np.arange(len(row)), -1
    for _ in range(KINK_MAX_ITER):
        m = (ends[0] * g[1] - ends[1] * g[0]) / (g[1] - g[0])
        gm = values(m)[ar, row]
        side = ((gm < 0) != (g[0] < 0)).astype(int)   # the end m replaces
        # Illinois: halve the value at an end point kept a second time
        g[1 - side, ar] *= 0.5 ** (side == last)
        ends[side, ar], g[side, ar], last = m, gm, side
        if ((gm == 0) | (ends[1] - ends[0] <= 1e-15 * grid[-1])).all():
            break
    return tuple(sorted((m[np.isfinite(m)] % grid[-1]).tolist()))


def _dip_floor(values, lo, hi, row, sign):
    """Golden-section search for the minimum of sign*s_row over [lo, hi], all
    rows at once, until each has gone below zero or ``KINK_MAX_ITER`` steps:
    the lowest point and its value."""
    r, ar = (5.0 ** 0.5 - 1.0) / 2.0, np.arange(len(row))
    t = np.array([hi - r * (hi - lo), lo + r * (hi - lo)])      # x1 < x2
    f = sign * values(t.ravel())[np.arange(2 * len(row)), np.tile(row, 2)].reshape(2, -1)
    for _ in range(KINK_MAX_ITER):
        if (f.min(axis=0) < 0).all():
            break
        left = f[0] < f[1]                  # the minimum lies in [lo, x2]
        lo, hi = np.where(left, lo, t[0]), np.where(left, t[1], hi)
        new = np.where(left, hi - r * (hi - lo), lo + r * (hi - lo))
        fn = sign * values(new)[ar, row]
        t = np.where(left, [new, t[0]], [t[1], new])
        f = np.where(left, [fn, f[0]], [f[1], fn])
    i = np.argmin(f, axis=0)
    return t[i, ar], f[i, ar]


@dataclass(frozen=True)
class FieldSpec:
    """Textual definition of a k-dimensional T-periodic field.

    ``components[i]`` is the expression for component i of g; parameters are
    late-bound reals so sweeps can rebind them without reparsing.
    """

    dim: int
    period: float
    components: tuple
    params: tuple = ()                 # ((name, value), ...) for hashability

    @staticmethod
    def from_strings(dim: int, period: float, components: Sequence[str],
                     params: Optional[Dict[str, float]] = None) -> "FieldSpec":
        params = dict(params or {})
        exprs = tuple(parse(src, params) for src in components)
        return FieldSpec(dim, period, exprs, tuple(sorted(params.items())))


def field_from_spec(spec: FieldSpec) -> PeriodicField:
    """Compile a FieldSpec into an evaluatable PeriodicField.

    Every free name of every component must resolve to t, eps, x1..xk or a
    declared parameter; the component count must match the dimension.  The
    field publishes ``kinks`` when a component calls ``abs`` or ``sign``, and
    always ``jacobian``, by forward mode over the tape with abs' = sign; a
    derivative that is not finite raises ``DomainError``.  ``sign`` of an
    argument in x1..xk raises ``DomainError``: its jump would move with x,
    which no period-map derivative follows; ``sign`` of t, eps and
    parameters jumps at fixed times, which ``kinks`` publishes."""
    if len(spec.components) != spec.dim:
        raise DimensionMismatch(f"{len(spec.components)} components for dimension {spec.dim}")
    tape = _Tape(spec.components, dict(spec.params), spec.dim)
    xdep = set(range(2, 2 + spec.dim))      # the slots that depend on x1..xk
    for s, _, _, i, j in tape.code:
        if i in xdep or j in xdep:
            xdep.add(s)
    for i, e in tape.signs:
        if i in xdep:
            raise DomainError(pretty(e), "sign of an argument in x1..xk (g must be "
                                         "Lipschitz in x)")
    grid = np.linspace(0.0, spec.period, KINK_SCAN + 1)

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        regs = tape.run(t, x, eps)
        res = np.empty((np.shape(t) or x.shape[:-1]) + (spec.dim,))
        for j, s in enumerate(tape.out):
            res[..., j] = regs[s]
        return res

    return PeriodicField(dim=spec.dim, period=spec.period, evaluate=evaluate, name="dsl",
                         kinks=partial(_switch_zeros, tape, grid) if tape.switches else None,
                         jacobian=tape.jacobian)
