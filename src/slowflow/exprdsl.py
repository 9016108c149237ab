"""Tiny expression language for defining periodic vector fields from text.

Grammar (standard precedence, ^ right-associative and binding tighter than
unary minus; factors nest at most ``MAX_DEPTH`` deep)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' factor)? | '-' factor
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Recognized functions: ``sin cos abs sqrt sign``.  Free names must be ``t``,
``eps``, ``x1..xk`` or a declared parameter (a finite real, named none of
those); there are no conditionals or loops, so every expression is a pure
formula.  ``abs`` and ``sign`` are exact at 0 (``abs(0) = 0``, ``sign(0) =
0``).  A field (``field_from_spec``) runs as straight-line source emitted
once per tape structure, on numpy and, for ``floats``, on Python floats; g
is Lipschitz in x, as ``sign`` there takes only arguments free of x1..xk.
"""

from __future__ import annotations

import itertools
import linecache
import math
import numbers
import re
import sys
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .errors import (DimensionMismatch, DivisionByZero, DomainError,
                     ExprSyntaxError, ParameterError, UnknownIdentifier)
from .odeint import PeriodicField, _compile

__all__ = ["Expr", "Const", "Var", "Param", "Unary", "Binary", "FUNCTIONS", "parse",
           "pretty", "eval_expr", "FieldSpec", "field_from_spec"]

FUNCTIONS = ("sin", "cos", "abs", "sqrt", "sign")
MAX_DEPTH = 100          # nested factors ('(', calls, '-', '^') per source
KINK_SCAN = 64           # t intervals per period scanned for switches
KINK_MAX_ITER = 60       # Illinois steps per refinement (about 10 suffice)
COMPILED_MAX = 256       # emitted programs kept for fields of one structure to share


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

# op: (value, partials d out/da and d out/db, domain check: test, error,
# reason) as source over the argument slots {a}, {b} and the result {out}; each
# source is a pair, the numpy form and the float form, which gives numpy's bits
# on Python floats: math's sin, cos and sqrt give the ufuncs', math.pow numpy
# scalars' ``**``, and np.power and np.log run silent, as in the numpy programs
_ufunc = np.errstate(all="ignore")(lambda fn, *args: float(fn(*args)))
_SIGN = "(1.0 if {a} > 0 else -1.0 if {a} < 0 else 0.0 if {a} == 0 else {a})"
_OPS = {
    "neg": (("-{a}",) * 2, [("-1.0",) * 2], None),
    "sin": (("np.sin({a})", "math.sin({a})"), [("np.cos({a})", "math.cos({a})")], None),
    "cos": (("np.cos({a})", "math.cos({a})"), [("-np.sin({a})", "-math.sin({a})")], None),
    "abs": (("np.abs({a})", "abs({a})"), [("np.sign({a})", _SIGN)], None),
    "sign": (("np.sign({a})", _SIGN), [("0.0",) * 2], None),
    "sqrt": (("np.sqrt({a})", "math.sqrt({a})"), [("0.5 / {out}",) * 2],
             (("np.any({a} < 0)", "{a} < 0"), DomainError, "square root of a negative number")),
    "+": (("{a} + {b}",) * 2, [("1.0",) * 2] * 2, None),
    "-": (("{a} - {b}",) * 2, [("1.0",) * 2, ("-1.0",) * 2], None),
    "*": (("{a} * {b}",) * 2, [("{b}",) * 2, ("{a}",) * 2], None),
    "/": (("np.divide({a}, {b})", "{a} / {b}"), [("1.0 / {b}",) * 2, ("-{out} / {b}",) * 2],
          (("np.any({b} == 0)", "{b} == 0"), DivisionByZero)),
    "^": (("np.power({a}, {b})", "_ufunc(np.power, {a}, {b})"),
          [("{b} * {a} ** ({b} - 1.0)", "{b} * math.pow({a}, {b} - 1.0)"),
           ("{out} * np.log({a})", "{out} * _ufunc(np.log, {a})")],
          (("not np.all(np.isfinite({out}))", "not math.isfinite({out})"), DomainError,
           "non-finite power")),
}

_SOURCE = """\
def make(_c, _fail):
%(load)s    def run(r0, x, r1, jac=False):
%(body)s    return run
"""


_made = OrderedDict()        # (k, code, xdep, out, kind) -> make, least recent first
_serial = itertools.count(1)


def _make(k, code, xdep, out, kind):
    """``make(_c, _fail)`` -> (t, x, eps) -> the values of slots `out`, their
    tangents, or with `kind` ``"floats"`` both at one point on Python floats
    (``jac=True``), from the ops they read.  Slot s is ``r{s}``, its tangent
    ``d{s}`` (k scalars ``d{s}_{i}`` on floats); constants and parameters
    arrive in `_c`.  The last ``COMPILED_MAX`` programs are kept; an evicted
    one leaves ``linecache``, and a field that holds it keeps running it."""
    key = (k, code, xdep, out, kind)
    if key in _made:
        _made.move_to_end(key)
        return _made[key]
    need = set(out)
    for s, _, args in reversed(code):
        if s in need:
            need.update(args)
    fl, xs = kind == "floats", range(2, k + 2)
    comps = [f"_{i}" for i in range(k)] if fl else [""]
    values, tangents = [], []
    for s, op, args in [c for c in code if c[0] in need]:
        value, partials, check = _OPS[op]
        names = {"a": f"r{args[0]}", "b": f"r{args[-1]}", "out": f"r{s}"}
        values.append(f"r{s} = {value[fl].format_map(names)}")
        if check:   # before the value, unless it reads it: math.sqrt and / raise
            values.insert(len(values) - ("{out}" not in check[0][0]),
                          f"if {check[0][fl].format_map(names)}: raise _fail({s})")
        if kind == "values" or s not in xdep:
            continue
        # d = pa*da + pb*db less sides free of x (x^2, x < 0: NaN log)
        sides = []
        for j, (p, a) in enumerate(zip(partials, args)):
            p = p[fl].format_map(names)
            if a not in xdep:
                continue
            if fl and not re.fullmatch(r"-?[\w.]+", p):     # once, for k products
                tangents.append(f"p{j} = {p}")
                p = f"p{j}"
            sides.append(f"d{a}{{i}}" if p == "1.0" else f"({p}) * d{a}{{i}}")
        tangents += [f"d{s}{i} = " + " + ".join(sides).format(i=i) for i in comps]
        if check:
            finite = (f"({' and '.join(f'math.isfinite(d{s}{i})' for i in comps)})" if fl else
                      f"np.all(np.isfinite(d{s}))")
            tangents.append(f"if not {finite}: raise _fail({s}, True)")
    made = {s for s, _, _ in code}
    load = [f"r{s} = _c[{s}]" for s in sorted(need - made) if s >= k + 2]
    outs = ", ".join(f"r{s}" for s in out)
    body = [f"{''.join(f'r{i}, ' for i in xs)}= x" +
            ("" if fl else " if x.ndim == 1 else np.moveaxis(x, -1, 0)")] * (k > 0)
    if fl:
        rows = ", ".join("[" + ", ".join(f"d{s}_{i}" if s in xdep else "0.0" for i in range(k))
                         + "]" for s in out)
        body += values + ["if not jac:", f"    return [{outs}]"] + [
            f"d{i}_{j} = {float(i - 2 == j)}" for i in xs for j in range(k)] + tangents + [
            f"return [{outs}], [{rows}]"]
    else:
        if kind == "tangents":
            load.append(f"{''.join(f'd{i}, ' for i in xs)}= np.eye({k})")
            outs = ", ".join(f"d{s}" if s in xdep else f"np.zeros({k})" for s in out)
        body += ['with np.errstate(all="ignore"):'] + [
            f"    {line}" for line in values + tangents + [f"return [{outs}]"]]
    src = _SOURCE % {"load": "".join(f"    {line}\n" for line in load),
                     "body": "".join(f"        {line}\n" for line in body)}
    name = f"dsl {next(_serial)}" + ("" if kind == "values" else f" {kind}")
    made = _made[key] = _compile(name, src, globals())
    if len(_made) > COMPILED_MAX:
        linecache.cache.pop(_made.popitem(last=False)[1].__code__.co_filename, None)
    return made


class _Tape:
    """Expressions as one straight-line program: slots for t, eps, x1..xk and the
    parameters, then one per distinct subtree in post-order, keyed on its op and
    its children's slots (a constant on its repr, so 0.0 and -0.0 stay apart).

    `emit` compiles the program through ``odeint._compile``, for ``values``
    (the outputs), the ``abs``/``sign`` arguments of ``kinks`` and, at their
    first call, ``tangents`` (forward mode over the slots that depend on x)
    and `floats` (values and tangents at one point on Python floats).  Each
    raises in op order, ``tangents`` every value's error first."""

    def __init__(self, exprs, params, k):
        # names resolve to t, eps, then parameters, then x1..xk
        self.keyed = {**{f"x{i + 1}": i + 2 for i in range(k)},
                      **{p: k + 2 + j for j, p in enumerate(params)}, "t": 0, "eps": 1}
        # slots hold the values of constants and parameters, an op's subtree
        self.k, self.slots, self.code = k, [None] * (k + 2) + list(params.values()), []
        self.xdep = set(range(2, k + 2))        # the slots that depend on x1..xk
        self.out = [self._slot(e) for e in exprs]
        self.switches = sorted({args[0] for _, op, args in self.code if op in ("abs", "sign")})
        self.code, self.xdep = tuple(self.code), frozenset(self.xdep)
        self.values = self.emit(self.out)

    def emit(self, out, kind="values"):
        """The compiled program of `kind` for slots `out` (see `_make`)."""
        return _make(self.k, self.code, self.xdep, tuple(out), kind)(self.slots, self._fail)

    @cached_property
    def tangents(self):         # left to the first call: they double a long tape's source
        return self.emit(self.out, "tangents")

    @cached_property
    def _floats(self):
        return self.emit(self.out, "floats")

    def floats(self, t, x, eps, jac=False):
        """The outputs at float t and a list x of k floats, and with `jac` their
        tangents as k rows: the bits and errors of ``values`` and `jacobian`."""
        try:
            return self._floats(t, x, eps, jac)
        except (ArithmeticError, ValueError):   # a float op numpy runs through (math.sin(inf))
            return self._numpy(t, np.array(x), eps, jac)

    def _numpy(self, t, x, eps, jac):
        g = [float(v) for v in self.values(t, x, eps)]
        return (g, self.jacobian(t, x, eps).tolist()) if jac else g

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
            args = tuple(done[len(done) - len(kids):])
            del done[len(done) - len(kids):]
            key = ((e.op, *args) if kids else (Const, repr(e.value))
                   if isinstance(e, Const) else e.name)
            if key not in self.keyed:
                if isinstance(e, (Var, Param)):
                    raise UnknownIdentifier(e.name)
                if kids and (e.op not in _OPS or len(_OPS[e.op][1]) != len(kids)):
                    raise UnknownIdentifier(e.op)
                s = self.keyed[key] = len(self.slots)
                self.slots.append(e.value if isinstance(e, Const) else e)
                if kids:
                    self.code.append((s, e.op, args))
                    if self.xdep.intersection(args):
                        self.xdep.add(s)
            done.append(self.keyed[key])
        return done[0]

    def _fail(self, s, derivative=False):
        """The error of op slot s's domain check, or of its non-finite tangent."""
        e = self.slots[s]
        error, *reason = (DomainError, "non-finite derivative") if derivative else _OPS[e.op][2][1:]
        return error(pretty(e), *reason)

    def jacobian(self, t, x, eps):
        """d(outputs)/dx at x of shape (k,), in forward mode: one k-tangent per
        slot that depends on x, zeros for an output that does not.  A scalar t
        gives (k, k); an array of n times runs as a column, so a slot that
        depends on t holds (n, 1) values and (n, k) tangents, and gives
        (n, k, k).  Paired states x of shape (n, k) run as columns too."""
        x = np.asarray(x, dtype=float)
        rows = np.shape(t)
        dot = self.tangents(np.asarray(t, dtype=float)[:, None] if rows else t,
                            x[:, None] if x.ndim == 2 else x, eps)
        if not rows:
            return np.array(dot)
        return np.stack([np.broadcast_to(d, rows + (self.k,)) for d in dot], axis=-2)


def eval_expr(e: Expr, t, x, eps, params: Optional[Dict[str, float]] = None):
    """Evaluate in IEEE doubles; `t` may be an array, `x` a (k,) or (m,k) array.
    Raises DivisionByZero / DomainError with the offending subexpression,
    UnknownIdentifier for unbound names."""
    x = np.asarray(x, dtype=float)
    return _Tape([e], params or {}, x.shape[-1] if x.ndim else 0).values(t, x, eps)[0]


def _switch_zeros(switching, grid, v, eps) -> tuple:
    """Zeros in [0, T) of the values of `switching` at frozen v: a sign scan on
    `grid`, then Illinois regula falsi on all brackets at once (Dahlquist & Björck §6.2).
    Two zeros in one scan interval leave only a grid minimum of |s| with no
    sign change beside it; a dip below zero there gives two more brackets.
    An interior minimum is searched over its two intervals.  One at the first
    or last grid point is searched over its one interval, as s need not be
    T-periodic, and only when the parabola through that interval's ends and
    midpoint has its vertex inside: near a zero-free end, a smooth |s| that
    rises away from the end is not searched."""
    x = np.asarray(v, dtype=float)
    def values(t):                          # (len(t), switches)
        zero = np.zeros_like(t)
        return np.array([s + zero for s in switching(t, x, eps)]).T

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

    def __post_init__(self):
        # a variable's name would shadow it; a bool, a string or inf would fail late
        for name, value in self.params:
            if name in ("t", "eps") or name in (f"x{i + 1}" for i in range(self.dim)):
                raise ParameterError(f"parameter {name!r} shadows a variable of the field")
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not abs(value) <= sys.float_info.max):
                raise ParameterError(f"parameter {name!r} must be a finite real, not {value!r}")
        object.__setattr__(self, "params", tuple((n, float(v)) for n, v in self.params))

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
    always ``jacobian``, by forward mode over the tape with abs' = sign, and
    ``floats``, values and jacobian on Python floats; a derivative that is not
    finite raises ``DomainError``.  ``sign`` of an argument in x1..xk raises
    ``DomainError``: its jump would move with x, which no period-map
    derivative follows; ``sign`` of t, eps and parameters jumps at fixed
    times, which ``kinks`` publishes."""
    if len(spec.components) != spec.dim:
        raise DimensionMismatch(f"{len(spec.components)} components for dimension {spec.dim}")
    tape = _Tape(spec.components, dict(spec.params), spec.dim)
    for s, op, args in tape.code:
        if op == "sign" and args[0] in tape.xdep:
            raise DomainError(pretty(tape.slots[s]), "sign of an argument in x1..xk (g must "
                                                     "be Lipschitz in x)")

    def evaluate(t, x, eps):
        x = np.asarray(x, dtype=float)
        res = np.empty((np.shape(t) or x.shape[:-1]) + (spec.dim,))
        for j, v in enumerate(tape.values(t, x, eps)):
            res[..., j] = v
        return res

    kinks = partial(_switch_zeros, tape.emit(tape.switches),
                    np.linspace(0.0, spec.period, KINK_SCAN + 1)) if tape.switches else None
    return PeriodicField(dim=spec.dim, period=spec.period, evaluate=evaluate, name="dsl",
                         kinks=kinks, jacobian=tape.jacobian, floats=tape.floats)
