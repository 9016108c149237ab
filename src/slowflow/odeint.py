"""Time integration of weakly perturbed periodic systems x' = eps * g(t, x, eps).

The right-hand side ``g`` is carried by a :class:`PeriodicField` and may be
merely Lipschitz in ``x`` (corners from absolute values are fine).  Two
steppers are provided:

* ``rk4-fixed``    classical RK4, step ``h`` (default ``T/2000``),
* ``rk45-adaptive`` Dormand-Prince 5(4), tolerance-controlled (default
  ``abs_tol = rel_tol = 1e-10``), the package default.

The adaptive stepper is strongly preferred for Poincare-map work: corners in
the field make a fixed step lose order globally, while the embedded error
estimate localizes the damage to the few steps that straddle a corner.

``flow_batch`` flows an ensemble either on one shared step grid or, with
``shared_steps=False``, with a Dormand-Prince step size and error norm per
member; see its docstring for which suits what.

One state (``x0`` of shape (k,)) with k <= ``_FLOAT_LOOP_MAX`` steps on
local Python floats: at these sizes a numpy call costs far more than its
arithmetic.  The cutoff of 20 keeps the variational flow of a field with
k <= 4 (k + k^2 components) on floats.  Ensembles and longer states take the
numpy loop.  The float loop calls a field's ``floats`` (the built-ins' and
every DSL field's) itself, and writes out ``e * g`` and the (x, vec Phi)
products of ``variational_map``; any other field it calls on an ndarray.

All three adaptive loops are layouts of one generated kernel,
`_dopri_kernel`: straight-line source per state length, with one local per
component and stage (``y_1 = x_1 + h * (_A61 * k1_1 + ... + _A65 * k5_1)``),
an array form on one shared step grid, and a per-member form with a step
size per row, compiled once and cached (source transformation: Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 6).  No outside text
reaches ``exec``, here or from a DSL field (``exprdsl``): the source holds
integer indices and the names of this module or of the DSL's op table only;
callables, eps, constants and parameters are values.  `_compile` registers
it with ``linecache`` as ``<slowflow dopri n=6>``, ``<slowflow dsl 1>`` and
the like, so tracebacks, cProfile and ``inspect.getsource`` show it.

The Dormand-Prince stages, solution and error quotient are written once and
must stay bit-identical to the left-to-right sums a_i1*k1 + a_i2*k2 + ... of
the reference loops in the tests (no BLAS dot, no FMA), so the float and
array layouts give the same bits, field calls and steps for one state:
whether Newton on a nonsmooth period map meets its residual target can
depend on the last bits.  Only ``variational_map`` on ``floats`` differs:
its J*Phi float sums may round otherwise than numpy's ``@`` (an FMA), so Phi
moves in its last bits.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteState, StepLimitExceeded

__all__ = [
    "PeriodicField",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "flow",
    "flow_batch",
    "poincare_map",
    "variational_map",
]

BLOWUP_NORM = 1e8
FD_STEP_SCALE = 1e-6            # FD step = scale * (1 + |x|) where a field has no ``jacobian``
_FLOAT_LOOP_MAX = 20            # one state up to this many components steps on floats


@dataclass(frozen=True)
class PeriodicField:
    """A T-periodic vector field g(t, x, eps) on R^k.

    ``evaluate(t, x, eps)`` must broadcast: scalar ``t`` with ``x`` of shape
    ``(k,)`` returns ``(k,)``; an array of times with frozen ``x`` of shape
    ``(k,)`` returns ``(len(t), k)``; scalar ``t`` with an ensemble ``(m, k)``
    returns ``(m, k)``; paired times ``t`` of shape ``(m,)`` with an ensemble
    ``(m, k)`` evaluate row i at ``(t[i], x[i])`` and return ``(m, k)`` (the
    per-member stepper of ``flow_batch``); with paired times, ``eps`` may also
    be an ``(m,)`` array paired by row (the batched Lipschitz sample of
    ``certify``).  Rows must not interact.

    ``kinks``, when given, maps ``(x, eps)`` to the times in ``[0, T)`` where
    ``t -> g(t, x, eps)`` (state frozen) is not smooth: closed forms for the
    built-ins, the zeros of the ``abs``/``sign`` arguments for DSL fields.
    Quadratures cut their segments there; they never affect values.

    ``jacobian``, when given, maps scalar ``t`` and a state of shape ``(k,)``
    to the ``(k, k)`` matrix dg/dx, an array of times with frozen ``x`` of
    shape ``(k,)`` to ``(len(t), k, k)``, and paired times ``t`` of shape
    ``(m,)`` with an ensemble ``(m, k)`` to ``(m, k, k)``, row i at ``(t[i],
    x[i])`` with the bits of the frozen call (the stacked quadratures of
    ``averaging``).  Off the switching set it must be exact;
    on it, any one-sided value will do; without it ``variational_map`` takes
    central differences of ``evaluate``, and ``averaged_jacobian`` of the
    averaged field.  The field must be continuous across a switching set that
    moves with x, which flows cross transversally, so the period map is C^1
    there (the saltation matrix is the identity), and ``find_periodic`` takes
    its Newton steps and Floquet multipliers from the variational flow.  A
    jump at fixed times (a DSL ``sign`` of t, eps and parameters) does not
    move with x, so ``jacobian`` and the variational flow stay exact there.

    ``floats``, when given, maps float ``t`` and a list of k floats to g as
    a list, and ``floats(t, x, eps, True)`` to ``(g, J)``, J as k rows: the
    bits of ``evaluate`` and ``jacobian``.  The float loop of one-state flows
    and of ``variational_map`` calls it once per stage, and never those two.
    The built-ins and DSL fields publish it.
    """

    dim: int
    period: float
    evaluate: Callable
    kinks: Optional[Callable] = None
    name: str = "field"
    jacobian: Optional[Callable] = None
    floats: Optional[Callable] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.period > 0):
            raise ValueError("period must be positive")


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection and accuracy knobs.  A flow over [t0, t1] raises
    ``StepLimitExceeded`` after ``max_steps * max(1, ceil((t1 - t0) / T))``
    steps, T the field's period (a legitimate period takes ~600 at most)."""

    method: str = "rk45-adaptive"
    h: Optional[float] = None          # fixed step; None -> period/2000
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10_000            # per period of the field

    def __post_init__(self):
        if self.method not in ("rk4-fixed", "rk45-adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.h is not None and not (self.h > 0):
            raise ValueError("step h must be positive")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    """Sampled solution of x' = eps * g on [t0, t1]."""

    times: np.ndarray          # (n,), increasing, times[0]=t0, times[-1]=t1
    states: np.ndarray         # (n, k)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# --- Dormand-Prince 5(4) tableau ---------------------------------------------
# zero entries left out; 5th-order weights = last A row (FSAL), E = b5 - b4
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_A71, _A73, _A74, _A75, _A76 = (35 / 384, 500 / 1113, 125 / 192,
                                -2187 / 6784, 11 / 84)
_C_STAGES = np.array([[_C2], [_C3], [_C4], [_C5], [1.0]])
_E1, _E3, _E4, _E5, _E6, _E7 = (35 / 384 - 5179 / 57600, 500 / 1113 - 7571 / 16695,
                                125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
                                11 / 84 - 187 / 2100, -1 / 40)


def _run_rk4(rhs, t0, t1, x0, h, max_steps, record):
    n = int(math.ceil((t1 - t0) / h - 1e-12))
    if n > max_steps:
        raise StepLimitExceeded(f"{n} fixed steps exceed max_steps={max_steps}")
    ts = [t0] if record else None
    xs = [x0] if record else None
    x = x0
    for i in range(n):
        t = t0 + i * h
        step = min(h, t1 - t)
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * step, x + 0.5 * step * k1)
        k3 = rhs(t + 0.5 * step, x + 0.5 * step * k2)
        k4 = rhs(t + step, x + step * k3)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.max(np.abs(x)) <= BLOWUP_NORM:      # NaN fails it as well
            raise NonFiniteState(f"state blew up near t={t + step:.6g}")
        if record:
            ts.append(min(t + step, t1))
            xs.append(x)
    if record:
        ts[-1] = t1
        return np.asarray(ts), np.asarray(xs)
    return x


# --- generated kernels -------------------------------------------------------


def _compile(name, src, scope=None):
    """The function `src` defines, compiled as ``<slowflow name>`` and
    registered with linecache; its globals are `scope`, or this module's."""
    filename = f"<slowflow {name}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    out = {}
    exec(compile(src, filename, "exec"), globals() if scope is None else scope, out)
    return out.popitem()[1]


def _stage(row, stages):
    """h * (row_j1 * kj1{i} + ...), summed left to right; {i} is the component."""
    return "h * (" + " + ".join(f"_{row}{j} * k{j}{{i}}" for j in stages) + ")"


_DOPRI = '''\
def dopri(f, t, t1, x, atol, rtol, max_steps, record, e=None):
    span = t1 - t
    h = span / 50.0
    hmin = span * 1e-14
%(start)s
    ts = [t] if record else None
    xs = [%(x)s] if record else None
    steps = 0
    while t < t1:
        if steps >= max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} reached at t={t:.6g}")
        steps += 1
        h = min(h, t1 - t)
%(stages)s
        if enorm <= 1.0:
            t = t + h
%(accept)s
            # a NaN in x5 made its q NaN and the step rejected, so max sees none
            if not %(max)s <= BLOWUP_NORM:
                raise NonFiniteState(f"state blew up near t={t:.6g}")
            if record:
                ts.append(t)
                xs.append(%(x)s)
        # a NaN norm (non-finite stages) shrinks as a rejection does
        fac = 0.9 * enorm ** -0.2 if enorm > 0 else 5.0 if enorm == 0 else 0.2
        h = h * min(5.0, max(0.2, fac))
        if h < hmin:
            raise StepLimitExceeded(f"step size underflow at t={t:.6g}")
    if record:
        ts[-1] = t1
        return np.asarray(ts), np.asarray(xs)
    return np.array(%(x)s)
'''


_DOPRI_MEMBERS = '''\
def dopri(f, t0, t1, x, atol, rtol, max_steps):
    span = t1 - t0
    if not span > 0:
        return x.copy()     # as the scalar loop; a negative h would never stop
    hmin = span * 1e-14
    t = np.full(len(x), float(t0))
    hs = np.full(len(x), span / 50.0)
    frozen = np.zeros(len(x), dtype=bool)
    k1 = f(t, x)
    ax = %(ax0)s
    steps = 0
    while True:
        hs = np.minimum(hs, t1 - t)
        if not hs.any():
            break
        if steps >= max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} reached at "
                                    f"t={float(np.min(t)):.6g}")
        steps += 1
        # stage times t + c_i*h, one row per stage
        tc = _C_STAGES * hs + t
        t_new = np.minimum(tc[4], t1)
        h = hs[:, None]
        k2 = f(tc[0], %(k2)s)
        k3 = f(tc[1], %(k3)s)
        k4 = f(tc[2], %(k4)s)
        k5 = f(tc[3], %(k5)s)
        k6 = f(t_new, %(k6)s)
        x5 = %(x5)s
        k7 = f(t_new, x5)
        ax5 = %(ax5)s
        q = %(q)s
        # row max as a column fold: a reduction along a short last axis is
        # several times slower at these sizes
        enorm = functools.reduce(np.maximum, q.T)
        acc = enorm <= 1.0
        t = np.where(acc, t_new, t)
        if not ax5.max() <= BLOWUP_NORM:
            blown = acc & ~(ax5.max(axis=1) <= BLOWUP_NORM)
            acc &= ~blown
            frozen |= blown
            t[blown] = t1
        a = acc[:, None]
        x = np.where(a, x5, x)
        ax = np.where(a, ax5, ax)
        k1 = np.where(a, k7, k1)
        # the scalar loop's factor; fmax sends a NaN enorm (non-finite
        # stages) to the 0.2 shrink of a rejection
        fac = 0.9 * np.maximum(enorm, 1e-300) ** -0.2
        hs = hs * np.fmin(5.0, np.fmax(0.2, fac))
        under = (hs < hmin) & (t < t1)
        if under.any():
            frozen |= under
            t[under] = t1
    x[frozen] = np.nan
    return x
'''


@functools.lru_cache(maxsize=None)
def _dopri_kernel(n, k=None):
    """Adaptive Dormand-Prince with FSAL and a scaled max-norm, in one of
    three layouts that share the stage sums, x5, |x5| and error quotient q:

    * n an int: one state of n <= ``_FLOAT_LOOP_MAX`` components on local
      floats ``x_0, k1_0, ...``, `f` mapping (t, list) to the n rates; with
      `k`, `f` is a field's ``floats`` on x (n = k) or on the x of (x, vec
      Phi) (n = k + k^2), and the loop writes out ``e * g`` and ``e * (J_i0
      * Phi_0j + J_i1 * Phi_1j + ...)``.  The sums of the array form in the
      same order, so the same bits, field calls and steps; np.maximum is `p
      if p > p5 else p5` (a NaN |x_i| makes x5_i NaN) and a NaN in q goes to
      the norm by hand, as Python's max drops it.
    * n None: ndarrays, for ensembles and longer states.  For an ensemble
      the norm reduces over the whole batch, keeping every member on a
      shared, accepted step sequence.
    * n ``"members"``: an (m, k) ensemble with its own step size and error
      control per member; ``t`` and ``h`` are (m,) arrays and the field is
      called with paired times.  Each member's error norm is its own scaled
      max-norm, so an accepted member advances while a rejected one
      retries, and every member's result depends on its own start alone.  A
      finished member gets h = 0.  A member whose accepted state passes
      ``BLOWUP_NORM`` (or is not finite), or whose step underflows, is
      frozen (parked at t1 with h = 0) and returned as a NaN row.  A member
      takes the steps the scalar loop would take for it, up to numpy's
      vectorised ``**`` differing from libm's ``pow`` in the last bit.
    """
    arrays = not isinstance(n, int)
    comps = [""] if arrays else [f"_{i}" for i in range(n)]
    fn = "np.abs" if arrays else "abs"
    big = "np.maximum(ax, ax5)" if arrays else "(ax{i} if ax{i} > ax5{i} else ax5{i})"
    sums = {f"y{s}": f"x{{i}} + {_stage(f'A{s}', range(1, s))}" for s in range(2, 7)}
    sums["x5"] = f"x{{i}} + {_stage('A7', (1, 3, 4, 5, 6))}"
    sums["ax5"] = f"{fn}(x5{{i}})"
    sums["q"] = f"{fn}({_stage('E', (1, 3, 4, 5, 6, 7))}) / (atol + rtol * {big})"
    if n == "members":
        parts = {name.replace("y", "k"): v.format(i="") for name, v in sums.items()}
        return _compile("dopri members", _DOPRI_MEMBERS % {**parts, "ax0": "np.abs(x)"})

    def listed(name, m=n):
        return ", ".join(f"{name}{i}" for i in comps[:m])

    def call(dest, at, y):      # the stage's rates, k{s}{i}, at time `at` and state y{i}
        if arrays:
            return [f"{dest} = f({at}, {y})"]
        if k is None:
            return [f"{dest} = f({at}, [{listed(y)}])", f"{listed(dest)}, = {dest}"]
        rows = ", ".join(f"({', '.join(f'J_{r}_{i}' for i in range(k))},)" for r in range(k))
        rates = [f"{dest}_{i}" for i in range(k)] + [
            "(" + " + ".join(f"J_{r}_{i} * {y}_{k + i * k + j}" for i in range(k)) + ")"
            for r in range(k) for j in range(k) if n > k]
        lines = ([f"{dest} = f({at}, [{listed(y)}], e)"] if k == n else
                 [f"{dest}, J = f({at}, [{listed(y, k)}], e, True)", f"{rows}, = J"])
        return lines + [f"{listed(dest, k)}, = {dest}"] + [
            f"{dest}_{i} = e * {v}" for i, v in enumerate(rates)]

    def each(name, src):        # one statement per component
        return [f"{name}{i} = {sums[src].format(i=i)}" for i in comps]

    stages = []
    for s in range(2, 7):
        stages += each("y", f"y{s}") + call(f"k{s}", f"t + _C{s} * h" if s < 6 else "t + h", "y")
    stages += each("x5", "x5") + call("k7", "t + h", "x5") + each("ax5", "ax5") + each("q", "q")
    stages.append("enorm = float(np.max(q))" if arrays else
                  f"enorm = math.nan if math.isnan({listed('q').replace(', ', ' + ')}) "
                  f"else max(({listed('q')},))")
    start = ([] if arrays else [f"{listed('x')}, = x"]) + call("k1", "t", "x")
    start += [f"ax{i} = {fn}(x{i})" for i in comps]
    accept = [f"{v}{i} = {w}{i}" for v, w in (("x", "x5"), ("ax", "ax5"), ("k1", "k7"))
              for i in comps]
    src = _DOPRI % {
        "start": "\n".join("    " + line for line in start),
        "stages": "\n".join("        " + line for line in stages),
        "accept": "\n".join("            " + line for line in accept),
        "x": "x" if arrays else f"[{listed('x')}]",
        "max": "np.max(ax)" if arrays else f"max(({listed('ax')},))"}
    layout = "" if k == n else " lists" if k is None else f" k={k}"
    return _compile(f"dopri n={n}{layout}", src)


def _make_rhs(f: PeriodicField, eps: float):
    ev = f.evaluate

    def rhs(t, x):
        return eps * np.asarray(ev(t, x, eps), dtype=float)

    return rhs


def _step_cap(f, t0, t1, cfg):
    return cfg.max_steps * max(1, math.ceil((t1 - t0) / f.period))


def _start(f, x0, eps, batch=False):
    """x0 as floats, checked before any field call: of shape (k,), or (m, k)
    with `batch`, and finite, as eps must be."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 + batch or x0.shape[-1] != f.dim:
        raise ValueError(f"X0 must have shape (m, {f.dim})" if batch else
                         f"x0 must have shape ({f.dim},)")
    if not np.all(np.isfinite(x0)):
        raise NonFiniteState("initial state is not finite")
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    return x0


# a field's inf or NaN goes to the error norm and blow-up tests of the loops,
# not to a RuntimeWarning from the stage sums or the field's own arithmetic
@np.errstate(over="ignore", invalid="ignore")
def _run(f, t0, t1, x0, eps, cfg, record, fl=None, batch=False):
    # fl: (floats, k) for the float loop, if not f's own floats on all of x0
    x0 = _start(f, x0, eps, batch)
    t0, t1 = float(t0), float(t1)       # numpy times would make numpy stages
    rhs = _make_rhs(f, eps)
    cap = _step_cap(f, t0, t1, cfg)
    if cfg.method == "rk4-fixed":
        h = cfg.h if cfg.h is not None else f.period / 2000.0
        return _run_rk4(rhs, t0, t1, x0, h, cap, record)
    if x0.ndim == 2 or len(x0) > _FLOAT_LOOP_MAX:
        return _dopri_kernel(None)(rhs, t0, t1, x0, cfg.abs_tol, cfg.rel_tol, cap, record)
    args = (t0, t1, x0.tolist(), cfg.abs_tol, cfg.rel_tol, cap, record)
    fl, k = fl or (f.floats, f.dim)
    if fl:
        return _dopri_kernel(len(x0), k)(fl, *args, float(eps))
    return _dopri_kernel(len(x0))(lambda t, x: rhs(t, np.array(x)).tolist(), *args)


def integrate(f: PeriodicField, t0: float, t1: float, x0, eps: float,
              cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate x' = eps*g(t,x,eps) from (t0, x0) to t1, recording samples."""
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    return Trajectory(*_run(f, t0, t1, x0, eps, cfg, record=True))


def flow(f: PeriodicField, t0: float, t1: float, x0, eps: float,
         cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Final state only (no sample storage); same stepping as `integrate`."""
    return _run(f, t0, t1, x0, eps, cfg, record=False)


def flow_batch(f: PeriodicField, t0: float, t1: float, X0, eps: float,
               cfg: IntegratorConfig = IntegratorConfig(), *,
               shared_steps: bool = True) -> np.ndarray:
    """Flow an ensemble X0 of shape (m, k) over [t0, t1]; members do not interact.

    With ``shared_steps`` (the default) every member rides one accepted step
    sequence: adaptive error control reduces over the whole batch, so the
    grid resolves every member's corners and accuracy matches the worst
    member.  Integration errors of nearby members are then correlated, which
    close pairs need (``measure_contraction``).  A blow-up of any member
    raises.

    With ``shared_steps=False`` each member gets its own Dormand-Prince step
    size and error norm, so a member takes only the steps its own corners
    need and its result does not depend on the rest of the batch (permuting
    or subsetting X0 permutes or subsets the result bit for bit).  A member
    that blows up past ``BLOWUP_NORM``, goes non-finite or underflows its
    step comes back as a NaN row instead of aborting the others.  The field
    is called with paired times (``t`` of shape (m,) with ``x`` of shape
    (m, k)).  ``rk4-fixed`` has one step size anyway and ignores the flag.
    """
    if shared_steps or cfg.method == "rk4-fixed":
        return _run(f, t0, t1, X0, eps, cfg, record=False, batch=True)
    X0 = _start(f, X0, eps, batch=True)
    with np.errstate(over="ignore", invalid="ignore"):      # as in _run
        return _dopri_kernel("members")(_make_rhs(f, eps), t0, t1, X0, cfg.abs_tol,
                                        cfg.rel_tol, _step_cap(f, t0, t1, cfg))


def poincare_map(f: PeriodicField, v, eps: float,
                 cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """The period map v -> x(T, v, eps).

    At eps = 0 the flow is frozen and the map is the identity.
    """
    v = _start(f, v, eps)
    if eps == 0.0:
        return v.copy()
    return flow(f, 0.0, f.period, v, eps, cfg)


def variational_map(f: PeriodicField, v, eps: float,
                    cfg: IntegratorConfig = IntegratorConfig(),
                    t1: Optional[float] = None):
    """The period map and its derivative, ``(P(v), DP(v))``: one flow of
    (x, vec Phi) from (v, I) at t = 0 to `t1` (default the period T),
    Phi' = eps*(dg/dx)*Phi, by the steppers of `flow` with Phi inside the
    error norm.  The saltation matrix at each transversal crossing of a
    continuous field's switching set is the identity (Leine & Nijmeijer,
    *Dynamics and Bifurcations of Non-Smooth Mechanical Systems*, 2004), so
    Phi(t1) is the derivative of x(t1; v).

    dg/dx is the field's ``jacobian``, or else central differences of
    ``evaluate`` with step ``FD_STEP_SCALE * (1 + |x|)``: one call on
    the 2k states x +- h*e_j at scalar t.  Across a corner the difference
    ramps oddly about the crossing, so its error in Phi is second order in h.
    With ``floats`` and ``jacobian``, (x, vec Phi) flows in the float loop
    of `_dopri_kernel`: one ``floats(t, x, eps, True)`` call per stage, and
    eps*(J_i0*Phi_0j + J_i1*Phi_1j + ...) summed left to right.
    """
    v = _start(f, v, eps)
    k = f.dim
    if eps == 0.0:
        return v.copy(), np.eye(k)
    ev, jac, eye = f.evaluate, f.jacobian, np.eye(k)
    # floats(..., True) stands in for a jacobian only
    fl = jac and f.floats and k + k * k <= _FLOAT_LOOP_MAX and (f.floats, k)
    if jac is None:
        def jac(t, x, eps):
            h = FD_STEP_SCALE * (1.0 + float(np.linalg.norm(x)))
            G = np.asarray(ev(t, np.concatenate([x + h * eye, x - h * eye]), eps))
            return (G[:k] - G[k:]).T / (2.0 * h)

    def evaluate(t, y, eps):
        x = y[:k]
        return np.concatenate((ev(t, x, eps), jac(t, x, eps) @ y[k:].reshape(k, k)),
                              axis=None)

    y = _run(PeriodicField(k + k * k, f.period, evaluate), 0.0,
             f.period if t1 is None else t1, np.concatenate([v, eye.ravel()]),
             eps, cfg, record=False, fl=fl)
    return y[:k], y[k:].reshape(k, k)
