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

One state (``x0`` of shape (k,)) with k <= ``_FLOAT_LOOP_MAX`` steps in
`_run_dopri_floats`, on Python float lists: at these sizes a numpy call costs
far more than its arithmetic.  Against the numpy loop, a flow of a field that
costs one numpy call ran 1.9-2.8x as fast at k = 2, 1.5-1.7x at 12, 1.2x at
20, even at 24-30 and 0.35x at 110 (2-core VM).  The cutoff of 20 keeps the
variational flow of a field with k <= 4 (k + k^2 components) on floats.
Ensembles and longer states take the numpy loop, `_run_dopri`.  A field's
``floats`` is called there on lists, any other field on an ndarray.

In both loops the Dormand-Prince stages are written out and must stay
bit-identical to the left-to-right sums a_i1*k1 + a_i2*k2 + ... of the
reference loop in the tests (no BLAS dot, no FMA), so both give the same
bits, field calls and steps for one state: whether Newton on a nonsmooth
period map meets its residual target can depend on the last bits.  Only
``variational_map`` on ``floats`` differs: its J*Phi float sums may round
otherwise than numpy's ``@`` (an FMA), so Phi moves in its last bits.
"""

from __future__ import annotations

import functools
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
    to the ``(k, k)`` matrix dg/dx, and an array of times with frozen ``x`` of
    shape ``(k,)`` to ``(len(t), k, k)`` (the quadrature of
    ``averaging.averaged_jacobian``).  Off the switching set it must be exact;
    on it, any one-sided value will do; without it ``variational_map`` takes
    central differences of ``evaluate``, and ``averaged_jacobian`` of the
    averaged field.  The field must be continuous across a switching set that
    moves with x, which flows cross transversally, so the period map is C^1
    there (the saltation matrix is the identity), and ``find_periodic`` takes
    its Newton steps and Floquet multipliers from the variational flow.  A
    jump at fixed times (a DSL ``sign`` of t, eps and parameters) does not
    move with x, so ``jacobian`` and the variational flow stay exact there.

    ``floats``, when given, maps float ``t`` and a list of k floats to g as
    a new list, and ``floats(t, x, eps, True)`` to ``(g, J)``, J as k rows:
    the bits of ``evaluate`` and ``jacobian``, which one-state flows and
    ``variational_map`` then never call.  Fields without it are unchanged.
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
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35 / 384 - 5179 / 57600,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def _check_finite(abs_x, t):
    # NaN fails the comparison as well as inf and blow-up
    if not np.max(abs_x) <= BLOWUP_NORM:
        raise NonFiniteState(f"state blew up near t={t:.6g}")


def _rk4_step(rhs, t, x, h):
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
        x = _rk4_step(rhs, t, x, step)
        _check_finite(np.abs(x), t + step)
        if record:
            ts.append(min(t + step, t1))
            xs.append(x)
    if record:
        ts[-1] = t1
        return np.asarray(ts), np.asarray(xs)
    return x


def _run_dopri(rhs, t0, t1, x0, atol, rtol, max_steps, record):
    """Adaptive Dormand-Prince with FSAL; error norm is a scaled max-norm.

    Runs ensembles and states longer than ``_FLOAT_LOOP_MAX``; a shorter
    single state takes `_run_dopri_floats`, which gives the same bits.  For
    batched states the norm reduces over the whole ensemble, keeping every
    member on a shared, accepted step sequence.
    """
    t = t0
    x = np.asarray(x0, dtype=float)
    span = t1 - t0
    h = span / 50.0
    hmin = span * 1e-14
    k1 = rhs(t, x)
    abs_x = np.abs(x)
    ts = [t0] if record else None
    xs = [x.copy()] if record else None
    steps = 0
    while t < t1:
        if steps >= max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} reached at t={t:.6g}")
        steps += 1
        h = min(h, t1 - t)
        k2 = rhs(t + _C2 * h, x + h * (_A21 * k1))
        k3 = rhs(t + _C3 * h, x + h * (_A31 * k1 + _A32 * k2))
        k4 = rhs(t + _C4 * h, x + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = rhs(t + _C5 * h, x + h * (_A51 * k1 + _A52 * k2 + _A53 * k3
                                       + _A54 * k4))
        k6 = rhs(t + h, x + h * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                 + _A64 * k4 + _A65 * k5))
        x5 = x + h * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5
                      + _A76 * k6)
        k7 = rhs(t + h, x5)
        err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                   + _E7 * k7)
        abs_x5 = np.abs(x5)
        scale = atol + rtol * np.maximum(abs_x, abs_x5)
        enorm = float(np.max(np.abs(err) / scale))
        if enorm <= 1.0:
            t = t + h
            x = x5
            abs_x = abs_x5
            k1 = k7
            _check_finite(abs_x, t)
            if record:
                ts.append(t)
                xs.append(x.copy())
        # a NaN norm (non-finite stages) shrinks as a rejection does
        fac = 0.9 * enorm ** -0.2 if enorm > 0 else 5.0 if enorm == 0 else 0.2
        h = h * min(5.0, max(0.2, fac))
        if h < hmin:
            raise StepLimitExceeded(f"step size underflow at t={t:.6g}")
    if record:
        ts[-1] = t1
        return np.asarray(ts), np.asarray(xs)
    return x


def _run_dopri_floats(rhs, t0, t1, x0, atol, rtol, max_steps, record, f=None):
    """`_run_dopri` for one state of at most ``_FLOAT_LOOP_MAX`` components,
    held as Python float lists: the same sums in the same order, so the same
    bits, field calls and steps, without a numpy call per stage term.  `f`
    maps (t, list) to a list; by default it is `rhs` on an ndarray."""
    f = f or (lambda t, x: rhs(t, np.array(x)).tolist())

    t = t0
    x = np.asarray(x0, dtype=float).tolist()
    span = t1 - t0
    h = span / 50.0
    hmin = span * 1e-14
    k1 = f(t, x)
    ax = [abs(a) for a in x]
    ts = [t0] if record else None
    xs = [x] if record else None
    steps = 0
    while t < t1:
        if steps >= max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} reached at t={t:.6g}")
        steps += 1
        h = min(h, t1 - t)
        k2 = f(t + _C2 * h, [a + h * (_A21 * b1) for a, b1 in zip(x, k1)])
        k3 = f(t + _C3 * h, [a + h * (_A31 * b1 + _A32 * b2)
                             for a, b1, b2 in zip(x, k1, k2)])
        k4 = f(t + _C4 * h, [a + h * (_A41 * b1 + _A42 * b2 + _A43 * b3)
                             for a, b1, b2, b3 in zip(x, k1, k2, k3)])
        k5 = f(t + _C5 * h, [a + h * (_A51 * b1 + _A52 * b2 + _A53 * b3
                                      + _A54 * b4)
                             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
        k6 = f(t + h, [a + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4
                                + _A65 * b5)
                       for a, b1, b2, b3, b4, b5 in zip(x, k1, k2, k3, k4, k5)])
        x5 = [a + h * (_A71 * b1 + _A73 * b3 + _A74 * b4 + _A75 * b5 + _A76 * b6)
              for a, b1, b3, b4, b5, b6 in zip(x, k1, k3, k4, k5, k6)]
        k7 = f(t + h, x5)
        ax5 = [abs(a) for a in x5]
        # `p if p > p5 else p5` is np.maximum here: a NaN |x_i| makes x5_i NaN
        q = [abs(h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6
                      + _E7 * b7)) / (atol + rtol * (p if p > p5 else p5))
             for p, p5, b1, b3, b4, b5, b6, b7
             in zip(ax, ax5, k1, k3, k4, k5, k6, k7)]
        enorm = max(q)
        if math.isnan(sum(q)):      # np.max propagates NaN, Python's max does not
            enorm = math.nan
        if enorm <= 1.0:
            t = t + h
            x = x5
            ax = ax5
            k1 = k7
            # a NaN in x5 made its q NaN and the step rejected, so max sees none
            if not max(ax) <= BLOWUP_NORM:
                raise NonFiniteState(f"state blew up near t={t:.6g}")
            if record:
                ts.append(t)
                xs.append(x)
        fac = 0.9 * enorm ** -0.2 if enorm > 0 else 5.0 if enorm == 0 else 0.2
        h = h * min(5.0, max(0.2, fac))
        if h < hmin:
            raise StepLimitExceeded(f"step size underflow at t={t:.6g}")
    if record:
        ts[-1] = t1
        return np.asarray(ts), np.asarray(xs)
    return np.array(x)


# a field's inf or NaN goes to the error norm and blow-up tests of the loops,
# not to a RuntimeWarning from the stage sums or the field's own arithmetic
@np.errstate(over="ignore", invalid="ignore")
def _run_dopri_members(rhs, t0, t1, x0, atol, rtol, max_steps):
    """Dormand-Prince with its own step size and error control per member.

    ``x0`` is an (m, k) ensemble; ``t`` and ``h`` are (m,) arrays and the
    field is called with paired times.  Each member's error norm is its own
    scaled max-norm, so an accepted member advances while a rejected one
    retries, and every member's result depends on its own start alone.  A
    finished member gets h = 0.  A member whose accepted state passes
    ``BLOWUP_NORM`` (or is not finite), or whose step underflows, is frozen
    (parked at t1 with h = 0) and returned as a NaN row.

    A member takes the steps the scalar loop would take for it, up to
    numpy's vectorised ``**`` differing from libm's ``pow`` in the last bit.
    """
    m = x0.shape[0]
    span = t1 - t0
    hmin = span * 1e-14
    x = x0.copy()
    if not span > 0:
        return x            # as the scalar loop; a negative h would never stop
    t = np.full(m, float(t0))
    h = np.full(m, span / 50.0)
    frozen = np.zeros(m, dtype=bool)
    k1 = rhs(t, x)
    abs_x = np.abs(x)
    steps = 0
    while True:
        h = np.minimum(h, t1 - t)
        if not h.any():
            break
        if steps >= max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} reached at "
                                    f"t={float(np.min(t)):.6g}")
        steps += 1
        # stage times t + c_i*h, one row per stage
        tc = _C_STAGES * h + t
        t_new = np.minimum(tc[4], t1)
        hc = h[:, None]
        k2 = rhs(tc[0], x + hc * (_A21 * k1))
        k3 = rhs(tc[1], x + hc * (_A31 * k1 + _A32 * k2))
        k4 = rhs(tc[2], x + hc * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = rhs(tc[3], x + hc * (_A51 * k1 + _A52 * k2 + _A53 * k3
                                  + _A54 * k4))
        k6 = rhs(t_new, x + hc * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                  + _A64 * k4 + _A65 * k5))
        x5 = x + hc * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5
                       + _A76 * k6)
        k7 = rhs(t_new, x5)
        err = hc * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                    + _E7 * k7)
        abs_x5 = np.abs(x5)
        scale = atol + rtol * np.maximum(abs_x, abs_x5)
        # row max as a column fold: a reduction along a short last axis is
        # several times slower at these sizes
        enorm = functools.reduce(np.maximum, (np.abs(err) / scale).T)
        acc = enorm <= 1.0
        t = np.where(acc, t_new, t)
        if not abs_x5.max() <= BLOWUP_NORM:
            blown = acc & ~(abs_x5.max(axis=1) <= BLOWUP_NORM)
            acc &= ~blown
            frozen |= blown
            t[blown] = t1
        a = acc[:, None]
        x = np.where(a, x5, x)
        abs_x = np.where(a, abs_x5, abs_x)
        k1 = np.where(a, k7, k1)
        # the scalar loop's factor; fmax sends a NaN enorm (non-finite
        # stages) to the 0.2 shrink of a rejection
        fac = 0.9 * np.maximum(enorm, 1e-300) ** -0.2
        h = h * np.fmin(5.0, np.fmax(0.2, fac))
        under = (h < hmin) & (t < t1)
        if under.any():
            frozen |= under
            t[under] = t1
    x[frozen] = np.nan
    return x


def _make_rhs(f: PeriodicField, eps: float):
    ev = f.evaluate

    def rhs(t, x):
        return eps * np.asarray(ev(t, x, eps), dtype=float)

    return rhs


def _step_cap(f, t0, t1, cfg):
    return cfg.max_steps * max(1, math.ceil((t1 - t0) / f.period))


@np.errstate(over="ignore", invalid="ignore")      # as in _run_dopri_members
def _run(f, t0, t1, x0, eps, cfg, record):
    t0, t1 = float(t0), float(t1)       # numpy times would make numpy stages
    rhs = _make_rhs(f, eps)
    cap = _step_cap(f, t0, t1, cfg)
    if cfg.method == "rk4-fixed":
        h = cfg.h if cfg.h is not None else f.period / 2000.0
        return _run_rk4(rhs, t0, t1, x0, h, cap, record)
    fl = f.floats
    if x0.ndim == 1 and len(x0) <= _FLOAT_LOOP_MAX:
        return _run_dopri_floats(rhs, t0, t1, x0, cfg.abs_tol, cfg.rel_tol, cap, record,
                                 fl and (lambda t, x: [eps * g for g in fl(t, x, eps)]))
    return _run_dopri(rhs, t0, t1, x0, cfg.abs_tol, cfg.rel_tol, cap, record)


def integrate(f: PeriodicField, t0: float, t1: float, x0, eps: float,
              cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate x' = eps*g(t,x,eps) from (t0, x0) to t1, recording samples."""
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (f.dim,):
        raise ValueError(f"x0 must have shape ({f.dim},)")
    if not np.all(np.isfinite(x0)):
        raise NonFiniteState("initial state is not finite")
    return Trajectory(*_run(f, t0, t1, x0, eps, cfg, record=True))


def flow(f: PeriodicField, t0: float, t1: float, x0, eps: float,
         cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Final state only (no sample storage); same stepping as `integrate`."""
    return _run(f, t0, t1, np.asarray(x0, dtype=float), eps, cfg, record=False)


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
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != f.dim:
        raise ValueError(f"X0 must have shape (m, {f.dim})")
    if shared_steps or cfg.method == "rk4-fixed":
        return _run(f, t0, t1, X0, eps, cfg, record=False)
    if not np.all(np.isfinite(X0)):
        raise NonFiniteState("initial state is not finite")
    return _run_dopri_members(_make_rhs(f, eps), t0, t1, X0, cfg.abs_tol,
                              cfg.rel_tol, _step_cap(f, t0, t1, cfg))


def poincare_map(f: PeriodicField, v, eps: float,
                 cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """The period map v -> x(T, v, eps).

    At eps = 0 the flow is frozen and the map is the identity.
    """
    v = np.asarray(v, dtype=float)
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
    With ``floats`` and ``jacobian``, (x, vec Phi) flows on Python floats,
    J*Phi summed left to right.
    """
    v = np.asarray(v, dtype=float)
    k = f.dim
    if eps == 0.0:
        return v.copy(), np.eye(k)
    ev, jac, eye, tail = f.evaluate, f.jacobian, np.eye(k), range(1, k)
    fl = jac and f.floats       # floats(..., True) stands in for a jacobian only
    if jac is None:
        def jac(t, x, eps):
            h = FD_STEP_SCALE * (1.0 + float(np.linalg.norm(x)))
            G = np.asarray(ev(t, np.concatenate([x + h * eye, x - h * eye]), eps))
            return (G[:k] - G[k:]).T / (2.0 * h)

    def evaluate(t, y, eps):
        x = y[:k]
        return np.concatenate((ev(t, x, eps), jac(t, x, eps) @ y[k:].reshape(k, k)),
                              axis=None)

    def floats(t, y, eps):
        g, J = fl(t, y[:k], eps, True)
        cols = [y[k + j::k] for j in range(k)]
        for row in J:
            for col in cols:
                s = row[0] * col[0]
                for i in tail:
                    s += row[i] * col[i]
                g.append(s)
        return g

    y = _run(PeriodicField(k + k * k, f.period, evaluate, floats=fl and floats), 0.0,
             f.period if t1 is None else t1, np.concatenate([v, eye.ravel()]),
             eps, cfg, record=False)
    return y[:k], y[k:].reshape(k, k)
