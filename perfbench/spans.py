"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around the calls into each ``slowflow`` module's public
functions (the names in each module's ``__all__``), by rebinding those names in
every ``slowflow`` module namespace for the duration of the traced pass.  Field
evaluations are far too frequent to record one span each, so the ``evaluate``
callable of every field the built-in factories or the DSL compiler build is
wrapped to add its count, point count and time to the enclosing span instead.

A span's self time is its duration minus its child spans and the field time
directly under it.  Nothing is written until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import time
import types
from collections import defaultdict

MODULES = ("averaging", "certify", "cli", "exprdsl", "odeint", "orbit",
           "smalllin", "vdp")

# factory -> layer whose evaluation cost its fields are charged to
FIELD_FACTORIES = {
    ("vdp", "nonsmooth_vdp_field"): "vdp",
    ("vdp", "classical_vdp_field"): "vdp",
    ("vdp", "linear_test_field"): "vdp",
    ("exprdsl", "field_from_spec"): "exprdsl",
}

# per-layer metrics, in BENCHMARK.json order: name -> unit
PER_LAYER = {
    "vdp.field_evals": "count", "vdp.field_points": "count", "vdp.field_self_s": "s",
    "exprdsl.field_evals": "count", "exprdsl.field_points": "count",
    "exprdsl.field_self_s": "s",
    "odeint.flow_calls": "count", "odeint.batch_flow_calls": "count",
    "odeint.rhs_evals": "count", "odeint.evals_per_flow": "count",
    "odeint.steps": "count", "odeint.self_s": "s",
    "orbit.solves": "count", "orbit.newton_iters": "count", "orbit.jacobians": "count",
    "orbit.period_maps": "count", "orbit.period_maps_per_solve": "count",
    "orbit.jacobian_s": "s", "orbit.self_s": "s",
    "averaging.avg_calls": "count", "averaging.quad_points": "count",
    "averaging.jacobians": "count", "averaging.find_root_calls": "count",
    "averaging.newton_iters": "count", "averaging.find_root_failed": "count",
    "averaging.self_s": "s",
    "smalllin.calls": "count", "smalllin.eig_calls": "count", "smalllin.self_s": "s",
    "certify.reports": "count", "certify.pnorm_calls": "count", "certify.self_s": "s",
    "vdp.recover_root_calls": "count", "vdp.find_root_per_point": "count",
    "vdp.amplitude_scan_s": "s",
    "cli.commands": "count", "cli.self_s": "s", "cli.bytes_out": "B",
}

# span fields: id, name, start, end, parent, child_s, field_evals, field_points,
# raised, iterations (from the returned result, when it carries them)
ID, NAME, START, END, PARENT, CHILD_S, FE, FP, RAISED, ITERS = range(10)


class Tracer:
    """Spans and field counts for one traced pass; install() ... uninstall()."""

    def __init__(self):
        self.spans = []
        self.field = defaultdict(lambda: [0, 0, 0.0])   # layer -> evals, points, s
        self.bytes_out = 0
        # frames: span id, name, start, child_s, field evals, field points
        self._stack = [[-1, "bench", time.perf_counter(), 0.0, 0, 0]]
        self._ids = itertools.count()
        self._restore = []

    # --- instrumentation -----------------------------------------------------

    def _span(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), name, 0.0, 0.0, 0, 0]
            parent = stack[-1]
            stack.append(frame)
            raised = True
            iters = None
            frame[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                iters = getattr(out, "iterations", None)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                parent[3] += end - frame[2]
                spans.append((frame[0], name, frame[2], end, parent[0], frame[3],
                              frame[4], frame[5], raised, iters))

        return traced

    def _field(self, layer, f):
        stack, totals = self._stack, self.field[layer]
        ev, dim = f.evaluate, f.dim

        def evaluate(t, x, eps):
            t0 = time.perf_counter()
            out = ev(t, x, eps)
            dt = time.perf_counter() - t0
            frame = stack[-1]
            n = out.size // dim
            frame[3] += dt
            frame[4] += 1
            frame[5] += n
            totals[0] += 1
            totals[1] += n
            totals[2] += dt
            return out

        return dataclasses.replace(f, evaluate=evaluate)

    def _factory(self, layer, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self._field(layer, factory(*args, **kwargs))

        return build

    def install(self):
        """Rebind every public function of every slowflow module to a traced one."""
        mods = [importlib.import_module(f"slowflow.{m}") for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    continue
                new = self._span(f"{short}.{fname}", fn)
                layer = FIELD_FACTORIES.get((short, fname))
                if layer is not None:
                    new = self._factory(layer, new)
                wrapped[id(fn)] = new
        for mod in mods + [importlib.import_module("slowflow")]:
            for key, val in list(vars(mod).items()):
                if id(val) in wrapped and isinstance(val, types.FunctionType):
                    self._restore.append((mod, key, val))
                    setattr(mod, key, wrapped[id(val)])

    def uninstall(self):
        for mod, key, val in reversed(self._restore):
            setattr(mod, key, val)
        self._restore.clear()

    # --- derived metrics -----------------------------------------------------

    def metrics(self):
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s[NAME]].append(s)
        parent_of = {s[ID]: s[PARENT] for s in self.spans}
        name_of = {s[ID]: s[NAME] for s in self.spans}

        def count(*names):
            return sum(len(by_name[n]) for n in names)

        def incl(name):
            return sum(s[END] - s[START] for s in by_name[name])

        def self_s(module):
            return sum(s[END] - s[START] - s[CHILD_S] for s in self.spans
                       if s[NAME].startswith(module + "."))

        def under(span, ancestor):
            p = span[PARENT]
            while p >= 0:
                if name_of.get(p) == ancestor:
                    return True
                p = parent_of.get(p, -1)
            return False

        def ratio(a, b):
            return a / b if b else 0.0

        flows = count("odeint.flow", "odeint.integrate")
        batch = count("odeint.flow_batch")
        rhs = sum(s[FE] for s in self.spans if s[NAME].startswith("odeint."))
        solves = count("orbit.find_periodic")
        maps = count("odeint.poincare_map")
        roots = by_name["averaging.find_root"]
        recover = count("vdp.recover_root")
        m = {
            "odeint.flow_calls": flows,
            "odeint.batch_flow_calls": batch,
            "odeint.rhs_evals": rhs,
            "odeint.evals_per_flow": ratio(rhs, flows + batch),
            "odeint.steps": max(0, rhs - flows - batch) // 6,
            "odeint.self_s": self_s("odeint"),
            "orbit.solves": solves,
            "orbit.newton_iters": sum(s[ITERS] or 0 for s in by_name["orbit.find_periodic"]),
            "orbit.jacobians": count("orbit.poincare_jacobian"),
            "orbit.period_maps": maps,
            "orbit.period_maps_per_solve": ratio(maps, solves),
            "orbit.jacobian_s": incl("orbit.poincare_jacobian"),
            "orbit.self_s": self_s("orbit"),
            "averaging.avg_calls": count("averaging.averaged_function"),
            "averaging.quad_points": sum(s[FP] for s in by_name["averaging.averaged_function"]),
            "averaging.jacobians": count("averaging.averaged_jacobian"),
            "averaging.find_root_calls": len(roots),
            "averaging.newton_iters": sum(s[ITERS] or 0 for s in roots if not s[RAISED]),
            "averaging.find_root_failed": sum(1 for s in roots if s[RAISED]),
            "averaging.self_s": self_s("averaging"),
            "smalllin.calls": sum(len(v) for k, v in by_name.items()
                                  if k.startswith("smalllin.")),
            "smalllin.eig_calls": count("smalllin.eigenvalues", "smalllin.symeig",
                                        "smalllin.eig2x2"),
            "smalllin.self_s": self_s("smalllin"),
            "certify.reports": count("certify.theorem_report"),
            "certify.pnorm_calls": count("certify.pnorm_operator",
                                         "certify.pnorm_operator_sampled"),
            "certify.self_s": self_s("certify"),
            "vdp.recover_root_calls": recover,
            "vdp.find_root_per_point": ratio(
                sum(1 for s in roots if under(s, "vdp.recover_root")), recover),
            "vdp.amplitude_scan_s": incl("vdp.amplitude_roots"),
            "cli.commands": count("cli.main"),
            "cli.self_s": self_s("cli"),
            "cli.bytes_out": self.bytes_out,
        }
        for layer in ("vdp", "exprdsl"):
            evals, points, secs = self.field[layer]
            m[f"{layer}.field_evals"] = evals
            m[f"{layer}.field_points"] = points
            m[f"{layer}.field_self_s"] = secs
        return {k: m[k] for k in PER_LAYER}

    def dump(self, path, extra):
        """Write spans, field totals and `extra` as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "child_s",
                            "field_evals", "field_points", "raised", "iterations"],
            "spans": [list(s) for s in sorted(self.spans, key=lambda s: s[START])],
            "fields": {k: list(v) for k, v in self.field.items()},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
