"""slowflow benchmark: one workload, one process, one client, ops back to back.

    python3 perfbench/run.py --workload shoot --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones (``setup_s``, ``ops_per_s``, ``op_p50_s``, ``peak_rss_mb``); with
``--trace 1`` the run does an untraced, a traced and another untraced pass of
set-up plus round 0, reports the per-layer metrics of the traced pass and
writes its spans to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: the 2x2 and ensemble linear algebra gains nothing from
# more, and a thread pool adds run-to-run noise (read when numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("shoot", "ensemble", "average"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import slowflow from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "slowflow", "__init__.py")):
        sys.exit(f"benchmark: no program source at {SRC}/slowflow")
    sys.path.insert(0, SRC)
    import slowflow
    if os.path.dirname(os.path.dirname(os.path.abspath(slowflow.__file__))) != SRC:
        sys.exit(f"benchmark: slowflow imported from {slowflow.__file__}, not {SRC}")


class Runner:
    """Runs ops, times them, checks them and keeps the tallies."""

    def __init__(self):
        self.latencies = []          # seconds; a failed op counts as +inf
        self.op_time = 0.0           # time inside completed and failed ops
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()

    def run(self, ops):
        from oracles import Mismatch
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
                err = None
            except Exception as exc:       # a program fault fails this op only
                err = exc
            dt = time.perf_counter() - t0
            self.op_time += dt
            if err is not None:
                why = "".join(traceback.format_exception_only(err)).strip()
            else:
                try:
                    why = op.check(out)
                except Mismatch as exc:
                    self.correct = False
                    why = f"WRONG OUTPUT: {exc}"
            if why is True:
                self.latencies.append(dt)
                continue
            self.failed += 1
            self.latencies.append(math.inf)
            if op.name not in self.reported or why.startswith("WRONG"):
                self.reported.add(op.name)
                known = f" [known fault: {op.fault}]" if op.fault else " [UNEXPECTED]"
                print(f"failed {op.name}: {why}{known}", file=sys.stderr)


def timed_setup(setup):
    t0 = time.perf_counter()
    ctx = setup(OUT)
    return ctx, time.perf_counter() - t0


def run_untraced(wl, args, import_s):
    """Set up, then run whole rounds until `args.seconds` of ops have passed.

    Set-up is repeated after the rounds that cross each 1/SETUP_REPEATS of
    the run, so that its median samples the host across the run as the ops
    do; the ops of every round start from the first set-up's context.
    """
    setup, make_round = wl
    ctx, dt = timed_setup(setup)
    setups = [dt]
    runner = Runner()
    elapsed = 0.0
    round_s = []
    while not round_s or elapsed < args.seconds:
        t0 = time.perf_counter()
        runner.run(make_round(ctx, args.seed, len(round_s)))
        round_s.append(time.perf_counter() - t0)
        elapsed += round_s[-1]
        due = len(setups) * args.seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and elapsed >= due:
            setups.append(timed_setup(setup)[1])
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(setup)[1])
    completed = runner.attempted - runner.failed
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (completed / runner.op_time, "1/s"),
        "op_p50_s": (statistics.median(runner.latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"rounds={[round(s, 3) for s in round_s]} ops={runner.attempted} "
          f"setups={[round(s, 3) for s in setups]} import_s={import_s:.3f}", file=sys.stderr)
    return runner, metrics


def run_traced(wl, args):
    """Per-layer metrics from one traced pass of set-up plus round 0.

    Untraced passes of the same work before and after it give the tracing
    overhead, with a linear drift of host speed cancelled.
    """
    from spans import PER_LAYER, Tracer
    setup, make_round = wl
    runner = Runner()

    def one_pass():
        t0 = time.perf_counter()
        ctx, _ = timed_setup(setup)
        runner.run(make_round(ctx, args.seed, 0))
        return ctx, time.perf_counter() - t0

    _, before_s = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        ctx, traced_s = one_pass()
    finally:
        tracer.uninstall()
    _, after_s = one_pass()
    untraced_s = 0.5 * (before_s + after_s)
    tracer.bytes_out = ctx.cli_bytes
    values = tracer.metrics()
    overhead = traced_s / untraced_s - 1.0
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "untraced_s": [before_s, after_s], "traced_s": traced_s,
                       "overhead": overhead, "metrics": values})
    print(f"traced pass {traced_s:.3f} s, untraced {before_s:.3f} s and {after_s:.3f} s, "
          f"overhead {100 * overhead:.1f}%; spans in {path}", file=sys.stderr)
    return runner, {k: (values[k], unit) for k, unit in PER_LAYER.items()}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import oracles
    import workloads
    import_s = time.perf_counter() - T_START
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            runner, metrics = run_traced(wl, args)
        else:
            runner, metrics = run_untraced(wl, args, import_s)
        oracles.self_test()
    except oracles.Mismatch as exc:
        traceback.print_exc()
        sys.exit(f"benchmark: set-up output is wrong: {exc}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
