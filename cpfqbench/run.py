#!/usr/bin/env python3
"""The cpfq benchmark: one workload per process, closed loop, one client.

    python3 cpfqbench/run.py --workload queries --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program comes from `src/` of the
checkout and is called in-process through `cpfq.cli.main(argv)`, with
stdout captured and every output checked against `reference`.  Only the
calls into the program are timed.

--trace 0 reports the end-to-end metrics.  On a shared host the speed of
a core changes by up to 2x within a second and from run to run, so every
call into the program is scaled to a reference speed: calibrate(), a fixed
piece of pure-Python work, runs between calls at most every CAL_EVERY
seconds, and a call's time is multiplied by CAL_REF over the median of the
calibrations around it.
  ops_per_s       operations per second over one round in which each
                  operation takes the median of its scaled times
  latency_p50_ms  median of every scaled call
  latency_p90_ms  90th percentile of every scaled call
  setup_s         the time of a set-up: a fresh import of cpfq plus one
                  warm-up call, outside the timed loop, of each distinct
                  operation, which fills the lazy tables a CLI user pays
                  for on every invocation.  A run makes SLICES + 1 set-ups,
                  one before the timed loop and one after each of its
                  slices; each part counts with the median of its times.
  peak_rss_mb     peak resident set size of this process
--trace 1 wraps the program's layers (see tracer.py) and reports the
per-layer metrics for one set-up plus one round, with the tracing
overhead.  Both modes repeat whole rounds until --seconds have passed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is non-zero when an
operation failed.  A record of the run, with its environment, goes to
cpfqbench/results/.
"""

import os

# one thread: numpy's BLAS pool must not start more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

# a runaway allocation in the program fails its operation with a
# MemoryError instead of exhausting the host's memory; a normal run's
# address space peaks near 0.35 GiB
MEMORY_CAP = 2 * 2 ** 30

# the timed loop runs in SLICES parts with a set-up after each, so that
# set-ups are sampled across the whole run
SLICES = 2

# the speed of the core is sampled by calibrate() at most every CAL_EVERY
# seconds of wall time, between calls into the program; a call is scaled
# by the median of the CAL_SPAN calibrations on either side of it and the
# one just before it, to a core on which calibrate() takes CAL_REF seconds
CAL_EVERY = 0.02
CAL_SPAN = 3
CAL_REF = 1e-3


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work of the kind the

    program does: powers of a polynomial over F_3 by the benchmark's own
    schoolbook product, reference.mul, on coefficient tuples."""
    t0 = time.perf_counter()
    for _ in range(24):
        reference.power((1, 2, 0, 1, 1), 6, 3)
    return time.perf_counter() - t0


class Clock:
    """Calibrations taken between calls; scale() turns a call's seconds

    into seconds at the reference speed."""

    def __init__(self):
        self.cal = []
        self.last = -float("inf")

    def tick(self):
        """Calibrate if one is due; returns the latest calibration's index."""
        if time.perf_counter() - self.last >= CAL_EVERY:
            self.cal.append(calibrate())
            self.last = time.perf_counter()
        return len(self.cal) - 1

    def finish(self):
        """Calibrations after the last call, so that it has a full window."""
        for _ in range(CAL_SPAN):
            self.cal.append(calibrate())

    def scale(self, seconds, index):
        window = self.cal[max(0, index - CAL_SPAN):index + CAL_SPAN + 1]
        return seconds * CAL_REF / statistics.median(window)


class Outcome:
    """One operation's result: seconds is None when the call raised, and

    wrong marks an output that disagrees with the reference."""

    __slots__ = ("seconds", "error", "wrong", "cal")

    def __init__(self, seconds, error=None, wrong=False):
        self.seconds = seconds
        self.error = error
        self.wrong = wrong
        self.cal = None


def fresh_import(clock=None):
    """Drop every cpfq module and import the CLI again; returns

    (the cpfq.cli module, seconds the import took, calibration index)."""
    for name in [m for m in sys.modules if m == "cpfq" or m.startswith("cpfq.")]:
        del sys.modules[name]
    gc.collect()
    cal = clock.tick() if clock is not None else None
    t0 = time.perf_counter()
    cli = importlib.import_module("cpfq.cli")
    return cli, time.perf_counter() - t0, cal


def call(cli, op, clock=None) -> Outcome:
    """One operation: time cli.main(argv), then check what it printed.

    With a clock, the outcome notes the calibration taken before it."""
    cal = clock.tick() if clock is not None else None
    res = _call(cli, op)
    res.cal = cal
    return res


def _call(cli, op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(op.argv)
            dt = time.perf_counter() - t0
    except (Exception, SystemExit):
        return Outcome(None, f"{op.label}: raised\n{traceback.format_exc()}")
    if rc != 0:
        return Outcome(dt, f"{op.label}: exit {rc}: {err.getvalue().strip()}")
    try:
        obj = json.loads(out.getvalue())
    except ValueError:
        return Outcome(dt, f"{op.label}: output is not JSON: {out.getvalue()[:200]!r}")
    try:
        problem = op.check(obj)
    except (KeyError, TypeError, AttributeError) as e:
        problem = f"output of an unexpected shape: {e!r}"
    if problem:
        return Outcome(dt, f"{op.label}: {problem}", wrong=True)
    return Outcome(dt)


def distinct(ops):
    seen, out = set(), []
    for op in ops:
        if tuple(op.argv) not in seen:
            seen.add(tuple(op.argv))
            out.append(op)
    return out


def set_up(ops, clock=None):
    """A fresh import plus one warm-up call of each distinct operation.

    Returns (cli module, [(seconds, calibration index) of the import,
    then of each warm-up call])."""
    cli, spent, cal = fresh_import(clock)
    times = [(spent, cal)]
    for op in distinct(ops):
        res = call(cli, op, clock)
        times.append((res.seconds or 0.0, res.cal))
    return cli, times


def run_rounds(cli, ops, seconds, on_op=None, clock=None, rng=None):
    """Whole rounds until `seconds` of wall time have passed.

    With rng, each round runs the operations in a new order, so that no
    operation always follows the same one.  Returns (one list per round
    of each operation's (seconds, calibration index) in the order of ops,
    seconds None where it raised; the failed outcomes)."""
    rounds, failures = [], []
    order = list(range(len(ops)))
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if rng is not None:
            rng.shuffle(order)
        latencies = [None] * len(ops)
        for k in order:
            if on_op is not None:
                on_op()
            res = call(cli, ops[k], clock)
            if res.error:
                failures.append(res)
            latencies[k] = (res.seconds, res.cal)
        rounds.append(latencies)
    return rounds, failures


def completed(rounds):
    """The latencies of every operation that did not raise."""
    return [x for r in rounds for x, _ in r if x is not None]


def environment():
    import numpy
    kernels = sys.modules.get("cpfq._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": bool(getattr(kernels, "HAVE_NUMBA", False)),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, seconds, seed):
    clock, rng = Clock(), random.Random(seed)
    cli, times = set_up(ops, clock)
    setups = [times]
    rounds, failures = [], []
    for _ in range(SLICES):
        gc.collect()
        more, fail = run_rounds(cli, ops, seconds / SLICES, clock=clock, rng=rng)
        rounds += more
        failures += fail
        cli, times = set_up(ops, clock)
        setups.append(times)
    clock.finish()
    # every completed call's scaled time, by operation
    scaled = [[clock.scale(*x) for x in col if x[0] is not None] for col in zip(*rounds)]
    per_op = [statistics.median(col) for col in scaled if col]
    latencies = [x for col in scaled for x in col]
    if len(latencies) < 2:
        raise SystemExit("fewer than two operations completed; no timing to report")
    metrics = {
        "ops_per_s": metric(len(per_op) / sum(per_op), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": metric(sum(statistics.median(clock.scale(*x) for x in part)
                              for part in zip(*setups)), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {"rounds": len(rounds), "setups": setups, "latency": rounds,
              "calibrations_s": clock.cal}
    return metrics, len(rounds) * len(ops), failures, record


def traced(ops, seconds, workload, seed):
    import tracer as tracing

    # untraced reference loop, then the same loop traced, in one process
    cli, _ = set_up(ops)
    gc.collect()
    plain_rounds, failures = run_rounds(cli, ops, seconds / 2)

    tr = tracing.Tracer()
    cli, _, _ = fresh_import()
    tr.install()
    t0 = time.perf_counter()
    for op in distinct(ops):
        call(cli, op)
    setup_wall = time.perf_counter() - t0
    setup = tr.totals()
    phases = {"setup": [0, len(tr.span_name)]}
    gc.collect()
    counter = itertools.count()

    def next_op():
        tr.op = next(counter)

    traced_rounds, more = run_rounds(cli, ops, seconds / 2, on_op=next_op)
    failures += more
    loop = {k: v - setup[k] for k, v in tr.totals().items()}
    phases["loop"] = [phases["setup"][1], len(tr.span_name)]
    rounds = len(traced_rounds)

    os.makedirs(RESULTS, exist_ok=True)
    trace_path = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.json")
    tr.write_spans(trace_path, phases)

    # one more round, untimed, with tracemalloc on inside kernel calls only
    tr.malloc_peak = 0
    for op in ops:
        call(cli, op)
    peak_alloc = tr.malloc_peak
    tr.uninstall()

    # one set-up plus one round
    per = {k: setup[k] + loop[k] / rounds for k in setup}
    plain_s = sum(completed(plain_rounds)) / len(plain_rounds)
    traced_s = sum(completed(traced_rounds)) / len(traced_rounds)
    overhead = (traced_s / plain_s - 1) * 100

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "polyring.divmod_per_factorize": ratio(per["polyring.trial_divmods"],
                                               per["polyring.factorize.calls"]),
        "kernels.valid_ratio": ratio(per["kernels.rows_valid"], per["kernels.rows_checked"]),
        "kernels.peak_alloc_mb": peak_alloc / 2 ** 20,
        "trace.overhead_pct": overhead,
    }
    # the per-layer metrics, with their units, as BENCHMARK.json lists them
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    metrics = {m["name"]: metric(derived[m["name"]] if m["name"] in derived
                                 else per[m["name"]], m["unit"])
               for m in per_layer}

    # each layer's share of the self time of one set-up plus one round
    by_layer = {}
    for name in tr.names:
        layer = name.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + per[f"{name}.self_s"]
    total_self = sum(by_layer.values())
    record = {
        "rounds": rounds,
        "setup_wall_s": setup_wall,
        "untraced_round_s": plain_s,
        "traced_round_s": traced_s,
        "layer_self_share": {k: v / total_self for k, v in by_layer.items()},
        "per_name": per,
        "not_traced": tr.missing,
        "spans_stored": len(tr.span_name),
        "spans_dropped": tr.dropped,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return metrics, (len(plain_rounds) + rounds) * len(ops), failures, record


def main(argv=None):
    ap = argparse.ArgumentParser(description="cpfq benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "cpfq", "cli.py")):
        print(f"no cpfq sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))

    ops = workloads.build(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failures, record = traced(
            ops, args.seconds, args.workload, args.seed)
    else:
        metrics, attempted, failures, record = end_to_end(ops, args.seconds, args.seed)

    env = environment()
    for res in failures[:10]:
        print("FAILED " + res.error, file=sys.stderr)
    result = {"correct": not any(res.wrong for res in failures),
              "attempted": attempted, "failed": len(failures), "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "operations_per_round": len(ops),
                   "run": record, "result": result,
                   "failures": [res.error for res in failures[:50]]},
                  fh, indent=1)
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
