"""Benchmark of the targetcost command-line tool, end to end and per layer.

Run from any directory; the package is imported from this checkout's
``src`` and need not be installed:

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Closed loop with one client: a single process calls ``targetcost.cli.main``
with the next op's arguments as soon as the previous op returns, for
``--seconds`` of wall time.  The only other threads are the CLI's own
default pool (``os.cpu_count()`` workers).  Each op's outputs are checked
against the repository's own correctness contracts outside the timed
interval; an exception, an unexpected exit code or a failed check counts as
a failed op, and ``fail_frac`` is failed ops over attempted ops.

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``calibrate``: ``calibrate --p P``, P cycling through 1.5, 2 and 3.
* ``mc``: set-up calibrates p = 2; each op is ``simulate`` of 8192 paths x
  2000 steps with seed S + i.
* ``oracle``: the four lattice runs n in {4000, 8000} x tie in {geq, gt},
  in a seeded order, then an order-1/2 Richardson step on the tie average.
* ``queries``: set-up calibrates p = 2; each op is one small lattice
  profile (``oracle --profile`` at n = 500), ``value`` at each of its
  levels, and one ``expcase``, with parameters drawn from the seed.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over three repetitions, of a fresh interpreter importing the CLI plus the
workload's own set-up.  ``kernel_err`` and ``oracle_err`` are deterministic
accuracy figures of the code, measured in every workload.
``mc_s_to_se_1e-3`` is printed on ``mc`` but not gated (see
``end_to_end``).  ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics, built from spans around every call one
module of the package makes into another (see ``tracer.py``); no file of
the package changes.  Each per-layer metric names, in the report, the
end-to-end metric it should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the full report: provenance, every op's seconds, the tail percentile
behind ``op_tail_s``, ``fail_frac`` and the first failures.  Temporary
curves live in a directory under the checkout that is removed on exit.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and
checks that every metric named in ``BENCHMARK.json`` is printed, as a
number, with its unit; it exits nonzero otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import Tracer, children_of, descendant_threads, self_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# g(1/2) at p = 2 where two converged routes agree: the lattice oracle's
# order-1/2 Richardson step on the tie average, and the kernel as the
# cutoff epsilon -> 0.
REF_VALUE = 0.86873
SE_TARGET = 1e-3
ORACLE_TIES = ("geq", "gt")
CALIBRATE_PS = ("1.5", "2", "3")

SIZES = {
    "full": {"mc_paths": 8192, "mc_steps": 2000, "oracle_ns": (4000, 8000),
             "query_n": 500, "setup_reps": 3},
    "smoke": {"mc_paths": 512, "mc_steps": 100, "oracle_ns": (500, 1000),
              "query_n": 200, "setup_reps": 1},
}
QUERY_LEVELS = 9
# Lattice-vs-kernel tolerance of verify's oracle_agreement suite at its
# quick budget, where it also runs the lattice at n = 500.
QUERY_ORACLE_TOL = 0.05

# Arguments the tracer records at the boundaries that feed a metric.
ANNOTATE = {
    "normals.std_normal_cdf": {"elems": "z"},
    "ode.eval_g": {"elems": "y"},
    "ode.shoot": {"p": "p"},
    "walk.dp_value": {"n": "n"},
    "sim.mc_cost_estimate": {"n_paths": "n_paths", "n_steps": "n_steps"},
}


class CheckFailed(Exception):
    """An op's outputs broke one of the repository's contracts."""


def _fail_early(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import targetcost from this checkout's src, ahead of any installed copy."""
    if not (SRC / "targetcost" / "__init__.py").is_file():
        _fail_early(f"no package source at {SRC / 'targetcost'}")
    sys.path.insert(0, str(SRC))
    import targetcost
    if Path(targetcost.__file__).resolve().parent != SRC / "targetcost":
        _fail_early(f"imported targetcost from {targetcost.__file__}, "
                    f"not from {SRC}")


# --------------------------------------------------------------------------
# Running ops


@dataclass
class Context:
    seed: int
    size: dict
    tmp: Path
    cli: object
    curve_p2: str = ""       # prefix of a calibrated p = 2 curve
    g_mid_p2: float = math.nan


def cli_call(ctx, argv, tracer=None):
    """Run one CLI command in-process and return its standard output; a
    nonzero exit code raises CheckFailed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            code = ctx.cli.main(argv)
        else:
            code = tracer.root("cli.main", ctx.cli.main, argv)
    if code != 0:
        raise CheckFailed(f"exit code {code} from {argv}: "
                          f"{err.getvalue().strip()}")
    return out.getvalue()


@dataclass
class OpResult:
    seconds: float
    traced: bool
    values: dict = field(default_factory=dict)
    error: str = ""


def run_op(ctx, workload, i, tracer=None):
    argvs = workload.argvs(ctx, i)
    t0 = perf_counter()
    traced = tracer is not None
    try:
        outs = [cli_call(ctx, argv, tracer) for argv in argvs]
        seconds = perf_counter() - t0
        return OpResult(seconds, traced, workload.check(ctx, argvs, outs))
    except CheckFailed as exc:
        return OpResult(perf_counter() - t0, traced, error=str(exc))
    except Exception as exc:  # any failure of the op counts against it
        detail = "".join(traceback.format_exception_only(type(exc), exc))
        return OpResult(perf_counter() - t0, traced, error=detail.strip())


# --------------------------------------------------------------------------
# Workloads: argument lists for op i, and the check of its outputs.


def calibrate_argvs(ctx, i):
    p = CALIBRATE_PS[(ctx.seed + i) % len(CALIBRATE_PS)]
    return [["calibrate", "--p", p, "--out", str(ctx.tmp / f"cal_p{p}")]]


def calibrate_check(ctx, argvs, outs):
    from targetcost.ode import (DEFAULT_BOUNDARY_TOL, curve_invariant_report,
                                load_curve)
    prefix = argvs[0][-1]
    curve, sidecar = load_curve(prefix + ".csv", prefix + ".json")
    broken = [k for k, (ok, _) in curve_invariant_report(curve).items()
              if not ok]
    if broken:
        raise CheckFailed(f"curve invariants failed: {broken}")
    residual = max(sidecar["left_residual"], sidecar["right_residual"])
    if not residual <= DEFAULT_BOUNDARY_TOL:
        raise CheckFailed(f"boundary residual {residual} above "
                          f"{DEFAULT_BOUNDARY_TOL}")
    if argvs[0][2] == "2":
        ctx.curve_p2, ctx.g_mid_p2 = prefix, sidecar["g_mid"]
    return {}


def calibrate_p2(ctx, tracer=None):
    """The mc workload's set-up: calibrate p = 2 and write the curve."""
    argv = ["calibrate", "--p", "2", "--out", str(ctx.tmp / "cal_p2")]
    outs = [cli_call(ctx, argv, tracer)]
    calibrate_check(ctx, [argv], outs)


def mc_argvs(ctx, i):
    return [["simulate", "--curve", ctx.curve_p2 + ".csv",
             "--n-paths", str(ctx.size["mc_paths"]),
             "--n-steps", str(ctx.size["mc_steps"]),
             "--seed", str(ctx.seed + i)]]


def mc_check(ctx, argvs, outs):
    from targetcost.verify import VALUE_TARGET, VALUE_TOL
    summary = json.loads(outs[0].strip().splitlines()[-1])
    mean, se = summary["mean_cost"], summary["stderr"]
    if summary["feasibility_violations"] != 0:
        raise CheckFailed(f"{summary['feasibility_violations']} violations")
    if not abs(mean - VALUE_TARGET) <= VALUE_TOL + 3.0 * se:
        raise CheckFailed(f"mean cost {mean} (stderr {se}) outside "
                          f"{VALUE_TARGET} +- {VALUE_TOL} + 3 stderr")
    return {"stderr": se}


def oracle_argvs(ctx, i):
    argvs = [["oracle", "--n", str(n), "--tie", tie]
             for n in ctx.size["oracle_ns"] for tie in ORACLE_TIES]
    random.Random(f"{ctx.seed}:{i}").shuffle(argvs)
    return argvs


def oracle_check(ctx, argvs, outs):
    value = {(int(a[2]), a[4]): float(o.strip()) for a, o in zip(argvs, outs)}
    for n in ctx.size["oracle_ns"]:
        if not value[n, "geq"] >= REF_VALUE >= value[n, "gt"]:
            raise CheckFailed(f"n={n}: tie bracket [{value[n, 'gt']}, "
                              f"{value[n, 'geq']}] misses {REF_VALUE}")
    n0, n1 = ctx.size["oracle_ns"]
    avg0, avg1 = (0.5 * (value[n, "geq"] + value[n, "gt"]) for n in (n0, n1))
    # Richardson step for an error of order n^(-1/2).
    estimate = avg1 + (avg1 - avg0) / (math.sqrt(n1 / n0) - 1.0)
    return {"oracle_estimate": estimate}


def queries_argvs(ctx, i):
    """A band of levels for the lattice profile, a state (T, x) for the
    value lookups at those levels, and (x, lam) for the exponential case,
    all drawn from the seed."""
    rng = random.Random(f"{ctx.seed}:{i}")
    lo, hi = round(rng.uniform(0.1, 0.3), 4), round(rng.uniform(0.7, 0.9), 4)
    T, x = round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(0.0, 0.9), 4)
    argvs = [["oracle", "--n", str(ctx.size["query_n"]),
              "--profile", f"{lo}:{hi}:{QUERY_LEVELS}",
              "--out", str(ctx.tmp / "profile.csv")]]
    for k in range(QUERY_LEVELS):
        y = lo + (hi - lo) * k / (QUERY_LEVELS - 1)
        c = math.sqrt(T) * statistics.NormalDist().inv_cdf(y)
        argvs.append(["value", "--curve", ctx.curve_p2 + ".csv", "--T", str(T),
                      "--x", str(x), "--c", repr(c)])
    x_exp, lam = round(rng.uniform(0.0, 0.9), 4), round(rng.uniform(0.5, 2.0), 4)
    argvs.append(["expcase", "--x", str(x_exp), "--lam", str(lam),
                  "--out", str(ctx.tmp / "witnesses.csv")])
    return argvs


def _csv_rows(path):
    lines = Path(path).read_text().split()
    return [dict(zip(lines[0].split(","), map(float, line.split(","))))
            for line in lines[1:]]


def queries_check(ctx, argvs, outs):
    from targetcost.expcase import entropy_closed_form
    profile = _csv_rows(argvs[0][-1])
    lookups = [json.loads(out) for out in outs[1:-1]]
    if len(profile) != len(lookups):
        raise CheckFailed(f"{len(profile)} profile rows for {len(lookups)} "
                          "value lookups")
    for row, v in zip(profile, lookups):
        if not abs(v["level"] - row["y"]) <= 1e-9:
            raise CheckFailed(f"value level {v['level']} for profile level "
                              f"{row['y']}")
        if not abs(v["g_at_level"] - row["g_dp"]) <= QUERY_ORACLE_TOL:
            raise CheckFailed(f"kernel {v['g_at_level']} and lattice "
                              f"{row['g_dp']} differ at level {row['y']}")
        scale = (1.0 - v["x"]) ** v["p"] / v["T"] ** (v["p"] - 1.0)
        if not math.isclose(v["value"], scale * v["g_at_level"], rel_tol=1e-12):
            raise CheckFailed(f"value {v['value']} is not (1-x)^p / T^(p-1) "
                              f"* g = {scale * v['g_at_level']}")
    # expcase: verify's exp_duality contracts on the value and the witnesses.
    x, lam = float(argvs[-1][2]), float(argvs[-1][4])
    value = float(outs[-1].split("value = ", 1)[1].split()[0])
    if value != math.expm1(lam * max(1.0 - x, 0.0)):  # T = 1
        raise CheckFailed(f"expcase value {value} at x={x}, lam={lam}")
    rows = _csv_rows(argvs[-1][-1])
    for a, b in zip(rows, rows[1:]):
        if not (b["mass"] > a["mass"] and b["entropy"] < a["entropy"]
                and b["duality_gap"] < a["duality_gap"]):
            raise CheckFailed(f"witnesses n={a['n']:g}, {b['n']:g} are not "
                              "monotone")
    for row in rows:
        closed = entropy_closed_form(int(row["n"]), 1.0)
        if not (abs(row["entropy"] - closed) <= 1e-7 * closed
                and row["duality_gap"] > -1e-12):
            raise CheckFailed(f"witness n={row['n']:g}: {row}")
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: object
    check: object
    setup: object = None


WORKLOADS = {w.name: w for w in (
    Workload("calibrate", calibrate_argvs, calibrate_check),
    Workload("mc", mc_argvs, mc_check, setup=calibrate_p2),
    Workload("oracle", oracle_argvs, oracle_check),
    Workload("queries", queries_argvs, queries_check, setup=calibrate_p2),
)}


# --------------------------------------------------------------------------
# Measurement


def cold_import_seconds(ctx):
    """Wall time of a fresh interpreter importing the CLI: the start-up
    every command-line invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import targetcost.cli"], env=env,
                   cwd=ctx.tmp, check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def measure_setup(ctx, workload):
    """Median over repetitions of CLI start-up plus the workload's set-up."""
    times = []
    for _ in range(ctx.size["setup_reps"]):
        seconds = cold_import_seconds(ctx)
        if workload.setup is not None:
            t0 = perf_counter()
            workload.setup(ctx)
            seconds += perf_counter() - t0
        times.append(seconds)
    return statistics.median(times)


def run_loop(ctx, workload, seconds, tracer=None):
    """Closed loop until `seconds` of wall time pass; with a tracer, odd
    ops are traced and even ops are not, and at least one of each runs."""
    results = []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        traced = tracer if (tracer is not None and i % 2 == 1) else None
        results.append(run_op(ctx, workload, i, traced))
        i += 1
        if perf_counter() >= deadline and (tracer is None or i >= 2):
            return results


def tail(times):
    """(value, percentile, samples beyond): the highest whole percentile
    with at least ten samples above it, or the median when there are too
    few samples for that to reach p50."""
    ordered = sorted(times)
    n = len(ordered)
    for q in range(99, 49, -1):
        idx = max(math.ceil(q * n / 100) - 1, 0)
        if n - idx - 1 >= 10:
            return ordered[idx], q, n - idx - 1
    return statistics.median(ordered), 50, n // 2


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mc_seconds_to_se(op_seconds, stderrs):
    """Seconds of ops needed for a standard error of SE_TARGET."""
    rms = math.sqrt(statistics.fmean(se * se for se in stderrs))
    return op_seconds * (rms / SE_TARGET) ** 2


def accuracy(ctx, results):
    """(kernel_err, oracle_err).  Both are deterministic properties of the
    code; a workload whose ops do not yield one gets it from one untimed
    calibrate p = 2, or one untimed oracle op, after its timed loop."""
    if not ctx.curve_p2:
        calibrate_p2(ctx)
    estimates = [r.values["oracle_estimate"] for r in results
                 if "oracle_estimate" in r.values]
    if not estimates:
        extra = run_op(ctx, WORKLOADS["oracle"], 0)
        if extra.error:
            raise CheckFailed(f"oracle op after the loop: {extra.error}")
        estimates = [extra.values["oracle_estimate"]]
    return (abs(ctx.g_mid_p2 - REF_VALUE),
            abs(statistics.median(estimates) - REF_VALUE))


def end_to_end(ctx, workload, seconds):
    setup_s = measure_setup(ctx, workload)
    results = run_loop(ctx, workload, seconds)
    rss = peak_rss_mb()  # before the untimed accuracy ops
    # Timings cover every attempted op, failed ones too; fail_frac counts those.
    times = [r.seconds for r in results]
    tail_s, q, beyond = tail(times)
    kernel_err, oracle_err = accuracy(ctx, results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "kernel_err": (kernel_err, "1"),
        "oracle_err": (oracle_err, "1"),
    }
    extra = {"op_tail": {"percentile": q, "samples_beyond": beyond,
                         "samples": len(times)}}
    stderrs = [r.values["stderr"] for r in results if "stderr" in r.values]
    if stderrs:
        # Reported, not gated: se^2 of one op of heavy-tailed path costs
        # varies about twofold between seeds, too much for a run's few ops.
        extra["report_only"] = {"mc_s_to_se_1e-3": (
            mc_seconds_to_se(statistics.median(times), stderrs), "s")}
    return metrics, results, extra


# --------------------------------------------------------------------------
# Per-layer metrics from the traced ops


class Absent(Exception):
    """A metric's input was not recorded: the boundary or argument it
    reads no longer exists."""


def arg(span, key):
    """The argument a span recorded under `key`; raises Absent if none."""
    if not span.info or key not in span.info:
        raise Absent(key)
    return span.info[key]


class LayerView:
    """Spans of one traced run: `setup` spans and the traced `ops` spans."""

    def __init__(self, setup_spans, op_spans, n_ops):
        self.n_ops = max(n_ops, 1)
        self.all = setup_spans + op_spans
        self.children = children_of(self.all)
        self.self_s = {s.id: self_time(s, self.children) for s in self.all}
        self.op_spans = op_spans

    def calls(self, name, spans=None):
        return [s for s in (self.op_spans if spans is None else spans)
                if s.name == name]

    def per_op_calls(self, name):
        return len(self.calls(name)) / self.n_ops

    def per_op_sum(self, name, key):
        return sum(arg(s, key) for s in self.calls(name)) / self.n_ops

    def per_op_self(self, name):
        return sum(self.self_s[s.id] for s in self.calls(name)) / self.n_ops

    def median_call_s(self, name, **match):
        durations = [s.t1 - s.t0 for s in self.calls(name, self.all)
                     if all(arg(s, k) == v for k, v in match.items())]
        return statistics.median(durations) if durations else 0.0

    def rate(self, name, work, wall=False):
        """Work per second of the op spans' self time, or of their wall
        time when `wall` is set."""
        spans = self.calls(name)
        busy = sum((s.t1 - s.t0) if wall else self.self_s[s.id] for s in spans)
        return sum(work(s) for s in spans) / busy if busy > 0 else 0.0


def _node_updates(span):
    n = arg(span, "n")
    return n * (n + 1) // 2  # the sweep from n + 1 nodes down to 1


def _path_steps(span):
    return arg(span, "n_paths") * arg(span, "n_steps")


def _block_mb(view):
    from targetcost import sim
    if not hasattr(sim, "BLOCK"):
        raise Absent("sim.BLOCK")
    # Each block holds its increments and its running Brownian values.
    sizes = [2 * min(sim.BLOCK, arg(s, "n_paths")) * (arg(s, "n_steps") + 1) * 8
             for s in view.calls("sim.mc_cost_estimate")]
    return max(sizes, default=0) / 1e6


def _worker_threads(view):
    counts = [len(descendant_threads(s, view.children) or {s.tid})
              for s in view.calls("sim.mc_cost_estimate")]
    return max(counts, default=0)


# name -> (unit, boundary it reads, value from a LayerView, what it moves)
CDF, EVAL_G = "normals.std_normal_cdf", "ode.eval_g"
QUANTILE, SHOOT = "normals.std_normal_quantile", "ode.shoot"
DP, MC = "walk.dp_value", "sim.mc_cost_estimate"
MOVES_CDF = "mc_s_to_se_1e-3 and op_p50_s on mc; op_p50_s on queries"
MOVES_WALK = "op_p50_s on oracle and queries"
MOVES_SIM = "mc_s_to_se_1e-3, op_p50_s and peak_rss_mb on mc"
LAYER_METRICS = {
    "normals.cdf_calls": ("count/op", CDF,
                          lambda v: v.per_op_calls(CDF), MOVES_CDF),
    "normals.cdf_elems": ("count/op", CDF,
                          lambda v: v.per_op_sum(CDF, "elems"), MOVES_CDF),
    "normals.cdf_self_s": ("s/op", CDF,
                           lambda v: v.per_op_self(CDF), MOVES_CDF),
    "normals.cdf_melems_per_s": (
        "Melem/s", CDF, lambda v: v.rate(CDF, lambda s: arg(s, "elems")) / 1e6,
        MOVES_CDF),
    "normals.quantile_calls": (
        "count/op", QUANTILE, lambda v: v.per_op_calls(QUANTILE),
        "op_p50_s on calibrate; setup_s and op_p50_s on mc"),
    "normals.quantile_self_s": (
        "s/op", QUANTILE, lambda v: v.per_op_self(QUANTILE),
        "op_p50_s on calibrate; setup_s and op_p50_s on mc"),
    **{f"ode.shoot_s.p{p}": (
        "s", SHOOT, lambda v, p=float(p): v.median_call_s(SHOOT, p=p),
        "op_p50_s on calibrate; setup_s on mc") for p in CALIBRATE_PS},
    "ode.save_curve_s": ("s", "ode.save_curve",
                         lambda v: v.median_call_s("ode.save_curve"),
                         "op_p50_s on calibrate and mc"),
    "ode.load_curve_s": ("s", "ode.load_curve",
                         lambda v: v.median_call_s("ode.load_curve"),
                         "op_p50_s on calibrate, mc and queries"),
    "ode.eval_g_calls": ("count/op", EVAL_G, lambda v: v.per_op_calls(EVAL_G),
                         "op_p50_s on queries"),
    "ode.eval_g_elems": ("count/op", EVAL_G,
                         lambda v: v.per_op_sum(EVAL_G, "elems"),
                         "op_p50_s on queries"),
    "ode.eval_g_self_s": ("s/op", EVAL_G, lambda v: v.per_op_self(EVAL_G),
                          "op_p50_s on queries"),
    "ode.eval_g_value_calls": (
        "count/op", "ode.eval_g_value",
        lambda v: v.per_op_calls("ode.eval_g_value"),
        "0 on mc while the simulator keeps its own cubic"),
    **{f"walk.dp_value_s.n{n}": (
        "s", DP, lambda v, n=n: v.median_call_s(DP, n=n), MOVES_WALK)
        for n in SIZES["full"]["oracle_ns"]},
    "walk.node_updates_per_s": ("1/s", DP, lambda v: v.rate(DP, _node_updates),
                                MOVES_WALK),
    "walk.dp_g_profile_s": ("s", "walk.dp_g_profile",
                            lambda v: v.median_call_s("walk.dp_g_profile"),
                            MOVES_WALK),
    "sim.mc_cost_estimate_s": ("s", MC, lambda v: v.median_call_s(MC),
                               MOVES_SIM),
    "sim.mc_self_s": ("s/op", MC, lambda v: v.per_op_self(MC), MOVES_SIM),
    "sim.path_steps_per_s": ("1/s", MC,
                             lambda v: v.rate(MC, _path_steps, wall=True),
                             MOVES_SIM),
    "sim.worker_threads": ("count", MC, _worker_threads, MOVES_SIM),
    "sim.block_mb_computed": ("MB", MC, _block_mb, MOVES_SIM),
    "expcase.witness_sequence_s": (
        "s", "expcase.witness_sequence",
        lambda v: v.median_call_s("expcase.witness_sequence"),
        "expected unmoved"),
    "cli.self_s": ("s/op", "cli.main", lambda v: v.per_op_self("cli.main"),
                   "op_p50_s on queries and calibrate"),
}


def per_layer(ctx, workload, seconds):
    import targetcost
    tracer = Tracer(targetcost, ANNOTATE)
    boundaries = tracer.boundaries | {"cli.main"}
    if workload.setup is not None:
        workload.setup(ctx, tracer)
    setup_spans = tracer.take()
    results = run_loop(ctx, workload, seconds, tracer)
    traced = [r for r in results if r.traced]
    view = LayerView(setup_spans, tracer.take(), len(traced))
    metrics = {}
    for name, (unit, boundary, fn, _moves) in LAYER_METRICS.items():
        try:
            value = fn(view) if boundary in boundaries else None
        except Absent:
            value = None
        metrics[name] = (value, unit)
    on = [r.seconds for r in traced]
    off = [r.seconds for r in results if not r.traced]
    metrics["trace.overhead_frac"] = (
        statistics.median(on) / statistics.median(off) - 1.0
        if on and off else None, "1")
    return metrics, results, {}


# --------------------------------------------------------------------------
# Provenance and output


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _git(*args):
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def working_set_bytes(size):
    """Computed bytes each workload's inner loop keeps live, or None once
    the package no longer has the sizing constants they come from."""
    from targetcost import normals, ode, sim
    try:
        edge = -normals.std_normal_quantile(ode.DEFAULT_EPSILON)
        nodes = 2 * round(edge / ode.GRID_DZ) + 1
        rows = min(sim.BLOCK, size["mc_paths"])
        return {
            "calibrate": nodes * 5 * 8,                # ys, gs, dgs, zs, gzs
            "mc": 2 * rows * (size["mc_steps"] + 1) * 8,   # per block, per thread
            "oracle": (max(size["oracle_ns"]) + 1) * 8 * 6,  # one sweep's arrays
            "queries": (size["query_n"] + 1) * 8 * 6,  # one sweep's arrays
        }
    except AttributeError:
        return None


def provenance(ctx):
    import numpy
    import scipy
    import targetcost
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "targetcost": targetcost.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "working_set_bytes": working_set_bytes(ctx.size),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "seed": ctx.seed,
        "argv": sys.argv,
    }


def run_workload(name, seed, seconds, trace, size):
    from targetcost import cli
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        ctx = Context(seed=seed, size=SIZES[size], tmp=Path(tmp), cli=cli)
        measure = per_layer if trace else end_to_end
        metrics, results, extra = measure(ctx, WORKLOADS[name], seconds)
        failures = [r.error for r in results if r.error]
        report = {
            "workload": name, "trace": trace, "size": size,
            "seconds": seconds, "attempted": len(results),
            "failed": len(failures), "fail_frac": len(failures) / len(results),
            "failures": failures[:10], **extra,
            "op_seconds": [r.seconds for r in results],
            "provenance": provenance(ctx),
        }
        if trace:
            report["moves"] = {k: v[3] for k, v in LAYER_METRICS.items()}
    return metrics, report


def print_result(metrics, report):
    print(f"workload {report['workload']}  seed {report['provenance']['seed']}"
          f"  seconds {report['seconds']}  trace {report['trace']}")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        note = ""
        if name == "op_tail_s":
            t = report["op_tail"]
            note = (f"  (p{t['percentile']}, {t['samples_beyond']} of "
                    f"{t['samples']} samples beyond)")
        print(f"  {name:34s} {shown:>14s} {unit}{note}")
    for name, (value, unit) in report.get("report_only", {}).items():
        print(f"  {name:34s} {value:>14.6g} {unit}  (report only)")
    print(f"  {'fail_frac':34s} {report['fail_frac']:>14.6g} 1"
          f"  ({report['failed']} of {report['attempted']} ops)")
    for failure in report["failures"]:
        print(f"  failed: {failure}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def smoke():
    """Every workload at tiny sizes, untraced and traced; checks that each
    metric BENCHMARK.json names is printed, as a number, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            metrics, report = run_workload(name, 1, 0.5, trace, "smoke")
            result = print_result(metrics, report)
            if not result["correct"]:
                problems.append(f"{name}: {report['failures']}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = result["metrics"]
            if set(printed) != set(expected):
                problems.append(f"{name} trace={trace}: metric names differ: "
                                f"{sorted(set(printed) ^ set(expected))}")
            for metric, unit in expected.items():
                got = printed.get(metric)
                if got is None or got["unit"] != unit or not isinstance(
                        got["value"], (int, float)):
                    problems.append(f"{name} trace={trace}: {metric} "
                                    f"printed as {got}, unit {unit} expected")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(f"smoke: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, check the metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    import_package()
    if args.smoke:
        return smoke()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print_result(*run_workload(name, args.seed, args.seconds,
                                   args.trace, "full"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
