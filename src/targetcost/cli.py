"""Command-line interface.

Commands: calibrate, value, oracle, simulate, bsde-check, expcase, verify.
An optional flat `key = value` config file (# comments) is read as the
flags `--key=value`, placed before the command-line flags, so each key is
checked like its flag and precedence is flags, then the file, then built-in
defaults.  The environment variable TARGETCOST_SEED fills a seed that
neither sets.

Exit codes: 0 success, 2 usage error, 3 calibration or convergence
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import (CalibrationError, ResourceError, TargetCostError,
                     UsageError)
from .normals import CDF_MIN, Params, std_normal_cdf
from .ode import DEFAULT_EPSILON, eval_g, load_curve, save_curve, shoot, value_function
from .sim import (bsde_residual, dump_path_csv, mc_cost_estimate,
                  recorded_paths)
from .walk import dp_g_profile, dp_value, save_profile
from . import expcase, verify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CALIBRATION = 3
EXIT_VERIFY = 4

DEFAULT_SEED = 12345

# Most levels `oracle --profile` takes; its level lists grow with COUNT.
MAX_PROFILE_LEVELS = 100_000


def _config_flags(path, command, options):
    """The config file's `key = value` lines as `--key=value` tokens.  Keys
    must name an option exactly: argparse would take `pro` for `--profile`."""
    flags = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            flag = f"--{key.replace('_', '-')}"
            if flag not in options:
                raise UsageError(
                    f"{path}:{lineno}: unknown {command} config key {key!r} ({flag})")
            flags.append(f"{flag}={raw.strip()}")
    return flags


def _default_seed():
    env = os.environ.get("TARGETCOST_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"TARGETCOST_SEED must be an integer: {env!r}") from exc
    return DEFAULT_SEED


def _positive(parser_name):
    def convert(text):
        value = float(text)
        if not (value > 0.0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"{parser_name} must be > 0")
        return value
    return convert


def _load_checked_curve(curve_path, p):
    sidecar_path = os.path.splitext(curve_path)[0] + ".json"
    if not os.path.exists(curve_path):
        raise UsageError(f"curve file not found: {curve_path}")
    if not os.path.exists(sidecar_path):
        raise UsageError(f"curve sidecar not found: {sidecar_path}")
    curve, sidecar = load_curve(curve_path, sidecar_path)
    if p is not None and abs(curve.p - p) > 1e-12:
        raise UsageError(
            f"--p {p} does not match curve sidecar p={curve.p} ({sidecar_path})")
    return curve, sidecar


def cmd_calibrate(args):
    out = args.out or f"gcurve_p{args.p:g}"
    result = shoot(args.p, args.epsilon)
    curve = result.curve
    save_curve(curve, out + ".csv", out + ".json",
               meta={"g_mid": result.g_mid, "gamma": result.gamma,
                     "invariants": result.invariants,
                     "solver": result.solver})
    print(f"g_mid = {result.g_mid:.17g}")
    print(f"gamma = {result.gamma:.17g}")
    print(f"left_residual = {curve.left_residual:.3e}")
    print(f"right_residual = {curve.right_residual:.3e}")
    print(f"curve: {out}.csv  sidecar: {out}.json")
    failed = [f"{name} (worst {worst:.3g})" for name, (ok, worst)
              in result.invariants.items() if not ok]
    if failed:
        print(f"warning: curve fails invariants: {', '.join(failed)}",
              file=sys.stderr)
    return EXIT_OK


def cmd_value(args):
    curve, _sidecar = _load_checked_curve(args.curve, args.p)
    params = Params(curve.p, args.T, args.x, args.c)
    level = std_normal_cdf(args.c / math.sqrt(args.T))
    g_at_level = eval_g(curve, level)
    payload = {"p": curve.p, "T": args.T, "x": args.x, "c": args.c,
               "level": level, "g_at_level": g_at_level,
               "value": value_function(curve, params, g_at_level)}
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_oracle(args):
    if args.profile:
        try:
            lo, hi, count = args.profile.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise UsageError(f"--profile expects LO:HI:COUNT, got {args.profile!r}") from exc
        if not (0.0 < lo <= hi < 1.0 and count >= 1):
            raise UsageError("--profile needs 0 < LO <= HI < 1 and COUNT >= 1")
        if count > MAX_PROFILE_LEVELS:
            raise ResourceError(f"--profile COUNT {count} is above the limit of "
                                f"{MAX_PROFILE_LEVELS} levels")
        levels = list(np.linspace(lo, hi, count))
        profile = dp_g_profile(args.n, args.p, levels, tie=args.tie)
        out = args.out or "oracle_profile.csv"
        save_profile(profile, out)
        for y, val in profile:
            print(f"{y:.6f} {val:.17g}")
        print(f"profile: {out}")
        return EXIT_OK
    value = dp_value(args.n, args.T, args.c, args.p, tie=args.tie)
    print(f"{value:.17g}")
    return EXIT_OK


def cmd_simulate(args):
    curve, _ = _load_checked_curve(args.curve, args.p)
    params = Params(curve.p, args.T, args.x, args.c)
    mean, stderr, violations = mc_cost_estimate(
        curve, params, args.n_paths, args.n_steps, args.seed)
    summary = {"params": {"p": params.p, "T": params.T, "x": params.x,
                          "c": params.c},
               "n_paths": args.n_paths, "n_steps": args.n_steps,
               "seed": args.seed, "mean_cost": mean, "stderr": stderr,
               "feasibility_violations": violations}
    if args.dump_paths:
        os.makedirs(args.dump_paths, exist_ok=True)
        count = min(args.dump_count, args.n_paths)
        for i, path in enumerate(recorded_paths(curve, params, args.n_steps,
                                                args.seed, count)):
            with open(os.path.join(args.dump_paths, f"path_{i:04d}.csv"),
                      "w", newline="") as fh:
                dump_path_csv(path, fh)
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_bsde_check(args):
    curve, _ = _load_checked_curve(args.curve, args.p)
    stats = bsde_residual(curve, curve.p, args.T, args.c, args.n_paths,
                          args.n_steps, args.delta, args.seed)
    print(json.dumps(dataclasses.asdict(stats), sort_keys=True))
    return EXIT_OK


def cmd_expcase(args):
    try:  # every input is checked before the first line is printed
        ns = [int(v) for v in args.n_list.split(",")] if args.n_list else [4, 8, 16, 32, 64]
    except ValueError as exc:
        raise UsageError(f"--n-list expects comma-separated integers, got {args.n_list!r}") from exc
    witnesses, flags = expcase.witness_sequence(ns, args.T, args.c)
    value = expcase.exp_value(args.T, args.x, args.lam)
    control = expcase.exp_optimal_control(args.T, args.x)
    print(f"value = {value:.17g}")
    print(f"optimal_rate = {control:.17g}")
    out = args.out or "witnesses.csv"
    expcase.save_witnesses(witnesses, args.T, args.x, args.lam, out)
    final_gap = expcase.duality_gap(args.T, args.x, args.lam, witnesses[-1])
    print(f"witnesses: {out}  final_gap = {final_gap:.4f}")
    if not (flags["mass_increasing"] and flags["entropy_decreasing"]):
        print(f"warning: witness monotonicity broke on n={ns}: {flags}",
              file=sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    report = verify.run_verification(args.budget, seed=args.seed)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    if not report["passed"]:
        failed = [k for k, v in report["suites"].items() if not v["passed"]]
        print(f"verification failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="targetcost",
        description="Value function, optimal control simulation and "
                    "verification for Brownian terminal-target cost "
                    "minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(cmd, fn, flags):
        sp = sub.add_parser(cmd)
        sp.set_defaults(fn=fn, options=frozenset(name for name, _ in flags))
        sp.add_argument("--config", default=None,
                        help="flat key = value config file")
        for name, kwargs in flags:
            sp.add_argument(name, **kwargs)
        return sp

    add("calibrate", cmd_calibrate, [
        ("--p", dict(type=float, default=2.0, help="cost exponent > 1")),
        ("--epsilon", dict(type=float, default=DEFAULT_EPSILON,
                           help="tail target: stored ends within it of 1, 0")),
        ("--out", dict(default="", help="output prefix (csv + json)")),
    ])
    add("value", cmd_value, [
        ("--p", dict(type=float, default=None)),
        ("--T", dict(type=_positive("--T"), default=1.0)),
        ("--x", dict(type=float, default=0.0)),
        ("--c", dict(type=float, default=0.0)),
        ("--curve", dict(default="gcurve_p2.csv", help="curve CSV path")),
    ])
    add("oracle", cmd_oracle, [
        ("--n", dict(type=int, default=2000, help="lattice steps")),
        ("--T", dict(type=_positive("--T"), default=1.0)),
        ("--c", dict(type=float, default=0.0)),
        ("--p", dict(type=float, default=2.0)),
        ("--tie", dict(choices=("geq", "gt"), default="geq")),
        ("--profile", dict(default="", help="LO:HI:COUNT level sweep")),
        ("--out", dict(default="", help="profile CSV path")),
    ])
    add("simulate", cmd_simulate, [
        ("--curve", dict(default="gcurve_p2.csv")),
        ("--p", dict(type=float, default=None)),
        ("--T", dict(type=_positive("--T"), default=1.0)),
        ("--x", dict(type=float, default=0.0)),
        ("--c", dict(type=float, default=0.0)),
        ("--n-steps", dict(type=int, default=2000)),
        ("--n-paths", dict(type=int, default=10000)),
        ("--seed", dict(type=int, default=None)),
        ("--dump-paths", dict(default="", help="directory for per-path CSVs")),
        ("--dump-count", dict(type=int, default=1)),
        ("--summary-out", dict(default="", help="summary JSON path")),
    ])
    add("bsde-check", cmd_bsde_check, [
        ("--curve", dict(default="gcurve_p2.csv")),
        ("--p", dict(type=float, default=None)),
        ("--T", dict(type=_positive("--T"), default=1.0)),
        ("--c", dict(type=float, default=0.0)),
        ("--n-steps", dict(type=int, default=1000)),
        ("--n-paths", dict(type=int, default=64)),
        ("--delta", dict(type=float, default=0.45)),
        ("--seed", dict(type=int, default=None)),
    ])
    add("expcase", cmd_expcase, [
        ("--T", dict(type=_positive("--T"), default=1.0)),
        ("--x", dict(type=float, default=0.0)),
        ("--lam", dict(type=_positive("--lam"), default=1.0)),
        ("--c", dict(type=float, default=0.0)),
        ("--n-list", dict(default="4,8,16,32,64")),
        ("--out", dict(default="", help="witness CSV path")),
    ])
    add("verify", cmd_verify, [
        ("--budget", dict(choices=("full", "quick"), default="full")),
        ("--seed", dict(type=int, default=None)),
        ("--report", dict(default="", help="JSON report path")),
    ])
    return parser


def _validate(args):
    if getattr(args, "p", None) is not None and args.p <= 1.0:
        raise UsageError("--p must be > 1")
    if getattr(args, "epsilon", None) is not None and not (CDF_MIN <= args.epsilon < 0.1):
        raise UsageError(f"--epsilon must lie in [{CDF_MIN:.4g}, 0.1)")
    if getattr(args, "x", None) is not None and args.command != "expcase" \
            and not (0.0 <= args.x <= 1.0):
        raise UsageError("--x must lie in [0, 1]")
    if getattr(args, "n", None) is not None and args.n < 2:
        raise UsageError("--n must be >= 2")
    if getattr(args, "n_steps", None) is not None and args.n_steps < 2:
        raise UsageError("--n-steps must be >= 2")
    if getattr(args, "n_paths", None) is not None and args.n_paths < 1:
        raise UsageError("--n-paths must be >= 1")
    if getattr(args, "dump_count", None) is not None and args.dump_count < 0:
        raise UsageError("--dump-count must be >= 0")
    if getattr(args, "delta", None) is not None and args.T is not None \
            and not (0.0 < args.delta < args.T / 2.0):
        raise UsageError("--delta must lie in (0, T/2)")


def _join_negative_values(argv):
    """argv with `--flag -1e-3` written `--flag=-1e-3`.  argparse reads a
    token such as -1e-3 as an option, not a negative number; every option
    of this CLI but --help takes one value, so the join is safe."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and prev != "--help" \
                and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None):
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The command comes first (there are no global flags); the
            # file's flags go right after it, so the user's own flags win.
            file_flags = _config_flags(args.config, args.command, args.options)
            args = parser.parse_args(argv[:1] + file_flags + argv[1:])
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        for key in ("out", "profile", "dump_paths", "summary_out", "report"):
            if getattr(args, key, None) == "":
                setattr(args, key, None)
        _validate(args)
        return args.fn(args)
    except (CalibrationError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CalibrationError) and exc.diagnostics:
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (TargetCostError, OSError) as exc:
        # usage and domain errors, and unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
