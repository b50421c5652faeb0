"""The lagrangeforge benchmark: one command for every workload and metric.

    python3 bench/run.py --workload certify-antideriv --seed 1 --seconds 20 --trace 0

Every set-up and every measurement runs ``worker.py`` in a fresh
interpreter, with ``LAGRANGEFORGE_THREADS`` unset and a fixed hash seed.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a traced run.  Human-
readable lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("certify-antideriv", "certify-closed", "cli-demo")

# set-ups per untraced run; setup_s is their median
SETUPS = 5
# the whole run, set-ups included, must end within this many seconds
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # the package's worker pool stays at one thread, as by default
    env.pop("LAGRANGEFORGE_THREADS", None)
    # set and dict order, and with it every traced count, repeat across processes
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(mode: str, args, scratch: Path, deadline: float, **extra) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--scratch", str(scratch)]
    for key, value in extra.items():
        if value is not None:
            cmd += [f"--{key}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile_ms(times: list, q: int) -> float:
    """The q-th percentile of ``times`` in milliseconds."""
    return statistics.quantiles(times, n=100)[q - 1] * 1e3


def end_to_end(args, scratch, deadline) -> tuple:
    setups = []
    for _ in range(SETUPS):
        child = spawn("setup", args, scratch, deadline)
        scale = REFERENCE_S / statistics.median(child["setup_kernel_s"])
        setups.append((child["setup_s"], child["setup_s"] * scale))
    run = spawn("measure", args, scratch, deadline,
                seconds=args.seconds, ops=args.ops)
    times, raw = run["op_times"], run["raw_op_times"]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (quantile_ms(times, 90), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [f"set-ups: {len(setups)}, ops: {len(times)} in {run['rounds']} rounds "
             f"of {run['round_len']}",
             f"failed_frac: {run['failed'] / run['attempted']:.6g} "
             f"({run['failed']} of {run['attempted']}), redraws: {run['redraws']}",
             f"wall times before rescaling: setup_s "
             f"{statistics.median(w for w, _ in setups):.4f}, ops_per_s "
             f"{len(raw) / sum(raw):.4f}, op_p50_ms {statistics.median(raw) * 1e3:.4f}, "
             f"op_p90_ms {quantile_ms(raw, 90):.4f}; calibration kernel median "
             f"{statistics.median(run['kernel_s']) * 1e3:.3f} ms over "
             f"{len(run['kernel_s'])} samples (reference {REFERENCE_S * 1e3:.3f} ms)",
             f"python {run['python']}, numpy {run['numpy']}"]
    return metrics, [run], [], notes


def per_layer(args, scratch, deadline) -> tuple:
    # an untraced run fixes the operations and the baseline speed; the traced
    # run repeats exactly those operations, and a second traced process
    # repeats the first rounds to show that the counts are deterministic
    half = None if args.ops is not None else args.seconds / 2.0
    base = spawn("measure", args, scratch, deadline, seconds=half, ops=args.ops)
    traced = spawn("trace", args, scratch, deadline, ops=base["attempted"])
    check_ops = traced["snapshot_ops"]
    again = spawn("trace", args, scratch, deadline, ops=check_ops)
    layers, counts = traced["layers"], traced["counts"]
    # span times are rescaled like op times, by the traced run's median kernel
    scale = REFERENCE_S / statistics.median(traced["kernel_s"])

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0) * scale

    def total_s(layer):
        return layers.get(layer, {}).get("total_s", 0.0) * scale

    def ratio(a, b):
        return a / b if b else 0.0

    points = counts.get("lagrangian.verify.points", 0)
    evals = counts.get("quadrature.integrand_evals", 0)
    builds = traced["builds"]
    m = {}
    for layer, what in (("expressions.parse", "c"), ("expressions.differentiate", "cs"),
                        ("expressions.simplify", "cs"), ("normal_form.equivalent", "cs"),
                        ("normal_form.normal_form", "cs"), ("evaluation.jet", "cs"),
                        ("evaluation.evaluate", "cs"), ("quadrature.integrate", "cs"),
                        ("lagrangian.verify", "cs"), ("lagrangian.residual", "c"),
                        ("lagrangian.gap", "cs"), ("dynamics.integrate", "cs"),
                        ("constructors.build", "s"), ("cli.main", "cs"),
                        ("cli.validate", "cs"), ("cli.classify", "cs"),
                        ("cli.task", "cs")):
        if "c" in what:
            m[f"{layer}.calls"] = (calls(layer), "count")
        if "s" in what:
            m[f"{layer}.self_s"] = (self_s(layer), "s")
    for name in ("expressions.free_vars_cache.entries", "expressions.diff_cache.entries",
                 "evaluation.antideriv_cache.keys", "evaluation.antideriv_cache.anchors",
                 "dynamics.integrate.steps", "dynamics.integrate.rejected"):
        m[name] = (counts.get(name, 0), "count")
    m["evaluation.jet.us_per_call"] = (
        ratio(total_s("evaluation.jet"), calls("evaluation.jet")) * 1e6, "us")
    m["quadrature.integrand_evals"] = (evals, "count")
    m["quadrature.evals_per_call"] = (ratio(evals, calls("quadrature.integrate")), "count")
    m["lagrangian.verify.points"] = (points, "count")
    m["lagrangian.verify.us_per_point"] = (
        ratio(total_s("lagrangian.verify"), points) * 1e6, "us")
    m["lagrangian.verify.skipped_frac"] = (
        ratio(counts.get("lagrangian.verify.skipped", 0), points), "fraction")
    m["constructors.redraws"] = (traced["redraws"], "count")
    m["constructors.accept_ratio"] = (1.0 - ratio(traced["redraws"], builds), "fraction")
    m["cli.files_written"] = (counts.get("cli.files_written", 0), "count")
    m["cli.bytes_written"] = (counts.get("cli.bytes_written", 0), "bytes")
    m["trace.ops"] = (traced["attempted"], "count")
    m["trace.overhead_frac"] = (
        sum(traced["op_times"]) / sum(base["op_times"]) - 1.0, "fraction")
    m["trace.unattributed_frac"] = (
        ratio(self_s("bench.op"), total_s("bench.op")), "fraction")

    problems = []
    if traced["not_restored"]:
        problems.append(f"attributes not restored: {traced['not_restored']}")
    if traced["snapshot"] != again["snapshot"]:
        problems.append(f"counts differ between two processes after {check_ops} ops: "
                        f"{traced['snapshot']} vs {again['snapshot']}")
    if args.workload == "certify-closed" and evals != 0:
        problems.append(f"quadrature ran on certify-closed: {evals} integrand evaluations")
    if args.workload == "certify-antideriv" and evals <= 0:
        problems.append("no quadrature on certify-antideriv")
    notes = [f"traced ops: {traced['attempted']}, untraced baseline ops: "
             f"{base['attempted']}, count check after {check_ops} ops in two processes",
             f"python {traced['python']}, numpy {traced['numpy']}"]
    return m, [base, traced, again], problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations instead of "
                             "--seconds (for quick checks)")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    if not (ROOT / "src" / "lagrangeforge" / "__init__.py").is_file():
        print(f"no lagrangeforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, runs, problems, notes = measure(args, scratch, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"nproc {os.cpu_count()}, LAGRANGEFORGE_THREADS unset, PYTHONHASHSEED=0")
    for line in notes:
        print(line)
    for run in runs:
        for failure in run["failures"]:
            print(f"FAILED {failure}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
