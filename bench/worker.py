"""One benchmark process: set up a workload, run its operations, report JSON.

``run.py`` starts this script in a fresh interpreter for every set-up and
every measurement, so each starts cold: no warm caches, no imported
modules, no state left by an earlier workload.  The last line on stdout is
one JSON object.

Modes:

* ``setup``: import, generate the inputs, report the set-up time and exit.
* ``measure``: as ``setup``, then run whole rounds until ``--seconds`` have
  passed and at least ``MIN_OPS`` operations are done, or exactly ``--ops``
  operations.  No tracing.
* ``trace``: as ``measure`` with exactly ``--ops`` operations, with every
  layer wrapped by :class:`tracer.Tracer`.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

from calibrate import SpeedTrack, kernel
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# at least ten samples beyond the 90th percentile
MIN_OPS = 100
# rounds generated during set-up; later rounds are drawn when first needed
SETUP_ROUNDS = 4
# calibration samples taken right after each set-up
SETUP_KERNELS = 5
# rounds after which the traced counts are compared between two processes
CHECK_ROUNDS = 2

# counts that must repeat exactly in two processes given one seed
DETERMINISTIC_COUNTS = (
    "quadrature.integrand_evals",
    "evaluation.jet.calls",
    "dynamics.integrate.steps",
    "lagrangian.verify.points",
)


def _import_package():
    sys.path.insert(0, str(SRC))
    import lagrangeforge

    where = Path(lagrangeforge.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"imported lagrangeforge from {where}, not from {SRC}")


def install_layers(tracer) -> None:
    """Wrap each layer's public functions where other modules call them."""
    mod = importlib.import_module
    expressions = mod("lagrangeforge.expressions")
    normal_form = mod("lagrangeforge.normal_form")
    evaluation = mod("lagrangeforge.evaluation")
    quadrature = mod("lagrangeforge.quadrature")
    lagrangian = mod("lagrangeforge.lagrangian")
    dynamics = mod("lagrangeforge.dynamics")
    constructors = mod("lagrangeforge.constructors")
    cli = mod("lagrangeforge.cli")
    counts = tracer.counts

    def count_integrand(args, kwargs):
        integrand = args[0]

        def counted(z):
            counts["quadrature.integrand_evals"] += 1
            return integrand(z)

        return (counted,) + tuple(args[1:]), kwargs

    def count_points(report):
        counts["lagrangian.verify.points"] += report.samples_used + report.samples_skipped
        counts["lagrangian.verify.skipped"] += report.samples_skipped

    def count_steps(traj):
        counts["dynamics.integrate.steps"] += traj.n_steps
        counts["dynamics.integrate.rejected"] += traj.n_rejected

    tracer.patch(expressions, "parse_expression", "expressions.parse")
    tracer.patch(expressions, "differentiate", "expressions.differentiate")
    tracer.patch(expressions, "simplify", "expressions.simplify")
    tracer.patch(normal_form, "equivalent_expressions", "normal_form.equivalent")
    tracer.patch(normal_form, "normal_form", "normal_form.normal_form")
    tracer.patch(evaluation, "eval_jet2", "evaluation.jet")
    tracer.patch(evaluation, "evaluate", "evaluation.evaluate")
    tracer.patch(quadrature, "integrate_adaptive", "quadrature.integrate",
                 before=count_integrand)
    tracer.patch(lagrangian, "verify_lagrangian", "lagrangian.verify",
                 after=count_points)
    tracer.patch(lagrangian, "euler_lagrange_residual", "lagrangian.residual")
    tracer.patch(lagrangian, "pairwise_acceleration_gap", "lagrangian.gap")
    tracer.patch(dynamics, "integrate_ode", "dynamics.integrate", after=count_steps)
    for name in constructors.__all__:
        if name.startswith("build_") or name in (
                "multi_lagrangian_suite", "n_parameter_lagrangian",
                "log_velocity_lagrangian", "compose_invariant"):
            fn = getattr(constructors, name)
            tracer.patch(sys.modules[fn.__module__], name, "constructors.build")
    # the CLI's own helpers are only called from inside cli.py
    tracer.patch(cli, "main", "cli.main", include_defining=True)
    tracer.patch(cli, "validate_spec", "cli.validate", include_defining=True)
    tracer.patch(cli, "classify_equation", "cli.classify", include_defining=True)
    tracer.patch_mapping(cli._COMMANDS, "cli.task")


def _tree_size(path: Path) -> tuple:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, *, seconds=None, n_ops=None, tracer=None, check_ops=None):
    """Run operations round by round and judge each against the oracle.

    Op times are rescaled to the reference host speed (see calibrate.py);
    the raw wall times are returned too.  ``peak_rss_mb`` is read at the end
    of the first round that brings the count to ``MIN_OPS``, so it always
    covers the same work, however fast the host ran.
    """
    from workloads import REDRAW, is_failure, verdict_of

    out = {"attempted": 0, "failed": 0, "redraws": 0, "builds": 0,
           "raw_op_times": [], "failures": [], "rounds": 0,
           "round_len": len(workload.round(0)), "snapshot": None,
           "peak_rss_mb": None}
    scope = (lambda: tracer.span("bench.op")) if tracer else contextlib.nullcontext
    track = SpeedTrack()
    track.sample()
    starts = []
    started = time.perf_counter()
    r = 0
    while True:
        for op in workload.round(r):
            if n_ops is not None and out["attempted"] >= n_ops:
                break
            starts.append(time.perf_counter())
            verdict, elapsed = verdict_of(op, scope)
            out["attempted"] += 1
            out["raw_op_times"].append(elapsed)
            out["builds"] += op.build
            if verdict == REDRAW:
                out["redraws"] += 1
            if is_failure(op, verdict):
                out["failed"] += 1
                if len(out["failures"]) < 5:
                    out["failures"].append(f"round {r} {op.kind}: {verdict}")
            if op.out_dir is not None and op.out_dir.exists():
                files, size = _tree_size(op.out_dir)
                if tracer:
                    tracer.counts["cli.files_written"] += files
                    tracer.counts["cli.bytes_written"] += size
                shutil.rmtree(op.out_dir)
            if tracer and out["attempted"] == check_ops:
                out["snapshot"] = _deterministic_counts(tracer)
            track.maybe_sample()
        r += 1
        out["rounds"] = r
        if out["peak_rss_mb"] is None and out["attempted"] >= MIN_OPS:
            out["peak_rss_mb"] = _peak_rss_mb()
        if n_ops is not None:
            if out["attempted"] >= n_ops:
                break
        elif (time.perf_counter() - started >= seconds
              and out["attempted"] >= MIN_OPS):
            break
    track.sample()
    if out["peak_rss_mb"] is None:
        out["peak_rss_mb"] = _peak_rss_mb()
    out["op_times"] = [raw * track.factor(start + raw / 2.0)
                       for start, raw in zip(starts, out["raw_op_times"])]
    out["kernel_s"] = track.samples
    return out


def _deterministic_counts(tracer) -> dict:
    snap = {name: tracer.counts[name] for name in DETERMINISTIC_COUNTS}
    snap["evaluation.jet.calls"] = sum(
        1 for span in tracer.spans if span is not None and span[0] == "evaluation.jet")
    return snap


def _cache_sizes() -> dict:
    expressions = importlib.import_module("lagrangeforge.expressions")
    evaluation = importlib.import_module("lagrangeforge.evaluation")
    cache = evaluation._ANTIDERIV_CACHE
    return {
        "expressions.free_vars_cache.entries": expressions.free_vars.cache_info().currsize,
        "expressions.diff_cache.entries": expressions._diff_cached.cache_info().currsize,
        "evaluation.antideriv_cache.keys": len(cache),
        "evaluation.antideriv_cache.anchors": sum(len(xs) for xs, _ in cache.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    _import_package()
    import numpy
    from workloads import Workload

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    workload = Workload(args.workload, args.seed, scratch)
    rounds = SETUP_ROUNDS
    if args.mode == "trace":
        # every input is drawn before the tracer goes in
        rounds = -(-args.ops // len(workload.round(0)))
    for r in range(rounds):
        workload.round(r)
    result = {"setup_s": time.monotonic() - args.t0,
              "python": platform.python_version(), "numpy": numpy.__version__}
    # the host's speed right after set-up, to rescale the set-up time
    result["setup_kernel_s"] = [kernel() for _ in range(SETUP_KERNELS)]

    if args.mode == "measure":
        result.update(run_ops(workload, seconds=args.seconds, n_ops=args.ops))
    elif args.mode == "trace":
        tracer = Tracer()
        install_layers(tracer)
        try:
            check_ops = min(args.ops, CHECK_ROUNDS * len(workload.round(0)))
            result.update(run_ops(workload, n_ops=args.ops, tracer=tracer,
                                  check_ops=check_ops))
            result["snapshot_ops"] = check_ops
        finally:
            result["not_restored"] = tracer.restore()
        result["layers"] = tracer.layer_totals()
        result["counts"] = dict(tracer.counts)
        result["counts"].update(_cache_sizes())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
