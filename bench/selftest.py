"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

Tiny runs of every workload, traced and untraced, through the same command
the benchmark is run with; the oracle counting a wrong expected verdict; the
tracer putting back every attribute it patched; and the benchmark refusing
to report from a directory that holds no sources.  The file name keeps the
tests out of the package's own test suite, which runs from the repository
root.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ROUND_LEN = {"certify-antideriv": 9, "certify-closed": 7, "cli-demo": 13}

sys.path.insert(0, str(BENCH))
import worker  # noqa: E402

worker._import_package()
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_round_lengths_match_the_workloads(tmp_path):
    for name in WORKLOADS:
        assert len(workloads.Workload(name, 1, tmp_path).round(0)) == ROUND_LEN[name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_untraced(name):
    ops = ROUND_LEN[name]
    result = last_json(bench("--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--ops", str(ops)))
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (ops, 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_traced_passes_the_count_checks(name):
    ops = 2 * ROUND_LEN[name]
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--ops", str(ops))
    result = last_json(proc)
    assert "CHECK FAILED" not in proc.stdout
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.ops"] == ops
    evals = metrics["quadrature.integrand_evals"]
    if name == "certify-closed":
        assert evals == 0
    if name == "certify-antideriv":
        assert evals > 0
    if name == "cli-demo":
        assert metrics["cli.task.calls"] > 0 and metrics["cli.files_written"] > 0


def test_wrong_expected_verdict_is_counted_as_failed(tmp_path):
    work = workloads.Workload("certify-closed", 5, tmp_path)
    ops = work.round(0)
    ops[0].expect = workloads.FAIL       # a sound build, declared unsound
    ops[3].expect = workloads.PASS       # a negative control, declared sound
    out = worker.run_ops(work, n_ops=len(ops))
    assert out["attempted"] == len(ops)
    assert out["failed"] == 2
    assert [f.split(":")[0] for f in out["failures"]] == [
        f"round 0 {ops[0].kind}", f"round 0 {ops[3].kind}"]


def test_an_unexpected_exception_is_a_failure_and_a_redraw_is_not():
    def boom():
        raise ValueError("unexpected")

    def zero_crossing():
        raise workloads.lf.ZeroCrossingError("left the domain")

    op = workloads.Op("x", workloads.PASS, boom)
    verdict, _ = workloads.verdict_of(op)
    assert verdict.startswith("error: ValueError") and workloads.is_failure(op, verdict)
    op = workloads.Op("y", workloads.PASS, zero_crossing, build=True)
    verdict, _ = workloads.verdict_of(op)
    assert verdict == workloads.REDRAW and not workloads.is_failure(op, verdict)


def test_tracer_restores_every_patched_attribute():
    import lagrangeforge
    from lagrangeforge import cli, lagrangian

    before = (lagrangeforge.verify_lagrangian, lagrangian.eval_jet2,
              dict(cli._COMMANDS), cli.validate_spec)
    tracer = Tracer()
    worker.install_layers(tracer)
    assert lagrangian.eval_jet2 is not before[1]
    assert tracer.restore() == []
    assert (lagrangeforge.verify_lagrangian, lagrangian.eval_jet2,
            dict(cli._COMMANDS), cli.validate_spec) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
