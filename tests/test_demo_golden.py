"""Pinned output of every bundled preset, byte for byte.

``data/demo_golden.json`` holds, for each preset at seeds 0 and 1, the exit
code of ``lagrangeforge demo <preset> --seed <seed>`` and the sha256 of every
artifact it writes except ``run_meta.json``, which carries timings and
versions.  Reports, CSVs and trajectories are fixed by the spec and the
seed, so any change to what a run writes fails the comparison.

Running this module as a script prints the digests of the current tree in
the fixture's format::

    PYTHONPATH=src python tests/test_demo_golden.py
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from lagrangeforge.cli import main
from lagrangeforge.presets import preset_names

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "demo_golden.json").read_text())
SEEDS = (0, 1)
CASES = [f"{name}/{seed}" for name in preset_names() for seed in SEEDS]


def _run(key: str, out: Path) -> dict:
    name, seed = key.split("/")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["demo", name, "--seed", seed, "--out", str(out)])
    files = {path.relative_to(out).as_posix():
             hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*"))
             if path.is_file() and path.name != "run_meta.json"}
    return {"exit_code": code, "files": files}


def _current() -> dict:
    out = {}
    for key in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out[key] = _run(key, Path(tmp))
    return out


def test_fixture_covers_every_preset_at_two_seeds():
    assert sorted(GOLDEN) == sorted(CASES)
    assert len(GOLDEN) == 10 * len(SEEDS)


@pytest.mark.parametrize("key", CASES)
def test_demo_artifacts_match_fixture(key, tmp_path):
    assert _run(key, tmp_path) == GOLDEN[key]


if __name__ == "__main__":
    print(json.dumps(_current(), indent=1, sort_keys=True))
