"""Smoke test of the e2e benchmark (collected by the tier-1 ``pytest``).

Runs ``run.py --smoke`` once — small scale, one shared build, two
rounds per workload, untraced and traced — and checks the benchmark's
own contract: declared names and units, no failed operation, identical
op counts across rounds.  No timing is asserted.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def smoke() -> dict:
    done = run_benchmark("--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    assert payload["smoke"] is True
    return payload["results"]


def test_manifest_names_and_bounds(manifest):
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all((ROOT / path).is_dir() for path in manifest["paths"])


def test_every_workload_emits_exactly_the_declared_metrics(manifest, smoke):
    assert list(smoke) == [w["name"] for w in manifest["workloads"]]
    for workload, modes in smoke.items():
        for section in ("end_to_end", "per_layer"):
            declared = {e["name"]: e["unit"] for e in manifest[section]}
            emitted = {
                name: entry["unit"]
                for name, entry in modes[section]["metrics"].items()
            }
            assert emitted == declared, (workload, section)
            values = [e["value"] for e in modes[section]["metrics"].values()]
            assert all(isinstance(v, (int, float)) for v in values)
        end_to_end = modes["end_to_end"]["metrics"]
        assert all(entry["value"] > 0 for entry in end_to_end.values())


def test_nothing_fails_and_every_round_does_the_same_work(smoke):
    for workload, modes in smoke.items():
        for result in modes.values():
            assert result["failed"] == 0 and result["correct"], workload
            assert result["attempted"] >= 1
        rounds = modes["end_to_end"]["ops_per_round"]
        assert len(rounds) == 2 and rounds[0] == rounds[1], workload


def test_a_smoke_run_can_never_become_the_baseline():
    baseline = HERE / "baseline.json"
    before = baseline.read_bytes()
    done = run_benchmark("--smoke", "--write-baseline")
    assert done.returncode == 2
    assert baseline.read_bytes() == before
