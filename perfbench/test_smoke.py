"""Smoke tests of the benchmark itself, at tiny sizes (about a minute in all).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must emit every metric that BENCHMARK.json names, with its
unit, pass its output checks, and the benchmark must refuse to run where the
paracnn sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("section,trace", [("end_to_end", 0), ("per_layer", 1)])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, section, trace):
    proc = run_bench(ROOT, "--smoke", "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(BENCH_DIR, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(BENCH_DIR):
            if os.path.isfile(os.path.join(BENCH_DIR, name)):
                shutil.copy(os.path.join(BENCH_DIR, name), os.path.join(bare, "perfbench"))
        proc = run_bench(bare, "--workload", "toy_twin_train", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_speed_scaling_uses_the_samples_in_the_interval():
    sys.path.insert(0, BENCH_DIR)
    import speed

    sampler = speed.Sampler()
    sampler.at = [1.0, 2.0, 3.0, 10.0]
    sampler.speed = {"interpreter": [0.5, 1.0, 1.5, 2.0], "array": [1.0, 1.0, 1.0, 4.0]}
    assert sampler.scaled(0.5, 3.5, "interpreter") == pytest.approx(3.0 * 1.0)  # mean of three
    assert sampler.scaled(9.0, 9.5, "interpreter") == pytest.approx(0.5 * 2.0)  # nearest
    assert sampler.scaled(3.2, 3.4, "interpreter") == pytest.approx(0.2 * 1.5)
    assert sampler.scaled(9.0, 11.0, "array") == pytest.approx(2.0 * 4.0)
    assert sampler.scaled(1.95, 2.05, "interpreter") == pytest.approx(0.1 * 1.0)  # widened
    assert sampler.scaled(2.1, 2.2, "interpreter") == pytest.approx(0.1 * 1.0)    # to 0.25 s
    assert speed.Sampler().scaled(0.0, 2.0, "array") == 2.0                   # nothing sampled
