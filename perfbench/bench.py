"""Runs one workload (or every workload) and turns what it did into the result.

A single-workload run is one process: set up ``setup_repeats`` times (the
median is ``setup_s``), run the measured loop untraced, both while
``speed.SAMPLER`` samples the machine's speed, and with ``--trace 1``
set up once more and replay one operation per phase under the tracer. Output
checks then compare every operation with the first (where all operations
repeat the same work), with the stored reference for this seed if there is
one, and a fixed-input reference case (the smoke size at seed 0) with its
stored reference.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np

import tracer as tracer_mod
import workloads
from speed import SAMPLER, clock, scaled

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "_out")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

# Losses, val_ce and eval scores may move by this relative amount (float64
# summation order); token streams and counts must match exactly.
FLOAT_REL_TOL = 1e-6
CANARY_SEED = 0

E2E_UNITS = {
    "setup_s": "s",
    "train_items_per_s": "1/s",
    "decode_words_per_s": "1/s",
    "decode_ms_per_paragraph.p50": "ms",
    "peak_rss_mb": "MB",
}


# -- output checks ---------------------------------------------------------------


def digest(output: dict) -> dict:
    """The checked form of one operation's output; token streams become a hash."""
    out = {k: v for k, v in output.items() if k != "tokens"}
    if "tokens" in output:
        blob = json.dumps(output["tokens"], separators=(",", ":")).encode()
        out["tokens_sha256"] = hashlib.sha256(blob).hexdigest()
        out["paragraphs"] = len(output["tokens"])
        out["words"] = sum(len(s) for p in output["tokens"] for s in p)
    return out


def differences(actual, expected, where="") -> list:
    """Where ``actual`` departs from ``expected``: floats by FLOAT_REL_TOL, the rest exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in differences(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in differences(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_REL_TOL):
            return []
    elif actual == expected:
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


def check_against(outputs: dict, reference: dict, failures: dict, label: str):
    """Compare every operation that both sides ran; record the first few differences."""
    common = [k for k in outputs if k in reference]
    if not common:
        failures[label] = f"no operation in common with the reference ({sorted(reference)})"
    for key in common:
        bad = differences(digest(outputs[key]), reference[key], key)
        if bad:
            failures[f"{label}:{key}"] = "; ".join(bad[:3])


def load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {"canary": {}, "seeded": {}}
    with open(REFERENCES) as fh:
        return json.load(fh)


def save_references(refs: dict):
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- environment -------------------------------------------------------------------


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def _source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "paracnn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


# -- one workload ---------------------------------------------------------------------


def _finite(value: float) -> float:
    return float(value) if math.isfinite(value) else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _setup(wl, seed, work, probe, repeats):
    """Set up ``repeats`` times from scratch; returns (last state, times, setup-train rates)."""
    times, rates = [], []
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = clock()
        state = wl.setup(seed, work, probe)
        times.append(scaled(t0, clock(), "array"))
        if wl.trains_in_setup:
            rates.append(state["train_items"] / state["train_s"])
    return state, times, rates


def _rate(phases):
    """Median over phases of work per second; robust to one phase hit by a stall."""
    return _median([work / seconds for work, seconds in phases if seconds > 0])


def end_to_end(m, setup_times, setup_rates) -> dict:
    lat_ms = [1000.0 * s for s in m.latencies_s]
    values = {
        "setup_s": _median(setup_times),
        "train_items_per_s": _median(setup_rates) if setup_rates else _rate(m.train),
        "decode_words_per_s": _rate(m.decode),
        "decode_ms_per_paragraph.p50": _percentile(lat_ms, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": _finite(v), "unit": E2E_UNITS[k]} for k, v in values.items()}


def _quality(outputs: dict):
    """Last held-out CE and CIDEr-D (0 where the workload runs no eval)."""
    val_ce = cider = 0.0
    for out in outputs.values():
        if "val_ce" in out:
            val_ce = out["val_ce"][-1]
        if "scores" in out:
            cider = out["scores"]["CIDEr"]
    return val_ce, cider


def run_one(args) -> int:
    preset = "smoke" if args.smoke else "full"
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[preset])
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    probe = workloads.Probe().install()
    try:
        return _run_one(args, wl, preset, work, probe)
    finally:
        probe.restore()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)


def _run_one(args, wl, preset, work, probe) -> int:
    untraced = tracer_mod.Tracer()  # never installed: its spans are no-ops
    SAMPLER.start()
    try:
        state, setup_times, setup_rates = _setup(wl, args.seed, work, probe, wl.setup_repeats)
        m = wl.measure(state, args.seconds, probe, untraced)
    finally:
        machine_speed = SAMPLER.stop()
    e2e = end_to_end(m, setup_times, setup_rates)
    failures = dict(m.failures)
    attempted = m.attempted
    checks = []

    if wl.repeats_one_op and len(m.outputs) > 1:
        first = next(iter(m.outputs))
        for key, out in m.outputs.items():
            bad = differences(digest(out), digest(m.outputs[first]), key)
            if bad:
                failures[f"repeat:{key}"] = "; ".join(bad[:3])
        checks.append(f"repeat: {len(m.outputs)} operations compared with {first}")

    refs = load_references()
    seeded = refs["seeded"].setdefault(wl.name, {}) if preset == "full" else None
    if args.record_references and seeded is not None:
        seeded[str(args.seed)] = {k: digest(v) for k, v in m.outputs.items()}
        checks.append(f"seeded reference: recorded for seed {args.seed}")
    elif seeded is not None and str(args.seed) in seeded:
        check_against(m.outputs, seeded[str(args.seed)], failures, "seeded")
        checks.append(f"seeded reference: compared for seed {args.seed}")
    else:
        checks.append(f"seeded reference: none stored for seed {args.seed}")

    layer = None
    if args.trace:
        state = None
        layer, traced_e2e, traced_attempted = _traced_pass(args, wl, work, probe, m, failures)
        attempted += traced_attempted
    state = None
    gc.collect()

    # the fixed-input reference case: smoke sizes at a fixed seed
    canary_wl = workloads.WORKLOADS[wl.name](workloads.SIZES["smoke"])
    canary_work = work + "-canary"
    cstate, _, _ = _setup(canary_wl, CANARY_SEED, canary_work, probe, 1)
    cm = canary_wl.measure(cstate, 0.0, probe, untraced)
    shutil.rmtree(canary_work, ignore_errors=True)
    attempted += cm.attempted
    failures.update({f"canary:{k}": v for k, v in cm.failures.items()})
    if args.record_references:
        refs["canary"][wl.name] = {k: digest(v) for k, v in cm.outputs.items()}
        save_references(refs)
        checks.append("canary reference: recorded")
    elif wl.name in refs["canary"]:
        check_against(cm.outputs, refs["canary"][wl.name], failures, "canary")
        checks.append(f"canary reference: compared {len(cm.outputs)} operations")
    else:
        failures["canary"] = "no stored canary reference"

    failed = min(len(failures), attempted)
    val_ce, cider = _quality(m.outputs)
    env = environment(args.seed)
    record = {
        "workload": wl.name, "preset": preset, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "samples": {"decode_ms_per_paragraph": len(m.latencies_s),
                    "setup_s": len(setup_times), "operations": m.attempted},
        # the tail, reported but not bounded: see WORKLOADS.md
        "decode_ms_per_paragraph_p90": _percentile([1000.0 * s for s in m.latencies_s], 90),
        "end_to_end": e2e, "op_cpu_s": m.op_s, "op_walls_s": m.op_walls,
        # below 1 by the sampling time and where the process waited for a core
        "cpu_over_wall": sum(m.op_s.values()) / sum(m.op_walls.values()) if m.op_walls else 0.0,
        "machine_speed": machine_speed,
        "setup_times_s": setup_times,
        "quality": {"val_ce": val_ce, "cider_d": cider},
        "checks": checks, "failures": failures,
        "ops_failed_frac": failed / attempted,
    }
    if layer is not None:
        record["per_layer"] = layer
        record["traced_end_to_end"] = traced_e2e

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    _print_report(record)
    metrics = layer if args.trace else e2e
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def _traced_pass(args, wl, work, probe, m, failures):
    """Set up once more and replay one operation per phase under the tracer."""
    gc.collect()
    tr = tracer_mod.Tracer().install()
    try:
        tr.enabled = True
        with tr.span("bench.setup"):
            state, _, rates = _setup(wl, args.seed, work, probe, 1)
        tm = wl.measure(state, 0.0, probe, tr, max_ops=1)
        tr.enabled = False
    finally:
        tr.restore()
    state = None
    failures.update({f"traced:{k}": v for k, v in tm.failures.items()})
    # against the same operation untraced; where every operation repeats the
    # same work, against their median (the first one also pays warm-up)
    common = [k for k in tm.op_s if k in m.op_s]
    traced_s = sum(tm.op_s[k] for k in common)
    untraced_s = sum(_median(list(m.op_s.values())) if wl.repeats_one_op
                     else m.op_s[k] for k in common)
    layer = {k: {"value": _finite(v), "unit": u} for k, (v, u) in tr.layer_metrics().items()}
    val_ce, cider = _quality(tm.outputs)
    layer.update({
        "training.val_ce": {"value": _finite(val_ce), "unit": "nats"},
        "metrics.cider_d": {"value": _finite(cider), "unit": "score"},
        "trace.untraced_op_s": {"value": untraced_s, "unit": "s"},
        "trace.traced_op_s": {"value": traced_s, "unit": "s"},
        "trace.overhead_frac": {"value": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
                                "unit": "frac"},
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.dump(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-spans.jsonl"))
    return layer, end_to_end(tm, [], rates), tm.attempted


def _print_report(record):
    env = record["environment"]
    print(f"# {record['workload']} ({record['preset']}), seed {record['seed']}, "
          f"{record['seconds']} s, trace {record['trace']}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("# samples: " + ", ".join(f"{k}={v}" for k, v in record["samples"].items()))
    print(f"# CPU time over wall time of the operations: {record['cpu_over_wall']:.4f}")
    print("# machine speed against the reference: "
          + ", ".join(f"{k}={v:.4g}" for k, v in record["machine_speed"].items()))
    for name, m in record["end_to_end"].items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"{'decode_ms_per_paragraph.p90 (unbounded)':<40} "
          f"{record['decode_ms_per_paragraph_p90']:>16.6f} ms")
    print(f"{'ops_failed_frac':<40} {record['ops_failed_frac']:>16.6f} frac")
    for name, value in record["quality"].items():
        print(f"{'quality.' + name:<40} {value:>16.6f}")
    if "per_layer" in record:
        for name, m in record["traced_end_to_end"].items():
            if name != "setup_s":
                print(f"{'traced.' + name:<40} {m['value']:>16.6f} {m['unit']}")
        for name, m in sorted(record["per_layer"].items()):
            print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    for line in record["checks"]:
        print(f"# check {line}")
    for key, why in record["failures"].items():
        print(f"# FAILED {key}: {why}")


# -- every workload ------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows, results = [], {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.record_references:
            cmd.append("--record-references")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "ops_failed_frac",
                     results[name]["failed"] / results[name]["attempted"], "frac"))
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<40} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }, sort_keys=True))
    return 0
