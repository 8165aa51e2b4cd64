#!/usr/bin/env python3
"""Median and quartiles of benchmark records, per workload and metric.

    python3 perfbench/summarize.py DIR > summary.json

DIR holds the records that ``run.py`` writes to ``perfbench/_out`` (one JSON
file per run). Untraced records give the end-to-end rows, traced records the
per-layer rows (median over the traced runs of a workload). ``spread`` is the
distance between the first and third quartile as a share of the median, the
statistic BENCHMARK.json's bounds are set against.
"""

import glob
import json
import os
import statistics
import sys


def stats(values):
    med = statistics.median(values)
    q1, q3 = med, med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "runs": len(values)}


def summarize(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    out = {"environment": records[0]["environment"] if records else None, "workloads": {}}
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        row = {"seeds": sorted(r["seed"] for r in runs),
               "ops_failed": sum(len(r["failures"]) for r in runs + traced),
               "end_to_end": {}, "per_layer": {}}
        for metric in runs[0]["end_to_end"] if runs else []:
            row["end_to_end"][metric] = stats([r["end_to_end"][metric]["value"] for r in runs])
            row["end_to_end"][metric]["unit"] = runs[0]["end_to_end"][metric]["unit"]
        for metric in traced[0]["per_layer"] if traced else []:
            row["per_layer"][metric] = {
                "median": statistics.median(r["per_layer"][metric]["value"] for r in traced),
                "unit": traced[0]["per_layer"][metric]["unit"]}
        out["workloads"][name] = row
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
