#!/usr/bin/env python3
"""paracnn benchmark: one workload per process, measured as a closed loop.

    python3 perfbench/run.py --workload toy_twin_train --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12   # every workload, one table
    python3 perfbench/run.py --smoke --workload all --seconds 1     # tiny sizes, seconds

Run from the root of a paracnn checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it print every metric with its unit, the output checks, and
the environment; the same record, with per-operation timings, goes to
``perfbench/_out/``. WORKLOADS.md says what each workload covers.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("toy_twin_train", "toy_generate", "full_width")
BLAS_THREADS = 1  # within nproc on any machine


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    p.add_argument("--record-references", action="store_true",
                   help="store this run's outputs in references.json instead of checking them")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "paracnn")):
        print(f"error: no paracnn sources under {SRC}; run from a paracnn checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, which importing bench does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("PARACNN_SEED", None)  # the benchmark's --seed decides every seed
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import bench  # noqa: E402  (needs the paths and environment above)

    if args.workload == "all":
        return bench.run_all(args)
    return bench.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
