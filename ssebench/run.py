#!/usr/bin/env python3
"""The SSE benchmark: one seeded workload, end to end or traced.

Run from the root of a checkout::

    python3 ssebench/run.py --workload clinic-day --seed 1 --seconds 15 \\
        --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``ssebench/README.md`` for the workloads, metrics and reference figures.

The program is imported from ``src/`` of the checkout; data directories
and traces go under ``.ssebench/`` there and the data is removed when the
run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("clinic-day", "ingest-burst",
                                 "tenant-shards"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from harness import run_workload
    from workloads import WORKLOADS

    out_dir = os.path.join(ROOT, ".ssebench")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(
            out_dir, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(workdir, exist_ok=True)
    try:
        # The program's DRBG takes non-negative integer seeds; every
        # integer seed maps to one (itself, when non-negative).
        result = run_workload(WORKLOADS[args.workload], args.seed % 2 ** 63,
                              args.seconds, bool(args.trace), workdir,
                              trace_path=trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
