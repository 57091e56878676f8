#!/usr/bin/env python3
"""Run the benchmark several times and summarise each metric.

Runs the seeds once per set (``--sets``, default 2), the sets one after
the other.  For every metric and set: the median, and the distance
between the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) as a share of the median.  Then,
for an end-to-end metric, how much worse the last set's median is than
the first's, as a share of the first.  A metric fails when a spread
other than that of ``setup_s`` exceeds its bound in BENCHMARK.json, or
when the median got worse by more than the bound; the failed-operation
share must also be the same in every run.  The script exits 1 on any
failure.  The ``margin`` column is the larger of the two figures as a
share of the bound; a benchmark is steady enough when every margin is
well below 1 (about a third).

This is how the bounds in BENCHMARK.json were set, and how they are
re-checked::

    python3 ssebench/repeat.py --workload clinic-day --seeds 1-10
    python3 ssebench/repeat.py --workload ingest-burst --seeds 3,3 \
        --sets 1 --trace 1

With ``--trace 1`` the summary says instead whether each metric came out
identical on every run (run the same seed several times to check that
the crypto op counts repeat exactly).  Runs go one after another, never
in parallel, so they do not disturb each other's timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    *notes, last = proc.stdout.strip().splitlines()
    for note in notes:  # the traced run's overhead line
        print(f"seed {seed}: {note}", file=sys.stderr)
    return json.loads(last)


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def summarise(sets: list[list[dict]], spec: dict, trace: bool) -> int:
    """Print the table; return the number of failed checks."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    failed = 0
    runs = [r for results in sets for r in results]
    header = "".join(f" {'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}"
                     for i in range(len(sets)))
    if not trace:
        header += f" {'worse':>7} {'bound':>6} {'margin':>6}"
    print(f"{'metric':34}{header}")
    for name in runs[0]["metrics"]:
        cells, medians, spreads = "", [], []
        for results in sets:
            median, spread = _spread([r["metrics"][name]["value"]
                                      for r in results])
            medians.append(median)
            spreads.append(spread)
            cells += f" {median:12.5g} {spread:8.3f}"
        if trace:
            same = len({r["metrics"][name]["value"] for r in runs}) == 1
            print(f"{name:34}{cells}"
                  f"{'  (identical on every run)' if same else ''}")
            continue
        bound, better = bounds[name]
        change = (medians[-1] - medians[0]) / medians[0] if medians[0] \
            else 0.0
        worse = max(0.0, change if better == "lower" else -change)
        checked = [worse] + ([] if name == "setup_s" else spreads)
        margin = max(checked) / bound
        note = ""
        if margin > 1:
            note = "  <-- outside the bound"
            failed += 1
        print(f"{name:34}{cells} {worse:7.3f} {bound:6} {margin:6.2f}{note}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}; attempted "
          f"{[r['attempted'] for r in runs]}")
    if len(shares) > 1:
        print("the failed share differs between runs")
        failed += 1
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    sets = []
    for index in range(args.sets):
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(args.workload, seed, seconds, args.trace)
            results.append(result)
            print(f"set {index + 1} seed {seed}: attempted "
                  f"{result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        sets.append(results)
    print(f"{args.workload}: {args.sets} set(s) of "
          f"{len(sets[0])} runs of {seconds:g} s")
    return 1 if summarise(sets, spec, bool(args.trace)) else 0


if __name__ == "__main__":
    sys.exit(main())
