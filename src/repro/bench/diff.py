"""``repro-bench-diff``: compare bench runs and gate on regressions.

The ROADMAP's crypto-vectorization item calls the per-op tallies in
``BENCH_<name>.json`` "the regression gate" — this module makes that gate
executable.  It loads one or more bench documents, compares them against
committed baselines (``benchmarks/baselines/``), prints a per-metric
delta table, and exits nonzero when a gated metric regressed beyond its
threshold.

What is gated vs. informational:

* **crypto-op tallies** (``crypto_ops``) are near-deterministic — every
  benchmark drives seeded RNGs — so they gate by default.  A regression
  is an op whose count grew by more than the relative threshold AND by
  more than an absolute floor (tiny counts flap on cache warmth, e.g. a
  scheme-2 chain checkpoint landing differently under thread
  scheduling).  A *new* op appearing above the floor also gates: a hot
  path silently picking up, say, ``modexp`` calls is exactly what the
  gate exists to catch.  Missing tests or missing bench files gate too —
  coverage disappearing is a regression of the gate itself.  A tally
  that *drops* by as much (the same relative threshold and absolute
  floor) is flagged ``IMPROVED``: the exit status stays 0, but the
  committed baseline is now loose and should be re-recorded downward.
* **timing percentiles** (``timing``) are machine- and load-dependent,
  so they print in the delta table but only gate under ``--gate-timing``
  (meant for a quiet dedicated box, not shared CI runners).

Per-bench tolerance: benches that exercise thread scheduling
(``concurrent_clients``, ``shard_scaling``) get a wider default op
tolerance because client-side cache warmth varies with interleaving; the
single-threaded protocol benches stay tight.

Usage::

    repro-bench-diff --smoke                 # CI gate after make bench-smoke
    repro-bench-diff --baseline-dir benchmarks/baselines/smoke \
        --current-dir benchmarks --ops-threshold 0.10
    repro-bench-diff --smoke --json deltas.json --output deltas.txt

Exit status: 0 = no gated regression, 1 = regressions found, 2 = cannot
compare (missing directories, unreadable documents).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.reporting import format_table

__all__ = ["Delta", "load_bench", "diff_benches", "format_deltas", "main",
           "DEFAULT_OPS_THRESHOLD", "DEFAULT_OPS_MIN_COUNT",
           "BENCH_OPS_TOLERANCE"]

#: Relative growth in an op tally that counts as a regression (10%).
DEFAULT_OPS_THRESHOLD = 0.10

#: Absolute growth floor: tallies must also grow by at least this many
#: calls, so a 3-call op jumping to 4 never trips a 10% gate.
DEFAULT_OPS_MIN_COUNT = 32

#: Timing regression threshold used by ``--gate-timing`` (25%).
DEFAULT_TIMING_THRESHOLD = 0.25

#: Per-bench op-tolerance overrides (bench name -> relative threshold).
#: Scheduling-sensitive benches interleave client threads, so per-thread
#: LRU warmth — and with it the PRF/chain tallies — varies run to run.
BENCH_OPS_TOLERANCE = {
    "concurrent_clients": 0.50,
    "shard_scaling": 0.50,
}

#: Timing sub-metrics where *larger* is worse; ops_per_s is the inverse.
_TIME_UP_IS_BAD = ("mean_s", "p50_s", "p95_s")


def load_bench(path: str) -> dict:
    """One BENCH_<name>.json document as a dict (raises on bad JSON)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: bench document must be a JSON object")
    return doc


def _bench_name(filename: str) -> str:
    return filename.removeprefix("BENCH_").removesuffix(".json")


def _discover(directory: str) -> dict[str, str]:
    """Map bench name -> path for every BENCH_*.json in *directory*."""
    out = {}
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            out[_bench_name(entry)] = os.path.join(directory, entry)
    return out


class Delta:
    """One compared metric: where it came from and whether it gates."""

    __slots__ = ("bench", "test", "metric", "baseline", "current",
                 "change", "gated", "regressed", "improved", "note")

    def __init__(self, bench: str, test: str, metric: str,
                 baseline: float | None, current: float | None,
                 *, gated: bool, regressed: bool, improved: bool = False,
                 note: str = "") -> None:
        self.bench = bench
        self.test = test
        self.metric = metric
        self.baseline = baseline
        self.current = current
        if baseline and current is not None:
            self.change = (current - baseline) / baseline
        else:
            self.change = None
        self.gated = gated
        self.regressed = regressed
        self.improved = improved
        self.note = note

    def to_dict(self) -> dict:
        return {"bench": self.bench, "test": self.test,
                "metric": self.metric, "baseline": self.baseline,
                "current": self.current, "change": self.change,
                "gated": self.gated, "regressed": self.regressed,
                "improved": self.improved, "note": self.note}


def _ops_moved(base: int, cur: int, threshold: float,
               min_count: int) -> bool:
    """Whether a tally moved from *base* to *cur* past both gate limits."""
    growth = cur - base
    return growth > min_count and growth > base * threshold


def _diff_ops(bench: str, test: str, base_ops: dict, cur_ops: dict,
              threshold: float, min_count: int) -> list[Delta]:
    deltas = []
    for op in sorted(set(base_ops) | set(cur_ops)):
        base = int(base_ops.get(op, 0))
        cur = int(cur_ops.get(op, 0))
        if base == cur:
            continue
        regressed = _ops_moved(base, cur, threshold, min_count)
        improved = _ops_moved(cur, base, threshold, min_count)
        note = ""
        if op not in base_ops:
            note = "new op"
        elif op not in cur_ops:
            note = "op gone"
        deltas.append(Delta(bench, test, f"ops.{op}", base, cur,
                            gated=True, regressed=regressed,
                            improved=improved, note=note))
    return deltas


def _diff_timing(bench: str, test: str, base_t: dict, cur_t: dict,
                 gate: bool, threshold: float) -> list[Delta]:
    deltas = []
    for metric in (*_TIME_UP_IS_BAD, "ops_per_s"):
        base = base_t.get(metric)
        cur = cur_t.get(metric)
        if base is None or cur is None or base == 0:
            continue
        change = (cur - base) / base
        if metric in _TIME_UP_IS_BAD:
            regressed = gate and change > threshold
        else:
            regressed = gate and change < -threshold
        # Unchanged timing to the sixth decimal is noise, not signal —
        # keep the table readable.
        if abs(change) < 0.005:
            continue
        deltas.append(Delta(bench, test, f"timing.{metric}", base, cur,
                            gated=gate, regressed=regressed))
    return deltas


def diff_benches(baseline: dict[str, str], current: dict[str, str],
                 *, ops_threshold: float = DEFAULT_OPS_THRESHOLD,
                 ops_min_count: int = DEFAULT_OPS_MIN_COUNT,
                 gate_timing: bool = False,
                 timing_threshold: float = DEFAULT_TIMING_THRESHOLD,
                 ) -> list[Delta]:
    """Compare every baseline bench against its current counterpart.

    *baseline* and *current* map bench name -> JSON path (see
    :func:`_discover`).  The baseline set defines coverage: a bench or
    test present in the baseline but absent from the current run is a
    gated regression.  Benches only present in the current run are
    reported informationally (they have no baseline to regress against).
    """
    deltas: list[Delta] = []
    for bench in sorted(set(baseline) | set(current)):
        if bench not in current:
            deltas.append(Delta(bench, "-", "bench", None, None,
                                gated=True, regressed=True,
                                note="bench missing from current run"))
            continue
        if bench not in baseline:
            deltas.append(Delta(bench, "-", "bench", None, None,
                                gated=False, regressed=False,
                                note="no baseline yet"))
            continue
        base_doc = load_bench(baseline[bench])
        cur_doc = load_bench(current[bench])
        threshold = max(ops_threshold,
                        BENCH_OPS_TOLERANCE.get(bench, 0.0))
        for test in sorted(k for k in base_doc if not k.startswith("_")):
            if test not in cur_doc:
                deltas.append(Delta(bench, test, "test", None, None,
                                    gated=True, regressed=True,
                                    note="test missing from current run"))
                continue
            base_entry, cur_entry = base_doc[test], cur_doc[test]
            deltas.extend(_diff_ops(
                bench, test,
                base_entry.get("crypto_ops", {}),
                cur_entry.get("crypto_ops", {}),
                threshold, ops_min_count))
            deltas.extend(_diff_timing(
                bench, test,
                base_entry.get("timing", {}),
                cur_entry.get("timing", {}),
                gate_timing, timing_threshold))
        for test in sorted(k for k in cur_doc
                           if not k.startswith("_") and k not in base_doc):
            deltas.append(Delta(bench, test, "test", None, None,
                                gated=False, regressed=False,
                                note="new test (no baseline)"))
    return deltas


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def format_deltas(deltas: list[Delta]) -> str:
    """The per-metric delta table; the last column flags each gated
    tally that regressed or improved past the gate."""
    if not deltas:
        return "bench-diff: no differences against the baselines"
    rows = []
    for d in deltas:
        change = "-" if d.change is None else f"{d.change:+.1%}"
        if d.regressed:
            flag = "REGRESSED"
        elif d.improved:
            flag = "IMPROVED"
        else:
            flag = "" if d.gated else "info"
        rows.append((d.bench, d.test, d.metric, _fmt(d.baseline),
                     _fmt(d.current), change, d.note or "", flag))
    return format_table(
        ("bench", "test", "metric", "baseline", "current", "change",
         "note", ""),
        rows)


def _describe_meta(paths: dict[str, str]) -> str:
    """One line naming the commit/timestamp a set of documents came from."""
    for path in paths.values():
        try:
            meta = load_bench(path).get("_meta")
        except (OSError, ValueError):
            continue
        if isinstance(meta, dict):
            return (f"commit {meta.get('git_commit', 'unknown')[:12]} "
                    f"at {meta.get('timestamp_utc', 'unknown')}")
    return "no run metadata"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (console script ``repro-bench-diff``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench-diff",
        description="Diff BENCH_<name>.json runs against committed "
                    "baselines and exit nonzero on regressions.")
    parser.add_argument("benches", nargs="*",
                        help="bench names to compare (default: every "
                             "bench present in the baseline dir)")
    parser.add_argument("--baseline-dir", default=None,
                        help="directory of baseline BENCH_*.json files")
    parser.add_argument("--current-dir", default="benchmarks",
                        help="directory of freshly produced BENCH_*.json "
                             "files (default: benchmarks/)")
    parser.add_argument("--smoke", action="store_true",
                        help="compare against the committed smoke "
                             "baselines (benchmarks/baselines/smoke)")
    parser.add_argument("--ops-threshold", type=float,
                        default=DEFAULT_OPS_THRESHOLD,
                        help="relative crypto-op growth that fails the "
                             "gate (default %(default)s)")
    parser.add_argument("--ops-min-count", type=int,
                        default=DEFAULT_OPS_MIN_COUNT,
                        help="absolute op-growth floor below which the "
                             "relative gate is ignored "
                             "(default %(default)s)")
    parser.add_argument("--gate-timing", action="store_true",
                        help="also gate on timing percentiles (meant for "
                             "a quiet dedicated machine)")
    parser.add_argument("--timing-threshold", type=float,
                        default=DEFAULT_TIMING_THRESHOLD,
                        help="relative timing regression for "
                             "--gate-timing (default %(default)s)")
    parser.add_argument("--json", metavar="PATH",
                        help="additionally write the deltas as JSON")
    parser.add_argument("--output", metavar="PATH",
                        help="additionally write the delta table to a "
                             "file (CI artifact)")
    args = parser.parse_args(argv)

    baseline_dir = args.baseline_dir
    if baseline_dir is None:
        baseline_dir = (os.path.join("benchmarks", "baselines", "smoke")
                        if args.smoke
                        else os.path.join("benchmarks", "baselines"))
    if not os.path.isdir(baseline_dir):
        print(f"bench-diff: baseline directory {baseline_dir!r} does not "
              f"exist", file=sys.stderr)
        return 2
    if not os.path.isdir(args.current_dir):
        print(f"bench-diff: current directory {args.current_dir!r} does "
              f"not exist", file=sys.stderr)
        return 2
    baseline = _discover(baseline_dir)
    current = _discover(args.current_dir)
    if args.benches:
        unknown = [b for b in args.benches if b not in baseline]
        if unknown:
            print(f"bench-diff: no baseline for {', '.join(unknown)} "
                  f"(have: {', '.join(sorted(baseline)) or 'none'})",
                  file=sys.stderr)
            return 2
        baseline = {b: baseline[b] for b in args.benches}
        current = {b: current[b] for b in args.benches if b in current}
    else:
        # The baseline set defines the gate; newer benches without
        # baselines are reported but never compared.
        current = {b: p for b, p in current.items() if b in baseline}
    if not baseline:
        print(f"bench-diff: no BENCH_*.json baselines under "
              f"{baseline_dir!r}", file=sys.stderr)
        return 2

    try:
        deltas = diff_benches(
            baseline, current,
            ops_threshold=args.ops_threshold,
            ops_min_count=args.ops_min_count,
            gate_timing=args.gate_timing,
            timing_threshold=args.timing_threshold)
    except (OSError, ValueError) as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2

    header = (f"bench-diff: baseline [{_describe_meta(baseline)}] "
              f"vs current [{_describe_meta(current)}]")
    table = format_deltas(deltas)
    regressions = [d for d in deltas if d.regressed]
    improvements = sum(d.improved for d in deltas)
    verdict = (f"{len(regressions)} gated regression(s)" if regressions
               else "no gated regressions")
    if improvements:
        verdict += (f"; {improvements} gated improvement(s), re-record "
                    f"the baselines to lock them in")
    report = f"{header}\n{table}\n{verdict}"
    print(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"deltas": [d.to_dict() for d in deltas],
                       "regressions": len(regressions),
                       "improvements": improvements},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
