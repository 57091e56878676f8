"""Run one workload: set up, drive timed rounds, check, and report.

End-to-end metrics come from an untraced run.  Their timings are scaled
to a nominal host speed by the reference loop of ``speed.py``, timed
before every operation and around every set-up: each operation by the
median pass time of its round, each set-up by the median of the passes
just before and after it.  A traced run (``--trace
1``) alternates untraced and traced rounds: the traced rounds give the
per-layer metrics, and the difference in mean operation latency between
the two kinds of round is the tracing overhead it reports.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time

from repro.obs.opcount import OpCounter, install_recorder

import speed
from tracing import Tracer

#: Set-ups per run; setup_s is their median, the last one is measured.
SETUPS = 3
#: Reference passes timed just before and just after each set-up.
SETUP_PASSES = 5
#: Crypto op counts reported per operation (from count_ops).
CRYPTO_OPS = ("sha256_compress", "chain_step", "hmac", "prf_eval",
              "aes_block", "feistel_round")
#: Failure reasons echoed to stderr before the rest are only counted.
SHOWN_FAILURES = 5


def mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 when every operation of the kind failed."""
    return statistics.fmean(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    """Bookkeeping of one run: samples, failures and traced windows."""

    def __init__(self, trace: bool, corrupt=None) -> None:
        self.tracer = Tracer() if trace else None
        self.op_counter: OpCounter | None = None
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.wire = {"search": [], "update": []}
        #: (round, kind, seconds, documents ingested) of timed operations
        #: that passed their checks.
        self.timed: list[tuple[int, str, float, int]] = []
        #: Reference pass times of each round (speed.sample()).
        self.passes: dict[int, list[float]] = {}
        self.round = 0
        self.failures: list[str] = []
        # traced-mode tallies
        self.round_latency = {False: [], True: []}
        self.traced_ops: set = set()
        self.traced = {"ops": 0, "searches": 0, "rounds": 0,
                       "chain_steps": 0}
        self.first_traced_ops: dict[str, int] = {}
        self.first_traced_count = 0

    def execute(self, op, op_id, timed: bool, traced: bool) -> float:
        channel = op.channel
        rounds_before = channel.stats.rounds
        bytes_before = channel.stats.total_bytes
        if traced:
            steps_before = self.op_counter.snapshot().get("chain_step", 0)
            self.tracer.op_id = op_id
            token = self.tracer.open_span("op")
        started = time.perf_counter()
        try:
            result, problem = op.fn(), None
        # The benchmark must keep running through any failure of the
        # program: record the exception as a failed operation.
        except Exception as exc:  # noqa: BLE001
            result, problem = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if traced:
            self.tracer.close_span(token)
            self.tracer.op_id = None
        rounds = channel.stats.rounds - rounds_before
        if problem is None:
            if self.corrupt is not None:
                result, rounds = self.corrupt(op, result, rounds)
            try:
                problem = op.check(result, rounds)
            # An output so malformed that checking it raises is wrong too.
            except Exception as exc:  # noqa: BLE001
                problem = (f"{op.kind}: check raised "
                           f"{type(exc).__name__}: {exc}")
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < SHOWN_FAILURES:
                self.failures.append(problem)
            return elapsed
        if timed:
            self.timed.append((self.round, op.kind, elapsed, op.docs))
            if op.kind in self.wire:
                self.wire[op.kind].append(channel.stats.total_bytes
                                          - bytes_before)
        if traced:
            self.traced_ops.add(op_id)
            self.traced["ops"] += 1
            self.traced["rounds"] += rounds
            if op.kind == "search":
                self.traced["searches"] += 1
                steps = self.op_counter.snapshot().get("chain_step", 0)
                self.traced["chain_steps"] += steps - steps_before
        return elapsed


def run_workload(workload_cls, seed: int, seconds: float, trace: bool,
                 workdir: str, corrupt=None, trace_path: str | None = None
                 ) -> dict:
    """Set up, run timed rounds, check; return the result document."""
    setup_times: list[float] = []
    workload = None
    run = Run(trace, corrupt)
    try:
        for index in range(SETUPS):
            if workload is not None:
                workload.close()
                shutil.rmtree(workload.workdir, ignore_errors=True)
            workload = workload_cls(seed, os.path.join(workdir,
                                                       f"setup-{index}"))
            # The last set-up (the one measured afterwards) is traced, so
            # session opens and preload spans land in the trace.
            traced_setup = trace and index == SETUPS - 1
            if traced_setup:
                run.tracer.op_id = "setup"
                run.tracer.install()
            passes = [speed.sample() for _ in range(SETUP_PASSES)]
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            passes += [speed.sample() for _ in range(SETUP_PASSES)]
            setup_times.append(elapsed * speed.scale(passes))
            if traced_setup:
                run.tracer.uninstall()
                run.tracer.op_id = None
        disk, layers = _timed_phase(run, workload, seconds, trace)
        if trace:
            metrics = _layer_metrics(run, layers, trace_path)
        else:
            metrics = _end_to_end(run, disk, setup_times)
        return {"correct": run.failed == 0, "attempted": run.attempted,
                "failed": run.failed, "metrics": metrics}
    finally:
        if workload is not None:
            workload.close()


def _timed_phase(run: Run, workload, seconds, trace):
    min_rounds = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    layers = {"queue_wait_s": 0.0, "lock_wait_s": 0.0, "cache_hits": 0,
              "cache_misses": 0, "timers": {}}
    r = 0
    op_id = 0
    while r < workload.max_rounds and (
            r < min_rounds or time.perf_counter() < deadline):
        traced = trace and r % 2 == 1
        ops = workload.round_ops(r)
        if traced:
            counters_before = workload.layer_counters()
            timers_before = run.tracer.totals()
            run.op_counter = OpCounter()
            previous = install_recorder(run.op_counter)
            run.tracer.install()
        round_time = 0.0
        run.round = r
        run.passes[r] = []
        for op in ops:
            op_id += 1
            run.passes[r].append(speed.sample())
            round_time += run.execute(op, op_id, timed=True, traced=traced)
        if traced:
            run.tracer.uninstall()
            install_recorder(previous)
            if not run.first_traced_ops:
                run.first_traced_ops = run.op_counter.snapshot()
                run.first_traced_count = len(ops)
            after = workload.layer_counters()
            for key in ("queue_wait_s", "lock_wait_s", "cache_hits",
                        "cache_misses"):
                layers[key] += after[key] - counters_before[key]
            for key, value in run.tracer.totals().items():
                layers["timers"][key] = (layers["timers"].get(key, 0.0)
                                         + value - timers_before.get(key, 0))
        if trace:
            run.round_latency[traced].append(round_time / len(ops))
        r += 1
    print(f"{workload.name}: {r} rounds, {run.attempted} operations",
          file=sys.stderr)
    disk = workload.disk_bytes(), workload.doc_bytes()
    if trace:
        # Compactions happen on reopen and close: count them too.
        compactions = run.tracer.totals().get("storage.compactions", 0)
        run.tracer.install()
    try:
        for op in workload.finish_ops():
            op_id += 1
            run.execute(op, op_id, timed=False, traced=False)
        layers["quota_rejections"] = workload.layer_counters()[
            "quota_rejections"]
        if trace:
            workload.close()
            layers["compactions_close"] = run.tracer.totals().get(
                "storage.compactions", 0) - compactions
    finally:
        if trace:
            run.tracer.uninstall()
    for reason in run.failures:
        print(f"FAILED: {reason}", file=sys.stderr)
    return disk, layers


def _timings(run: Run, scaled: bool) -> dict:
    """Latencies, busy and ingest time of the timed operations, each
    scaled by its round's reference passes when *scaled*."""
    scales = {r: speed.scale(passes) if scaled else 1.0
              for r, passes in run.passes.items() if passes}
    out = {"search": [], "update": [], "busy_s": 0.0, "docs": 0,
           "ingest_s": 0.0}
    for r, kind, elapsed, docs in run.timed:
        seconds = elapsed * scales[r]
        out["busy_s"] += seconds
        if docs:
            out["docs"] += docs
            out["ingest_s"] += seconds
        if kind in ("search", "update"):
            out[kind].append(seconds)
    return out


def _end_to_end(run: Run, disk, setup_times) -> dict:
    disk_bytes, doc_bytes = disk
    t = _timings(run, scaled=True)
    searches, updates = t["search"], t["update"]
    raw = _timings(run, scaled=False)
    passes = [p for round_passes in run.passes.values()
              for p in round_passes]
    print(f"measured, unscaled: search p50 "
          f"{percentile(raw['search'], 0.5) * 1e3:.2f} ms, update p50 "
          f"{percentile(raw['update'], 0.5) * 1e3:.2f} ms; reference pass "
          f"median {statistics.median(passes) * 1e3:.3f} ms "
          f"(nominal {speed.NOMINAL_S * 1e3:g} ms)", file=sys.stderr)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "search_p50_ms": (percentile(searches, 0.50) * 1e3, "ms"),
        "search_p90_ms": (percentile(searches, 0.90) * 1e3, "ms"),
        "update_p50_ms": (percentile(updates, 0.50) * 1e3, "ms"),
        "update_p90_ms": (percentile(updates, 0.90) * 1e3, "ms"),
        "ops_per_s": (len(run.timed) / t["busy_s"] if t["busy_s"] else 0.0,
                      "ops/s"),
        "ingest_docs_per_s": (t["docs"] / t["ingest_s"]
                              if t["ingest_s"] else 0.0, "docs/s"),
        "wire_bytes_per_search": (mean(run.wire["search"]),
                                  "bytes"),
        "wire_bytes_per_update": (mean(run.wire["update"]),
                                  "bytes"),
        "journal_bytes_per_doc_byte": (disk_bytes / doc_bytes if doc_bytes
                                       else 0.0, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def _layer_metrics(run: Run, layers: dict, trace_path: str | None) -> dict:
    tracer = run.tracer
    n_ops = max(1, run.traced["ops"])
    spans = tracer.span_times(run.traced_ops)
    setup_spans = tracer.span_times({"setup"})
    timers = layers["timers"]
    first = run.first_traced_ops
    first_count = max(1, run.first_traced_count)
    hits, misses = layers["cache_hits"], layers["cache_misses"]
    opens = setup_spans.get("tenancy.session_open", {})

    def per_op(value):
        return value / n_ops

    values = {}
    for op in CRYPTO_OPS:
        values[f"crypto.{op}"] = (first.get(op, 0) / first_count, "count/op")
    values.update({
        "crypto.busy_s": (per_op(timers.get("crypto", 0.0)), "s/op"),
        "core.client_self_s": (per_op(spans.get("core.client", {}).get(
            "self", 0.0)), "s/op"),
        "core.server_self_s": (per_op(spans.get("core.server", {}).get(
            "self", 0.0)), "s/op"),
        "core.cache_hit_ratio": (hits / (hits + misses)
                                 if hits + misses else 0.0, "ratio"),
        "core.chain_steps_per_search": (
            run.traced["chain_steps"] / max(1, run.traced["searches"]),
            "count/search"),
        "core.segments_opened_per_search": (
            timers.get("core.segments", 0) / max(1, run.traced["searches"]),
            "count/search"),
        "ds.index_lookup_s": (per_op(timers.get("ds", 0.0)), "s/op"),
        "net.rounds": (per_op(run.traced["rounds"]), "count/op"),
        "net.codec_s": (per_op(timers.get("codec", 0.0)), "s/op"),
        "net.queue_wait_s": (per_op(layers["queue_wait_s"]), "s/op"),
        "net.lock_wait_s": (per_op(layers["lock_wait_s"]), "s/op"),
        "net.router_scatter_s": (per_op(spans.get("net.router", {}).get(
            "self", 0.0)), "s/op"),
        "net.shard_handle_s": (per_op(spans.get("net.shard", {}).get(
            "total", 0.0)), "s/op"),
        "storage.flushes": (per_op(timers.get("storage.flushes", 0)),
                            "count/op"),
        "storage.flush_s": (per_op(spans.get("storage.flush", {}).get(
            "total", 0.0)), "s/op"),
        "storage.bytes_appended": (per_op(timers.get("storage.bytes", 0)),
                                   "bytes/op"),
        "storage.compactions": (timers.get("storage.compactions", 0)
                                + layers["compactions_close"], "count"),
        "tenancy.session_open_s": (
            opens.get("total", 0.0) / opens["count"] if opens else 0.0, "s"),
        "tenancy.quota_rejections": (layers["quota_rejections"], "count"),
    })
    if trace_path is not None:
        tracer.write_jsonl(trace_path)
    untraced = mean(run.round_latency[False])
    traced = mean(run.round_latency[True])
    share = traced / untraced - 1 if untraced else 0.0
    print(f"trace overhead: {(traced - untraced) * 1e3:+.3f} ms/op "
          f"({share * 100:+.1f}%), traced rounds "
          f"{len(run.round_latency[True])}, untraced rounds "
          f"{len(run.round_latency[False])}; spans: {len(tracer.spans)}"
          + (f" -> {trace_path}" if trace_path else ""))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
