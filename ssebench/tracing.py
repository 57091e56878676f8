"""Traced mode: spans and timers around the program's layer boundaries.

The benchmark records its own spans; it does not turn on the program's
tracer.  :meth:`Tracer.install` wraps public functions and methods of
each layer in place and :meth:`Tracer.uninstall` puts the originals back,
so untraced rounds run the program exactly as shipped.

Two kinds of wrapper:

* **span** -- one in-memory record per call: name, start, end, parent
  span and the id of the benchmark operation that caused it.  Used at the
  coarse boundaries (client call, channel request, router, shard, scheme
  server, storage flush), a handful per operation.
* **timer** -- per-thread busy seconds for a layer, with a nesting guard
  so that an HMAC calling SHA-256 counts once.  Used where calls are too
  many to keep a record each (crypto primitives, the AVL index, the
  message codec).

A span opened on a thread that has no open span of its own (a server
worker, the router's fanout pool) takes as parent the most recently
started open span of a layer above it, on any thread.  The benchmark
drives one operation at a time from one thread, so that span is the
request waiting on it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

SEARCH_TYPES = ("S2_SEARCH_REQUEST", "S3_SEARCH_REQUEST")

#: Span layers, with the rank that orders them from client to disk.
SPANS = {
    "op": 0,
    "core.client": 1,
    "tenancy.session_open": 1,
    "net.request": 2,
    "net.router": 3,
    "net.shard": 4,
    "core.server": 5,
    "storage.flush": 6,
}

# (module, class or None, attribute, layer)
_SPAN_TARGETS = [
    ("repro.core.scheme2", "Scheme2Client", "store", "core.client"),
    ("repro.core.scheme2", "Scheme2Client", "add_documents", "core.client"),
    ("repro.core.scheme2", "Scheme2Client", "remove_documents",
     "core.client"),
    ("repro.core.scheme2", "Scheme2Client", "search", "core.client"),
    ("repro.core.scheme2", "Scheme2Client", "search_batch", "core.client"),
    ("repro.core.scheme3", "Scheme3Client", "store", "core.client"),
    ("repro.core.scheme3", "Scheme3Client", "add_documents", "core.client"),
    ("repro.core.scheme3", "Scheme3Client", "remove_documents",
     "core.client"),
    ("repro.core.scheme3", "Scheme3Client", "search", "core.client"),
    ("repro.core.scheme3", "Scheme3Client", "search_batch", "core.client"),
    ("repro.core.api", "SseClient", "open", "tenancy.session_open"),
    ("repro.net.channel", "Channel", "request", "net.request"),
    ("repro.net.channel", "Channel", "request_many", "net.request"),
    ("repro.net.shard", "ShardRouter", "handle", "net.router"),
    ("repro.net.shard", "ShardRouter", "handle_as", "net.router"),
    ("repro.tenancy.gateway", "TenantGateway", "handle_as", "net.shard"),
    ("repro.core.server", "BaseSseServer", "handle", "core.server"),
    ("repro.storage.kvstore", "LogKvStore", "apply_batch", "storage.flush"),
]

_TIMER_TARGETS = [
    ("repro.crypto.chain", None, "chain_step", "crypto"),
    ("repro.crypto.chain", "HashChain", "__init__", "crypto"),
    ("repro.crypto.chain", "HashChain", "element", "crypto"),
    ("repro.crypto.chain", "ChainWalker", "advance", "crypto"),
    ("repro.crypto.sha256", "SHA256", "update", "crypto"),
    ("repro.crypto.sha256", "SHA256", "digest", "crypto"),
    ("repro.crypto.sha256", "SHA256", "copy", "crypto"),
    ("repro.crypto.hmac_sha256", "HMACSHA256", "__init__", "crypto"),
    ("repro.crypto.hmac_sha256", "HMACSHA256", "update", "crypto"),
    ("repro.crypto.hmac_sha256", "HMACSHA256", "digest", "crypto"),
    ("repro.crypto.hmac_sha256", "HMACSHA256", "copy", "crypto"),
    ("repro.crypto.prf", "Prf", "evaluate", "crypto"),
    ("repro.crypto.prf", "Prf", "evaluate_truncated", "crypto"),
    ("repro.crypto.authenc", "AuthenticatedCipher", "encrypt", "crypto"),
    ("repro.crypto.authenc", "AuthenticatedCipher", "decrypt", "crypto"),
    ("repro.crypto.prp", "FeistelPrp", "forward", "crypto"),
    ("repro.crypto.prp", "FeistelPrp", "inverse", "crypto"),
    ("repro.crypto.aes_fast", "FastAES", "encrypt_block", "crypto"),
    ("repro.crypto.aes", "AES", "encrypt_block", "crypto"),
    ("repro.ds.avl", "AvlTree", "get", "ds"),
    ("repro.ds.avl", "AvlTree", "insert", "ds"),
    ("repro.ds.avl", "AvlTree", "delete", "ds"),
    ("repro.net.messages", "Message", "serialize", "codec"),
    ("repro.net.messages", "Message", "deserialize", "codec"),
]


class Tracer:
    """Span store plus per-thread layer timers and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id: int | str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open: dict[int, tuple[int, float]] = {}
        self._local = threading.local()
        self._per_thread: list[dict[str, float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
            local.sums = {}
            with self._lock:
                self._per_thread.append(local.sums)
        return local

    def add(self, key: str, amount: float) -> None:
        sums = self._thread_state().sums
        sums[key] = sums.get(key, 0.0) + amount

    def totals(self) -> dict[str, float]:
        """Merged timer seconds and counters across every thread."""
        with self._lock:
            per_thread = list(self._per_thread)
        merged: dict[str, float] = {}
        for sums in per_thread:
            for key, value in list(sums.items()):
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def open_span(self, name: str):
        local = self._thread_state()
        rank = SPANS[name]
        span_id = next(self._ids)
        with self._lock:
            if local.stack:
                parent = local.stack[-1]
            else:
                above = [(start, sid) for sid, (r, start)
                         in self._open.items() if r < rank]
                parent = max(above)[1] if above else None
            start = time.perf_counter()
            self._open[span_id] = (rank, start)
        local.stack.append(span_id)
        return (span_id, parent, name, self.op_id, start,
                threading.get_ident())

    def close_span(self, token) -> None:
        end = time.perf_counter()
        span_id = token[0]
        self._local.stack.pop()
        with self._lock:
            del self._open[span_id]
            self.spans.append(token + (end,))

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(token)
            if name == "storage.flush":
                tracer.add("storage.bytes", result)
                tracer.add("storage.flushes", 1)
            elif name == "core.server" and args[1].type.name in SEARCH_TYPES:
                server = args[0]
                opened = getattr(server, "segments_decrypted_last_search",
                                 None)
                if opened is None:
                    opened = server.entries_folded_last_search
                tracer.add("core.segments", opened)
            return result

        return wrapper

    def _timer_wrapper(self, fn, group: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._thread_state()
            depth = local.depth.get(group, 0)
            local.depth[group] = depth + 1
            if depth:
                try:
                    return fn(*args, **kwargs)
                finally:
                    local.depth[group] = depth
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                local.depth[group] = 0
                sums = local.sums
                sums[group] = sums.get(group, 0.0) + (
                    time.perf_counter() - start)

        return wrapper

    def _counter_wrapper(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(key, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, owner_name, attr, make) -> None:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module,
                                                          owner_name)
        raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary (idempotent until uninstall)."""
        if self._patched:
            return
        for module, owner, attr, name in _SPAN_TARGETS:
            self._patch(module, owner, attr,
                        lambda fn, n=name: self._span_wrapper(fn, n))
        for module, owner, attr, group in _TIMER_TARGETS:
            self._patch(module, owner, attr,
                        lambda fn, g=group: self._timer_wrapper(fn, g))
        self._patch("repro.storage.kvstore", "LogKvStore", "compact",
                    lambda fn: self._counter_wrapper(fn,
                                                     "storage.compactions"))

    def uninstall(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def span_times(self, ops: set) -> dict[str, dict[str, float]]:
        """Per layer: total and self seconds of spans caused by *ops*.

        Self time is a span's duration minus the part of it that its
        child spans cover (their union, clipped to the span).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append((span[4], span[6]))
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, op, start, _, end in self.spans:
            if op not in ops:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            row = out.setdefault(name, {"total": 0.0, "self": 0.0,
                                        "count": 0})
            row["total"] += end - start
            row["self"] += end - start - covered
            row["count"] += 1
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, op, start, thread, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "op": op, "start": start, "end": end,
                    "thread": thread}) + "\n")
