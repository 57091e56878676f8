"""The three workloads: clinic-day, ingest-burst and tenant-shards.

Each workload drives the program only through its public API
(``repro.core.registry``, ``repro.net``, ``repro.tenancy``, ``repro.phr``)
and is a closed loop from one generator thread: the next operation starts
when the previous one has returned.

A workload object is built on a fresh data directory and offers:

* ``setup()`` -- start the server, set up keys, preload;
* ``round_ops(r)`` -- the seeded operations of round *r*, in order.
  Every round of a workload has the same shape, so a run attempts whole
  rounds of the same operations;
* ``max_rounds`` -- where the rounds stop even if time is left: scheme 2
  spends one chain position per counter-advancing update, and a run must
  not exhaust the chain (1024 positions);
* ``finish_ops()`` -- checks made after the timed phase;
* ``disk_bytes()``, ``doc_bytes()``, ``layer_counters()``, ``close()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.documents import Document
from repro.core.registry import make_client, make_server, make_service
from repro.net.channel import Channel
from repro.net.messages import MessageType, unpack_batch
from repro.net.tcp import TcpClientTransport, TcpSseServer
from repro.obs.metrics import Metrics
from repro.phr import HealthRecordEntry, PhrPlus
from repro.tenancy import OperatorSecret, TenantDirectory, TenantQuota

import inputs
from oracle import (Oracle, check_id_range, check_rounds, first_problem)

#: Scheme 2 / scheme3-fp hash-chain length (the registry default).
CHAIN_LENGTH = 1024


@dataclass
class Op:
    """One benchmark operation.

    ``kind`` is ``search``, ``update``, ``bulk`` or ``check``; ``fn``
    performs it against the program; ``check(result, rounds)`` returns a
    failure reason or None; ``channel`` is the client channel whose
    rounds and bytes the operation is charged.
    """

    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any, int], str | None]
    channel: Channel
    #: Documents this operation ingests (counted in ingest_docs_per_s).
    docs: int = 0


def _disk_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def _histogram_sums(snapshot: dict, prefix: str) -> float:
    """Sum of the ``sum`` field of every histogram series named *prefix*."""
    return sum(value["sum"] for key, value in snapshot.items()
               if key.split("{")[0] == prefix and isinstance(value, dict))


def _counter_sums(snapshot: dict, prefix: str) -> float:
    return sum(value for key, value in snapshot.items()
               if key.split("{")[0] == prefix
               and not isinstance(value, dict))


def _cache_totals(clients) -> tuple[int, int]:
    hits = misses = 0
    for client in clients:
        for stats in client.cache_stats().values():
            hits += stats["hits"]
            misses += stats["misses"]
    return hits, misses


# -- clinic-day ---------------------------------------------------------------


class ClinicDay:
    """PHR+ over scheme 2 on a durable TCP server, one GP client (§6).

    Round: three GP visits and two population-wide clinical-term
    searches between them.  A visit retrieves the patient's record,
    appends an entry and purges the record's oldest entry, so every
    record keeps its size and the per-operation cost does not drift with
    the length of the run.  The first visit re-opens the record once
    before the append.  6 searches and 6 updates per round.
    """

    name = "clinic-day"
    # Each append follows a search, so each advances the counter once;
    # a purge follows the append and reuses its counter.
    max_rounds = (CHAIN_LENGTH - 8) // 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.oracle = Oracle()
        self.entries: dict[int, inputs.ClinicEntry] = {}
        # Live entry ids per patient, oldest first.
        self.records: dict[str, list[int]] = {
            p: [] for p in inputs.clinic_patients()}
        self._next_id = 0
        self.tcp = None
        self.channel = None

    def _keywords(self, entry: inputs.ClinicEntry) -> set[str]:
        return ({f"patient:{entry.patient_id}", f"type:{entry.entry_type}"}
                | set(entry.terms))

    def _record(self, entry: inputs.ClinicEntry) -> HealthRecordEntry:
        return HealthRecordEntry(
            entry_id=entry.entry_id, patient_id=entry.patient_id,
            date=entry.date, entry_type=entry.entry_type,
            terms=frozenset(entry.terms), notes=entry.notes)

    def _stored(self, entry: inputs.ClinicEntry,
                record: HealthRecordEntry) -> None:
        """Enter a stored entry into the oracle."""
        self.entries[entry.entry_id] = entry
        self.records[entry.patient_id].append(entry.entry_id)
        self.oracle.add(entry.entry_id, record.to_document().data,
                        self._keywords(entry))

    def setup(self) -> None:
        self.server = make_server("scheme2", seed=self.seed,
                                  data_dir=self.workdir)
        self.tcp = TcpSseServer(self.server, max_workers=2)
        self.tcp.start()
        self.channel = Channel(TcpClientTransport(*self.tcp.addr),
                               keep_transcript=False)
        self.app = PhrPlus(make_client("scheme2", channel=self.channel,
                                       seed=self.seed))
        preload = inputs.clinic_preload(self.seed)
        self._next_id = len(preload)
        records = [self._record(entry) for entry in preload]
        self.app.upload_entries(records)
        for entry, record in zip(preload, records):
            self._stored(entry, record)

    def _check_entries(self, keyword: str, result, rounds: int,
                       repeat: bool = False) -> str | None:
        got = sorted((e.entry_id, e.patient_id, e.date, e.entry_type,
                      tuple(sorted(e.terms)), e.notes) for e in result)
        want = sorted((e.entry_id, e.patient_id, e.date, e.entry_type,
                       e.terms, e.notes)
                      for e in (self.entries[i]
                                for i in self.oracle.ids(keyword)))
        problem = None
        if got != want:
            problem = (f"{keyword}: {len(got)} entries, expected "
                       f"{len(want)} or contents differ")
        if repeat and problem is None:
            opened = self.server.segments_decrypted_last_search
            if opened:
                problem = (f"repeat search of {keyword} opened {opened} "
                           f"segments, expected 0")
        return first_problem(problem, check_rounds(keyword, rounds))

    def _retrieve(self, patient: str, repeat: bool = False) -> Op:
        keyword = f"patient:{patient}"
        return Op("search", lambda: self.app.patient_record(patient),
                  lambda result, rounds: self._check_entries(
                      keyword, result, rounds, repeat),
                  self.channel)

    def _term_search(self, term: str) -> Op:
        return Op("search", lambda: self.app.find_by_term(term),
                  lambda result, rounds: self._check_entries(
                      term, result, rounds),
                  self.channel)

    def _append(self, entry: inputs.ClinicEntry) -> Op:
        record = self._record(entry)

        def check(result, rounds):
            self._stored(entry, record)
            return check_rounds("append", rounds)

        return Op("update", lambda: self.app.add_entry(record), check,
                  self.channel, docs=1)

    def _purge_oldest(self, patient: str) -> Op:
        """Remove the patient's oldest entry (which one is decided late:
        the append queued before it in the same visit must land first)."""
        target = {}

        def purge():
            entry = self.entries[self.records[patient][0]]
            target["entry"] = entry
            document = self._record(entry).to_document()
            self.app.client.remove_documents([document])

        def check(result, rounds):
            entry = target["entry"]
            self.records[patient].remove(entry.entry_id)
            self.oracle.remove(entry.entry_id, self._keywords(entry))
            return check_rounds("purge", rounds)

        return Op("update", purge, check, self.channel)

    def round_ops(self, r: int) -> list[Op]:
        rng = inputs.rng_for(self.name, self.seed, "round", r)
        patients = rng.sample(inputs.clinic_patients(), 3)
        terms = rng.sample(inputs.CLINIC_TERMS, 2)
        ops: list[Op] = []
        for i, patient in enumerate(patients):
            ops.append(self._retrieve(patient))
            if i == 0:
                ops.append(self._retrieve(patient, repeat=True))
            entry = inputs.clinic_entry(rng, self._next_id, patient)
            self._next_id += 1
            ops.append(self._append(entry))
            ops.append(self._purge_oldest(patient))
            if i < 2:
                ops.append(self._term_search(terms[i]))
        return ops

    def finish_ops(self) -> list[Op]:
        return []

    def disk_bytes(self) -> int:
        return _disk_bytes(self.workdir)

    def doc_bytes(self) -> int:
        return self.oracle.body_bytes

    def layer_counters(self) -> dict[str, float]:
        snapshot = self.tcp.metrics.snapshot()
        hits, misses = _cache_totals([self.app.client])
        return {
            "queue_wait_s": _histogram_sums(snapshot, "queue_wait_seconds"),
            "lock_wait_s": _histogram_sums(snapshot, "lock_wait_seconds"),
            "quota_rejections": 0.0,
            "cache_hits": hits, "cache_misses": misses,
        }

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        if self.tcp is not None:
            self.tcp.stop()
            self.tcp = None


# -- ingest-burst -------------------------------------------------------------


class _FrameLog:
    """Pass-through handler that keeps the frames for later inspection.

    Sits between the client's channel and the durable server so the
    benchmark can check, outside the timed call, that no scheme3-fp
    store address ever repeats.
    """

    def __init__(self, handler) -> None:
        self.handler = handler
        self.frames = []

    def handle(self, message):
        self.frames.append(message)
        return self.handler.handle(message)


class IngestBurst:
    """scheme3-fp on an in-process DurableServer over LogKvStore.

    Round: one bulk load of INGEST_BULK_DOCS documents over
    INGEST_FRESH_WORDS keywords the client has never seen (each builds
    its hash chain), a burst of INGEST_BURST single-document updates over
    its keywords and those of the two loads before it, then searches of
    INGEST_SEARCHES keywords the burst touched plus one repeat search
    (which must unroll 0 steps).
    """

    name = "ingest-burst"
    max_rounds = 10_000  # fresh keywords every round: no chain runs out

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.oracle = Oracle()
        self.addresses: set[bytes] = set()
        self._next_id = 0
        # The two previous loads' words, newest first (the preload counts
        # as two loads).
        self._previous_words = inputs.ingest_words(
            "pre", 2 * inputs.INGEST_FRESH_WORDS)
        self._last_round = None
        self.durable = None

    def setup(self) -> None:
        self.durable = make_server("scheme3-fp", seed=self.seed,
                                   data_dir=self.workdir)
        self.frames = _FrameLog(self.durable)
        self.channel = Channel(self.frames, keep_transcript=False)
        self.client = make_client("scheme3-fp", channel=self.channel,
                                  seed=self.seed)
        docs = self._docs(inputs.rng_for(self.name, self.seed, "preload"),
                          self._previous_words, 2 * inputs.INGEST_BULK_DOCS)
        self.client.store(docs)
        self.oracle.add_documents(docs)
        problem = self._check_addresses()
        if problem is not None:
            raise RuntimeError(problem)

    def _docs(self, rng, vocabulary, count) -> list[Document]:
        docs = []
        for doc_id, body, keywords in inputs.ingest_docs(
                rng, self._next_id, vocabulary, count):
            docs.append(Document(doc_id, body, frozenset(keywords)))
        self._next_id += count
        return docs

    def _check_addresses(self) -> str | None:
        frames, self.frames.frames = self.frames.frames, []
        for frame in frames:
            items = (unpack_batch(frame)
                     if frame.type is MessageType.BATCH_REQUEST
                     else [frame])
            for item in items:
                if item.type is not MessageType.S3_STORE_ENTRY:
                    continue
                for address in item.fields[0::2]:
                    if address in self.addresses:
                        return "scheme3-fp store address repeated"
                    self.addresses.add(address)
        return None

    def _update(self, docs: list[Document], kind: str) -> Op:
        def check(result, rounds):
            self.oracle.add_documents(docs)
            return first_problem(self._check_addresses(),
                                 check_rounds(kind, rounds))

        return Op(kind, lambda: self.client.add_documents(docs), check,
                  self.channel, docs=len(docs) if kind == "bulk" else 0)

    def _search(self, keyword: str, repeat: bool = False) -> Op:
        def check(result, rounds):
            problem = self.oracle.check_search(keyword, result.doc_ids,
                                               result.documents)
            if repeat and problem is None:
                steps = self.durable.unroll_steps_last_search
                if steps:
                    problem = (f"repeat search of {keyword} unrolled "
                               f"{steps} steps, expected 0")
            return first_problem(problem, self._check_addresses(),
                                 check_rounds(keyword, rounds))

        return Op("search", lambda: self.client.search(keyword), check,
                  self.channel)

    def round_ops(self, r: int) -> list[Op]:
        rng = inputs.rng_for(self.name, self.seed, "round", r)
        fresh = inputs.ingest_words(r)
        ops = [self._update(self._docs(rng, fresh, inputs.INGEST_BULK_DOCS),
                            "bulk")]
        warm = fresh + self._previous_words
        for doc in self._docs(rng, warm, inputs.INGEST_BURST):
            ops.append(self._update([doc], "update"))
        searched = rng.sample(warm, inputs.INGEST_SEARCHES)
        ops.extend(self._search(keyword) for keyword in searched)
        ops.append(self._search(searched[0], repeat=True))
        self._previous_words = (fresh + self._previous_words)[
            :2 * inputs.INGEST_FRESH_WORDS]
        self._last_round = r
        return ops

    def _reopen(self) -> None:
        """Close the durable server, reopen its data directory, and
        rebuild the client from its exported state."""
        state = self.client.export_state()
        self.durable.stop()
        self.durable = make_server("scheme3-fp", seed=self.seed,
                                   data_dir=self.workdir)
        self.channel = Channel(self.durable, keep_transcript=False)
        self.client = make_client("scheme3-fp", channel=self.channel,
                                  seed=self.seed)
        self.client.import_state(state)

    def finish_ops(self) -> list[Op]:
        """After a close and reopen, six keywords answer as the oracle."""
        rng = inputs.rng_for(self.name, self.seed, "reopen")
        keywords = (rng.sample(inputs.ingest_words(
            "pre", 2 * inputs.INGEST_FRESH_WORDS), 3)
                    + rng.sample(inputs.ingest_words(self._last_round), 3))
        try:
            self._reopen()
        # A reopen the program cannot do fails every check made after it.
        except Exception as exc:  # noqa: BLE001
            def reopen_failed(exc=exc):
                raise exc
            return [Op("check", reopen_failed, lambda *_: None,
                       self.channel) for _ in keywords]
        ops = []
        for keyword in keywords:
            def check(result, rounds, keyword=keyword):
                return first_problem(
                    self.oracle.check_search(keyword, result.doc_ids,
                                             result.documents),
                    check_rounds(keyword, rounds))

            ops.append(Op("check",
                          lambda keyword=keyword: self.client.search(keyword),
                          check, self.channel))
        return ops

    def disk_bytes(self) -> int:
        return _disk_bytes(self.workdir)

    def doc_bytes(self) -> int:
        return self.oracle.body_bytes

    def layer_counters(self) -> dict[str, float]:
        hits, misses = _cache_totals([self.client])
        return {"queue_wait_s": 0.0, "lock_wait_s": 0.0,
                "quota_rejections": 0.0,
                "cache_hits": hits, "cache_misses": misses}

    def close(self) -> None:
        if self.durable is not None:
            self.durable.stop()
            self.durable = None


# -- tenant-shards ------------------------------------------------------------


class _Tenant:
    def __init__(self, index: int, tenant_id: str) -> None:
        self.index = index
        self.tenant_id = tenant_id
        self.oracle = Oracle()
        self.low = index * inputs.TENANT_ID_SPAN
        self.high = self.low + inputs.TENANT_ID_SPAN
        self.next_id = self.low
        self.live: list[Document] = []  # oldest first
        self.client = None
        self.channel = None


class TenantShards:
    """scheme 2 on a 2-shard durable service with two tenants over TCP.

    Each tenant holds its own authenticated session.  Round, for each
    tenant in turn: a 3-keyword ``search_batch`` (scatters to both
    shards), a 2-document add, a single search, the removal of the
    tenant's 2 oldest documents and a single search -- 6 searches and 4
    batched updates per round.  Adds and removals balance, so the
    per-operation cost does not drift with the length of the run.
    """

    name = "tenant-shards"
    # Per tenant: two counter-advancing updates per round.
    max_rounds = (CHAIN_LENGTH - 8) // 2

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tenants = [_Tenant(i, tid)
                        for i, tid in enumerate(inputs.TENANTS)]
        self.service = None

    def setup(self) -> None:
        secret = inputs.rng_for(self.name, self.seed, "operator").randbytes(32)
        directory = TenantDirectory(OperatorSecret(secret))
        for tenant in self.tenants:
            directory.add(tenant.tenant_id,
                          TenantQuota(max_documents=inputs.TENANT_ID_SPAN))
        self.service = make_service(
            "scheme2", shards=2, data_dir=self.workdir, seed=self.seed,
            shard_mode="thread", tenants=directory, metrics=Metrics())
        for tenant in self.tenants:
            tenant.channel = Channel(TcpClientTransport(*self.service.addr),
                                     keep_transcript=False)
            tenant.client = make_client(
                "scheme2", channel=tenant.channel,
                tenant=directory.tenant(tenant.tenant_id),
                seed=self.seed * 10 + tenant.index)
            tenant.client.open(tenant.tenant_id,
                               directory.token(tenant.tenant_id))
            rng = inputs.rng_for(self.name, self.seed, "preload",
                                 tenant.tenant_id)
            docs = self._docs(tenant, rng, inputs.TENANT_PRELOAD_DOCS)
            tenant.client.store(docs)
            tenant.oracle.add_documents(docs)
            tenant.live.extend(docs)

    def _docs(self, tenant: _Tenant, rng, count: int) -> list[Document]:
        docs = []
        for doc_id, body, keywords in inputs.tenant_docs(
                rng, tenant.next_id, count):
            docs.append(Document(doc_id, body, frozenset(keywords)))
        tenant.next_id += count
        return docs

    def _check(self, tenant: _Tenant, result) -> str | None:
        return first_problem(
            check_id_range(f"{tenant.tenant_id} {result.keyword!r}",
                           result.doc_ids, tenant.low, tenant.high),
            tenant.oracle.check_search(result.keyword, result.doc_ids,
                                       result.documents))

    def _search(self, tenant: _Tenant, keyword: str) -> Op:
        return Op("search", lambda: tenant.client.search(keyword),
                  lambda result, rounds: first_problem(
                      self._check(tenant, result),
                      check_rounds("search", rounds)),
                  tenant.channel)

    def _search_batch(self, tenant: _Tenant, keywords: list[str]) -> Op:
        def check(results, rounds):
            if [r.keyword for r in results] != keywords:
                return "search_batch results out of position"
            return first_problem(*(self._check(tenant, r) for r in results),
                                 check_rounds("search_batch", rounds))

        return Op("search", lambda: tenant.client.search_batch(keywords),
                  check, tenant.channel)

    def _update(self, tenant: _Tenant, docs: list[Document]) -> Op:
        def check(result, rounds):
            tenant.oracle.add_documents(docs)
            tenant.live.extend(docs)
            return check_rounds("update", rounds)

        return Op("update", lambda: tenant.client.add_documents(docs),
                  check, tenant.channel, docs=len(docs))

    def _remove_oldest(self, tenant: _Tenant, count: int) -> Op:
        docs = tenant.live[:count]

        def check(result, rounds):
            for doc in docs:
                tenant.live.remove(doc)
                tenant.oracle.remove(doc.doc_id, doc.keywords)
            return check_rounds("remove", rounds)

        return Op("update", lambda: tenant.client.remove_documents(docs),
                  check, tenant.channel)

    def round_ops(self, r: int) -> list[Op]:
        rng = inputs.rng_for(self.name, self.seed, "round", r)
        ops: list[Op] = []
        for tenant in self.tenants:
            words = rng.sample(inputs.TENANT_WORDS, 5)
            ops.append(self._search_batch(tenant, words[:3]))
            ops.append(self._update(tenant, self._docs(tenant, rng, 2)))
            ops.append(self._search(tenant, words[3]))
            ops.append(self._remove_oldest(tenant, 2))
            ops.append(self._search(tenant, words[4]))
        return ops

    def finish_ops(self) -> list[Op]:
        return []

    def disk_bytes(self) -> int:
        return _disk_bytes(self.workdir)

    def doc_bytes(self) -> int:
        return sum(t.oracle.body_bytes for t in self.tenants)

    def layer_counters(self) -> dict[str, float]:
        router = self.service.router.metrics.snapshot()
        queue = _histogram_sums(router, "queue_wait_seconds")
        lock = _histogram_sums(router, "lock_wait_seconds")
        rejections = _counter_sums(router, "quota_rejections_total")
        for shard in self.service.stats()["shards"]:
            metrics = shard.get("metrics", {})
            queue += _histogram_sums(metrics, "queue_wait_seconds")
            lock += _histogram_sums(metrics, "lock_wait_seconds")
            rejections += _counter_sums(metrics, "quota_rejections_total")
        hits, misses = _cache_totals([t.client for t in self.tenants])
        return {"queue_wait_s": queue, "lock_wait_s": lock,
                "quota_rejections": rejections,
                "cache_hits": hits, "cache_misses": misses}

    def close(self) -> None:
        for tenant in self.tenants:
            if tenant.channel is not None:
                tenant.channel.close()
                tenant.channel = None
        if self.service is not None:
            self.service.stop()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (ClinicDay, IngestBurst, TenantShards)}
