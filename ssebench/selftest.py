#!/usr/bin/env python3
"""Self-test of the benchmark's checks: corrupted results must fail.

Runs one round of every workload twice, from the root of a checkout::

    python3 ssebench/selftest.py

First clean, where no operation may fail; then with every second
operation's output corrupted by this script after the program returned
it and before the checks saw it -- a search gains a document id that is
not in the plaintext index (for tenant-shards: an id of the other
tenant), a returned body has a byte flipped, the last body is dropped
(for clinic-day: the last entry), or a call is reported as taking one
more round than it did.  Every corrupted operation must be counted as
failed, and no other, and every kind of corruption must have been
applied.  Exits 0 when this holds for every workload.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import inputs  # noqa: E402
from repro.core.api import SearchResult  # noqa: E402
from repro.phr import HealthRecordEntry  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KINDS = ("ids", "body", "drop", "rounds")


def _foreign_id(doc_ids) -> int:
    """An id the search cannot legitimately return."""
    if doc_ids:
        return (doc_ids[0] + inputs.TENANT_ID_SPAN) % (
            len(inputs.TENANTS) * inputs.TENANT_ID_SPAN)
    return 3 * inputs.TENANT_ID_SPAN


def corrupt_search(result: SearchResult, kind: str):
    """The corrupted result and the kind of corruption applied."""
    if kind == "body" and result.documents:
        first = bytes([result.documents[0][0] ^ 1]) \
            + result.documents[0][1:]
        return dataclasses.replace(
            result, documents=[first] + result.documents[1:]), kind
    if kind == "drop" and result.documents:
        # SearchResult refuses misaligned lists, so bypass its constructor:
        # the oracle must not rely on that.
        dropped = copy.copy(result)
        object.__setattr__(dropped, "documents", result.documents[:-1])
        return dropped, kind
    return dataclasses.replace(
        result, doc_ids=result.doc_ids + [_foreign_id(result.doc_ids)],
        documents=result.documents + [b"forged"]), "ids"


def corrupt_entries(entries: list, kind: str):
    if kind == "body" and entries:
        first = dataclasses.replace(entries[0], notes=entries[0].notes + "!")
        return [first] + entries[1:], kind
    if kind == "drop" and entries:
        return entries[:-1], kind
    forged = HealthRecordEntry(entry_id=10 ** 9, patient_id="p9999",
                               date="2026-01-01", entry_type="visit")
    return entries + [forged], "ids"


class Corrupter:
    """Corrupts every second operation.

    An update returns nothing, so its round count is corrupted; searches
    cycle through KINDS.  ``applied`` collects the kinds really applied.
    """

    def __init__(self) -> None:
        self.seen = 0
        self.corrupted = 0
        self.searches = 0
        self.applied: set[str] = set()

    def __call__(self, op, result, rounds):
        self.seen += 1
        if self.seen % 2:
            return result, rounds
        self.corrupted += 1
        kind = "rounds"
        if result is not None:
            kind = KINDS[self.searches % len(KINDS)]
            self.searches += 1
        if kind == "rounds":
            rounds += 1
        elif isinstance(result, SearchResult):
            result, kind = corrupt_search(result, kind)
        elif result and isinstance(result[0], SearchResult):
            first, kind = corrupt_search(result[0], kind)
            result = [first] + result[1:]
        else:
            result, kind = corrupt_entries(result, kind)
        self.applied.add(kind)
        return result, rounds


def one_round(name: str, corrupt) -> dict:
    workdir = os.path.join(ROOT, ".ssebench", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return harness.run_workload(WORKLOADS[name], 1, 0.0, False,
                                    workdir, corrupt=corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    harness.SETUPS = 1
    broken = 0
    for name in WORKLOADS:
        clean = one_round(name, None)
        corrupter = Corrupter()
        dirty = one_round(name, corrupter)
        ok = (clean["failed"] == 0 and clean["correct"]
              and dirty["failed"] == corrupter.corrupted > 0
              and not dirty["correct"]
              and corrupter.applied == set(KINDS))
        broken += not ok
        print(f"{name}: clean run {clean['failed']}/{clean['attempted']} "
              f"failed; corrupted {corrupter.corrupted} of "
              f"{dirty['attempted']} ({', '.join(sorted(corrupter.applied))}"
              f"), counted failed {dirty['failed']}: "
              f"{'ok' if ok else 'MISMATCH'}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
