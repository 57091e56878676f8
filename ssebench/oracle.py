"""The independent correctness oracle.

A plaintext keyword -> ids map plus the original bodies, built only from
the inputs the benchmark generated.  Every search the program answers is
compared with it; the method's properties (rounds per call, segments a
repeat search opens, repeated store addresses, tenant id ranges) are
checked beside it.  A check returns ``None`` when the output is right and
a one-line reason when it is not; the harness counts a reason as a failed
operation.
"""

from __future__ import annotations

from collections import defaultdict


class Oracle:
    """Plaintext index of everything the workload stored."""

    def __init__(self) -> None:
        self._postings: dict[str, set[int]] = defaultdict(set)
        self._bodies: dict[int, bytes] = {}
        #: Plaintext bytes of every document ever stored.
        self.body_bytes = 0

    def add(self, doc_id: int, body: bytes, keywords) -> None:
        for keyword in keywords:
            self._postings[keyword].add(doc_id)
        self._bodies[doc_id] = body
        self.body_bytes += len(body)

    def remove(self, doc_id: int, keywords) -> None:
        for keyword in keywords:
            self._postings[keyword].discard(doc_id)
        del self._bodies[doc_id]

    def add_documents(self, documents) -> None:
        for doc in documents:
            self.add(doc.doc_id, doc.data, doc.keywords)

    def ids(self, keyword: str) -> list[int]:
        return sorted(self._postings.get(keyword, ()))

    def check_search(self, keyword: str, doc_ids, documents) -> str | None:
        """Ids equal the plaintext posting list; bodies equal the originals."""
        expected = self.ids(keyword)
        if sorted(doc_ids) != expected:
            return (f"search {keyword!r}: ids {sorted(doc_ids)[:8]} != "
                    f"expected {expected[:8]} ({len(doc_ids)} vs "
                    f"{len(expected)})")
        if len(documents) != len(doc_ids):
            return (f"search {keyword!r}: {len(documents)} bodies for "
                    f"{len(doc_ids)} ids")
        for doc_id, body in zip(doc_ids, documents):
            if body != self._bodies[doc_id]:
                return f"search {keyword!r}: body of id {doc_id} differs"
        return None


def check_rounds(what: str, rounds: int, expected: int = 1) -> str | None:
    """Scheme 2 / scheme3-fp calls each take one round (batched or not)."""
    if rounds != expected:
        return f"{what}: took {rounds} rounds, expected {expected}"
    return None


def check_id_range(what: str, doc_ids, low: int, high: int) -> str | None:
    """Tenant isolation: every id lies in the tenant's own range."""
    stray = [i for i in doc_ids if not low <= i < high]
    if stray:
        return f"{what}: ids {stray[:4]} belong to another tenant"
    return None


def first_problem(*problems) -> str | None:
    for problem in problems:
        if problem is not None:
            return problem
    return None
