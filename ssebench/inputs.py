"""Seeded input generation for every workload.

Everything the program is fed is made here, from the ``--seed`` the run
was given, with Python's :class:`random.Random` seeded by a string that
names the workload, the seed and the part of the run.  Nothing is taken
from the program's own generators (``repro.workloads``,
``repro.phr.generate_corpus``), so a change to the program cannot change
the traffic it is measured on.

String seeds go through SHA-512 inside ``random.Random``, so the inputs do
not depend on ``PYTHONHASHSEED`` or on the platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pu",
              "dra", "fen", "gol", "hes", "jin", "kor", "lum", "mar")


def rng_for(*parts) -> random.Random:
    """A generator seeded by the joined *parts* (workload, seed, phase)."""
    return random.Random("/".join(str(part) for part in parts))


def text_of_length(rng: random.Random, length: int) -> str:
    """Pseudo-words joined by spaces, cut to exactly *length* characters."""
    words: list[str] = []
    size = 0
    while size < length:
        word = "".join(rng.choice(_SYLLABLES)
                       for _ in range(rng.randint(1, 3)))
        words.append(word)
        size += len(word) + 1
    return " ".join(words)[:length]


def zipf_weights(n: int, exponent: float) -> list[float]:
    """Unnormalized Zipf weights 1/rank^exponent for ranks 1..n."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def keyword_pairs(rng: random.Random, vocabulary: list[str], count: int,
                  exponent: float, offset: int = 0) -> list[tuple[str, str]]:
    """*count* keyword pairs over *vocabulary*.

    The first keyword of pair i is ``vocabulary[(offset + i) % len]`` (so
    every word is used, and the crypto work per batch does not depend on
    the seed); the second is a Zipf draw over the vocabulary, distinct
    from the first.
    """
    weights = zipf_weights(len(vocabulary), exponent)
    pairs = []
    for i in range(count):
        first = vocabulary[(offset + i) % len(vocabulary)]
        second = first
        while second == first:
            second = rng.choices(vocabulary, weights)[0]
        pairs.append((first, second))
    return pairs


# -- clinic-day ---------------------------------------------------------------

CLINIC_PATIENTS = 6
CLINIC_PRELOAD_PER_PATIENT = 4
CLINIC_TERMS = ("asthma", "diabetes", "hypertension", "influenza")
CLINIC_TYPES = ("visit", "prescription")
CLINIC_NOTES = (150, 250)


@dataclass(frozen=True)
class ClinicEntry:
    """One PHR entry as the benchmark generates it (not a program type)."""

    entry_id: int
    patient_id: str
    date: str
    entry_type: str
    terms: tuple[str, ...]
    notes: str


def clinic_patients() -> list[str]:
    return [f"p{i:04d}" for i in range(CLINIC_PATIENTS)]


def clinic_entry(rng: random.Random, entry_id: int,
                 patient_id: str) -> ClinicEntry:
    """An entry with two of the clinical terms."""
    date = f"2026-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    return ClinicEntry(
        entry_id=entry_id,
        patient_id=patient_id,
        date=date,
        entry_type=rng.choice(CLINIC_TYPES),
        terms=tuple(sorted(rng.sample(CLINIC_TERMS, 2))),
        notes=text_of_length(rng, rng.randint(*CLINIC_NOTES)),
    )


def clinic_preload(seed: int) -> list[ClinicEntry]:
    """CLINIC_PRELOAD_PER_PATIENT entries for every patient."""
    rng = rng_for("clinic-day", seed, "preload")
    entries = []
    for patient in clinic_patients():
        for _ in range(CLINIC_PRELOAD_PER_PATIENT):
            entries.append(clinic_entry(rng, len(entries), patient))
    return entries


# -- ingest-burst -------------------------------------------------------------

INGEST_BULK_DOCS = 8
INGEST_FRESH_WORDS = 3
INGEST_BURST = 12
INGEST_SEARCHES = 8
INGEST_ZIPF = 1.1
INGEST_BODY = (160, 320)


def ingest_words(round_index: int | str,
                 count: int = INGEST_FRESH_WORDS) -> list[str]:
    """The fresh vocabulary of one bulk load (``pre`` for the preload)."""
    return [f"b{round_index}k{j}" for j in range(count)]


def ingest_docs(rng: random.Random, first_id: int, vocabulary: list[str],
                count: int) -> list[tuple[int, bytes, tuple[str, str]]]:
    """(id, body, keywords) triples, two keywords per document."""
    docs = []
    for offset, pair in enumerate(keyword_pairs(rng, vocabulary, count,
                                                INGEST_ZIPF)):
        body = text_of_length(rng, rng.randint(*INGEST_BODY)).encode()
        docs.append((first_id + offset, body, pair))
    return docs


# -- tenant-shards ------------------------------------------------------------

TENANTS = ("clinic-a", "clinic-b")
#: Tenant i draws document ids from [i * TENANT_ID_SPAN, (i+1) * SPAN).
TENANT_ID_SPAN = 1_000_000
TENANT_WORDS = [f"w{j}" for j in range(6)]
TENANT_PRELOAD_DOCS = 24
#: Keyword popularity is uniform (Zipf exponent 0): every search of a
#: tenant meets a posting list of about the same size.
TENANT_ZIPF = 0.0
TENANT_BODY = (160, 320)


def tenant_docs(rng: random.Random, first_id: int, count: int
                ) -> list[tuple[int, bytes, tuple[str, str]]]:
    docs = []
    for offset, pair in enumerate(keyword_pairs(rng, TENANT_WORDS, count,
                                                TENANT_ZIPF, first_id)):
        body = text_of_length(rng, rng.randint(*TENANT_BODY)).encode()
        docs.append((first_id + offset, body, pair))
    return docs
