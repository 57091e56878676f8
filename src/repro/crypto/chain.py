"""Lamport-style pseudo-random hash chains (paper §5.4, ref [17]).

A chain of length *l* from seed *a* is the sequence

    a, f(a), f^2(a), ..., f^l(a)

where f is a PRF-derived one-way step.  Scheme 2 keys its update masks with
chain elements consumed *backwards* — the j-th update uses ``f^(l-ctr)(a)``
— so that:

* the client (who knows the seed) can jump to any position directly;
* the server, given a *later* (lower-exponent) element via a trapdoor, can
  walk *forward* to recover every earlier update key, but can never walk
  backward to keys for future updates.

:class:`HashChain` is the client-side object (seed known).  It keeps a
checkpoint every ``spacing`` positions plus one *segment window*: the
``spacing - 1`` elements above the checkpoint of the last segment it
walked.  Counters only climb, so the positions a client asks for only
fall, and each segment is walked once on the way down: a keyword pays
one chain step per counter advance, amortized, instead of up to
``spacing - 1`` steps per query.  :func:`chain_step` /
:class:`ChainWalker` serve the server side, which only ever steps
forward.
"""

from __future__ import annotations

from repro.crypto.sha256 import SHA256
from repro.errors import ChainExhaustedError, ParameterError
from repro.obs.opcount import record as _record_op

__all__ = ["chain_step", "HashChain", "ChainWalker", "STEP_LABEL"]

STEP_LABEL = b"repro.chain.step"

# The chain function only needs one-wayness, not a keyed PRF, so it is a
# plain label-prefixed hash: SHA-256(label ‖ element).  The 16-byte label
# plus a 32-byte element fit one compression-function call, which matters —
# chain construction runs l steps per keyword and the server walk runs in
# a tight loop.  The label-absorbed midstate is cloned per step.
_STEP_TEMPLATE = SHA256(STEP_LABEL)

# Every element past the seed is a chain_step digest of this size, which
# is what lets a segment window pack them into one buffer.
_ELEMENT_SIZE = _STEP_TEMPLATE.digest_size


def chain_step(element: bytes) -> bytes:
    """One forward application of the chain function f.

    Implemented as SHA-256 over a fixed public label prefix: one-way under
    the usual assumptions and domain-separated from every other hash use
    in the library.
    """
    _record_op("chain_step")
    h = _STEP_TEMPLATE.copy()
    h.update(element)
    return h.digest()


class HashChain:
    """A length-*l* hash chain owned by the party that knows the seed.

    Positions are indexed by the number of forward steps from the seed:
    ``element(0) == seed``, ``element(l) == f^l(seed)``.  Scheme 2 uses
    ``element(l - ctr)`` as the key for update number ``ctr``.

    With spacing *s* the chain stores a checkpoint at every multiple of
    *s* (and at *l*), taken while it is built, plus a window holding the
    ``s - 1`` elements strictly between one checkpoint and the next,
    packed into one ``bytes`` buffer and served by slicing.  A query
    that misses both walks its segment once and replaces the window, so
    any ``element(i)`` costs at most ``s - 1`` steps and a descending
    run of queries costs ``s - 1`` steps per segment.  Construction
    keeps the top segment, so ``key_for_counter(1)`` on a fresh chain
    costs nothing.  At the default spacing the window is 63 × 32 bytes,
    about 2 KB per chain next to its 17 checkpoints (at l = 1024).
    """

    def __init__(self, seed: bytes, length: int,
                 checkpoint_spacing: int = 64) -> None:
        if not seed:
            raise ParameterError("chain seed must be non-empty")
        if length < 1:
            raise ParameterError("chain length must be at least 1")
        if checkpoint_spacing < 1:
            raise ParameterError("checkpoint spacing must be at least 1")
        self._length = length
        self._spacing = checkpoint_spacing
        self._checkpoints: dict[int, bytes] = {0: seed}
        top = (length - 1) - (length - 1) % checkpoint_spacing
        window = bytearray()
        element = seed
        for i in range(1, length + 1):
            element = chain_step(element)
            if i % checkpoint_spacing == 0 or i == length:
                self._checkpoints[i] = element
            elif i > top:
                window += element
        # (base checkpoint, packed elements base+1 .., 32 bytes each),
        # swapped as one tuple so a concurrent reader never pairs one
        # segment's base with another segment's buffer.
        self._window = (top, bytes(window))

    @property
    def length(self) -> int:
        """Total number of forward steps available (the paper's l)."""
        return self._length

    def element(self, position: int) -> bytes:
        """Return f^position(seed) for 0 <= position <= length."""
        if not 0 <= position <= self._length:
            raise ParameterError(
                f"chain position {position} outside 0..{self._length}"
            )
        if position in self._checkpoints:
            return self._checkpoints[position]
        base = position - position % self._spacing
        window_base, window = self._window
        if window_base != base:
            window = self._walk_segment(base)
        offset = (position - base - 1) * _ELEMENT_SIZE
        return window[offset:offset + _ELEMENT_SIZE]

    def _walk_segment(self, base: int) -> bytes:
        """Walk the segment above checkpoint *base* into the window."""
        stop = min(base + self._spacing, self._length)
        element = self._checkpoints[base]
        window = bytearray()
        for _ in range(base + 1, stop):
            element = chain_step(element)
            window += element
        packed = bytes(window)
        self._window = (base, packed)
        return packed

    def key_for_counter(self, ctr: int) -> bytes:
        """The Scheme 2 update key for counter value *ctr*: f^(l-ctr)(seed).

        Counters run 1..l; when ctr exceeds l the chain is exhausted and the
        caller must re-initialize with a fresh seed (§5.6, Optimization 2
        discussion).
        """
        if ctr < 1:
            raise ParameterError("chain counters start at 1")
        if ctr > self._length:
            raise ChainExhaustedError(
                f"chain of length {self._length} exhausted at counter {ctr}"
            )
        return self.element(self._length - ctr)


class ChainWalker:
    """Server-side forward walker starting from a trapdoor element.

    The server receives ``t' = f^(l-ctr)(seed)`` and must find earlier
    update keys, each of which is some ``f^k`` of the start element.  It
    recognizes them by comparing a PRF *verifier* of the current element
    against verifiers stored with each update (the paper's f'(k_j)).
    """

    def __init__(self, start: bytes, max_steps: int) -> None:
        if max_steps < 0:
            raise ParameterError("max_steps must be non-negative")
        self._current = start
        self._steps_left = max_steps
        self.steps_taken = 0

    @property
    def current(self) -> bytes:
        """The chain element the walker is currently standing on."""
        return self._current

    def advance(self) -> bytes:
        """Take one forward step; errors out past the step budget."""
        if self._steps_left == 0:
            raise ChainExhaustedError(
                "chain walk exceeded the maximum number of steps"
            )
        self._current = chain_step(self._current)
        self._steps_left -= 1
        self.steps_taken += 1
        return self._current

    def walk_until(self, predicate) -> bytes:
        """Advance until ``predicate(element)`` is true; return that element.

        Checks the starting element first, mirroring the paper's Search
        description ("check if f'(t'_w) = f'(k_j(w)) then k_j(w) = t'_w
        otherwise ... perform the checking again").
        """
        while not predicate(self._current):
            self.advance()
        return self._current
