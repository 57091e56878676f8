"""Host-speed reference: a fixed loop of the benchmark's own code.

The benchmark shares its host with other machines' work, and the speed
its process gets moves by up to a factor of two over minutes, in CPU
time as much as in wall time (the guest sees no steal time).  The
program spends its time running Python bytecode, pure-Python SHA-256
and AES among it, so a fixed loop of the same kind of code (here a
SHA-256-shaped compression function) slows down with it.  The
benchmark times one pass of this loop before every timed operation and
around every set-up, and reports timings scaled to a host on which one
pass takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (median pass time nearby)

A change to the program moves the measured time but not the pass time,
so it shows in full; a slower or faster host moves both and cancels.
The loop is the benchmark's own code and never calls the program.
"""

from __future__ import annotations

import statistics
import struct
import time

#: The pass time that reported timings are scaled to: on a host where
#: one pass takes exactly this long, reported and measured times agree.
NOMINAL_S = 1e-3

_MASK = 0xFFFFFFFF
#: Round constants of the reference loop (not SHA-256's).
_K = tuple((i * 0x9E3779B9) & _MASK for i in range(64))
#: Compressions per pass; one pass is about 1 ms on a 2.1 GHz Xeon vCPU.
_COMPRESSIONS = 4


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _compress(state: tuple, block: bytes) -> tuple:
    """A SHA-256-shaped compression: message schedule and 64 rounds."""
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        t1 = (h + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25))
              + ((e & f) ^ (~e & g)) + _K[i] + w[i]) & _MASK
        t2 = ((_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22))
              + ((a & b) ^ (a & c) ^ (b & c))) & _MASK
        h, g, f, e, d, c, b, a = (g, f, e, (d + t1) & _MASK, c, b, a,
                                  (t1 + t2) & _MASK)
    return tuple((x + y) & _MASK
                 for x, y in zip(state, (a, b, c, d, e, f, g, h)))


def _pass() -> tuple:
    state, block = tuple(range(1, 9)), bytes(range(64))
    for _ in range(_COMPRESSIONS):
        state = _compress(state, block)
        block = struct.pack(">8I", *state) * 2
    return state


def sample() -> float:
    """Seconds one pass of the reference loop takes now."""
    started = time.perf_counter()
    _pass()
    return time.perf_counter() - started


def scale(samples: list[float]) -> float:
    """Factor that turns measured seconds into nominal-host seconds."""
    return NOMINAL_S / statistics.median(samples)
