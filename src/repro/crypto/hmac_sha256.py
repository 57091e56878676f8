"""HMAC-SHA256 implemented from scratch per RFC 2104 / FIPS 198-1.

HMAC is the workhorse of this library: it instantiates the paper's
pseudo-random function f, the chain step function, PRG expansion, and the
Feistel round functions.  RFC 4231 test vectors are exercised in
``tests/crypto/test_hmac.py``.
"""

from __future__ import annotations

from repro.crypto.sha256 import SHA256, sha256
from repro.errors import ParameterError
from repro.obs.opcount import record as _record_op

__all__ = ["HMACSHA256", "hmac_sha256"]

_BLOCK_SIZE = 64
_IPAD = bytes(0x36 for _ in range(_BLOCK_SIZE))
_OPAD = bytes(0x5C for _ in range(_BLOCK_SIZE))


class HMACSHA256:
    """Incremental HMAC-SHA256 object.

    Both padded keys are absorbed once, at construction, so the inner and
    outer hash states start as midstates: ``digest`` copies the outer one
    instead of compressing the outer key again, and ``copy`` allows cheap
    reuse of a keyed instance across many messages, which the PRF layer
    exploits.
    """

    digest_size = 32

    def __init__(self, key: bytes, data: bytes = b"") -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise ParameterError("HMAC key must be bytes")
        key = bytes(key)
        if len(key) > _BLOCK_SIZE:
            key = sha256(key)
        key = key.ljust(_BLOCK_SIZE, b"\x00")
        self._outer = SHA256(bytes(k ^ p for k, p in zip(key, _OPAD)))
        self._inner = SHA256(bytes(k ^ p for k, p in zip(key, _IPAD)))
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb *data* into the MAC."""
        self._inner.update(data)

    def digest(self) -> bytes:
        """Return the 32-byte MAC of everything absorbed so far."""
        _record_op("hmac")
        outer = self._outer.copy()
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        """Return the MAC as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "HMACSHA256":
        """Return an independent copy sharing the absorbed state so far."""
        clone = HMACSHA256.__new__(HMACSHA256)
        clone._outer = self._outer  # shared: digest() only copies it
        clone._inner = self._inner.copy()
        return clone


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA256 of *data* under *key*."""
    return HMACSHA256(key, data).digest()
