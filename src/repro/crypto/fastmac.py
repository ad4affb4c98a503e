"""HMAC-SHA256-based MAC truncated to 128 bits.

A drop-in alternative to :class:`repro.crypto.cmac.AesCmac` for large
test and benchmark sweeps.  The kernel's *simulated cycle model* charges
identical costs for both providers (costs are a function of the number
of 16-byte MAC blocks, see :mod:`repro.kernel.costs`), so swapping
providers changes only host wall-clock time, never a reported number.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.cmac import MAC_SIZE


class FastMac:
    """128-bit truncated HMAC-SHA256 with the AesCmac interface."""

    name = "fast-hmac"

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError(f"FastMac requires a 16-byte key, got {len(key)}")
        # HMAC (RFC 2104) with the key pads absorbed once: each tag
        # copies the two pre-keyed SHA-256 states instead of building
        # a new ``hmac`` object.
        block = key.ljust(hashlib.sha256().block_size, b"\0")
        self._inner = hashlib.sha256(bytes(b ^ 0x36 for b in block))
        self._outer = hashlib.sha256(bytes(b ^ 0x5C for b in block))

    def tag(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:MAC_SIZE]

    def verify(self, message: bytes, tag: bytes) -> bool:
        return hmac.compare_digest(self.tag(message), tag)
