"""OMAC1 (CMAC) over AES-128.

The paper uses "AES-CBC-OMAC" [Iwata & Kurosawa 2002], which produces a
128-bit message authentication code; OMAC1 was later standardised as
CMAC (RFC 4493, NIST SP 800-38B).  The unit tests check the RFC 4493
vectors, so this implementation is interoperable with any standard CMAC.

The chaining XORs work on 128-bit Python ints, so the per-block cost
outside the cipher is two int conversions.  With the verification fast
path on, the kernel reaches this class only through
:class:`repro.crypto.memo.MacMemo`, which computes each distinct tag
once; the installer and ``--no-fastpath`` call it directly.
"""

from __future__ import annotations

import hmac
from typing import Optional

from repro.crypto.aes import AES, BLOCK_SIZE, TableAES

MAC_SIZE = 16

_R128 = 0x87  # the constant for doubling in GF(2^128)


def _dbl(block: bytes) -> bytes:
    """Double a 128-bit value in GF(2^128) (left shift, conditional xor)."""
    value = int.from_bytes(block, "big")
    value <<= 1
    if value >> 128:
        value = (value & ((1 << 128) - 1)) ^ _R128
    return value.to_bytes(16, "big")


class AesCmac:
    """Stateless CMAC tag generation and verification.

    >>> mac = AesCmac(bytes(16))
    >>> tag = mac.tag(b"hello")
    >>> mac.verify(b"hello", tag)
    True
    >>> mac.verify(b"hellp", tag)
    False

    The block cipher defaults to the table-driven :class:`TableAES`;
    pass ``cipher=AES(key)`` to run over the byte-cell reference
    implementation instead (the equivalence tests do exactly that).
    """

    name = "aes-cmac"

    def __init__(self, key: bytes, cipher: Optional[AES] = None):
        self._aes = cipher if cipher is not None else TableAES(key)
        zero = self._aes.encrypt_block(bytes(BLOCK_SIZE))
        self._k1 = _dbl(zero)
        self._k2 = _dbl(self._k1)

    def tag(self, message: bytes) -> bytes:
        """Compute the 16-byte CMAC tag of ``message``."""
        n_blocks = max(1, (len(message) + BLOCK_SIZE - 1) // BLOCK_SIZE)
        last_start = (n_blocks - 1) * BLOCK_SIZE
        tail = bytes(message[last_start:])
        if len(tail) == BLOCK_SIZE:
            last = int.from_bytes(tail, "big") ^ int.from_bytes(self._k1, "big")
        else:
            padded = tail + b"\x80" + bytes(BLOCK_SIZE - 1 - len(tail))
            last = int.from_bytes(padded, "big") ^ int.from_bytes(self._k2, "big")
        encrypt = self._aes.encrypt_block
        state = 0
        for start in range(0, last_start, BLOCK_SIZE):
            block = int.from_bytes(message[start : start + BLOCK_SIZE], "big")
            state = int.from_bytes(encrypt((state ^ block).to_bytes(16, "big")), "big")
        return encrypt((state ^ last).to_bytes(16, "big"))

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time comparison against the expected tag."""
        return hmac.compare_digest(self.tag(message), tag)
