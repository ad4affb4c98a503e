"""Cryptographic substrate for authenticated system calls.

The paper's prototype links Brian Gladman's combined AES
encryption/authentication library into the kernel and uses the
AES-CBC-OMAC (OMAC1, a.k.a. CMAC) message authentication code, which
produces 128-bit tags.  This package provides a from-scratch,
pure-Python equivalent:

- :mod:`repro.crypto.aes` -- AES-128 block cipher (FIPS-197).
- :mod:`repro.crypto.cmac` -- OMAC1/CMAC over AES (RFC 4493 compatible).
- :mod:`repro.crypto.fastmac` -- a drop-in HMAC-SHA256-based MAC,
  truncated to 128 bits, for tests and large benchmark sweeps where the
  pure-Python AES would dominate wall-clock time.  The *simulated cycle
  cost* charged by the kernel is identical for both providers, so
  benchmark tables are unaffected by the choice.
- :mod:`repro.crypto.keyring` -- key generation and the installer/kernel
  key-sharing model (the key is available only to the installer and the
  kernel, never to applications).
- :mod:`repro.crypto.memo` -- :class:`MacMemo`, a bounded content-keyed
  memo in front of either provider: the kernel's fast path computes
  each distinct tag once.  A MAC is a deterministic function of the
  message, so the memo never changes a verification outcome.
"""

from repro.crypto.aes import AES, TableAES
from repro.crypto.cmac import AesCmac, MAC_SIZE
from repro.crypto.fastmac import FastMac
from repro.crypto.keyring import Key, KeyRing, MacProvider, mac_provider_for_key
from repro.crypto.memo import MacMemo

__all__ = [
    "AES",
    "AesCmac",
    "FastMac",
    "Key",
    "KeyRing",
    "MAC_SIZE",
    "MacMemo",
    "MacProvider",
    "TableAES",
    "mac_provider_for_key",
]
