"""A bounded, content-keyed memo in front of a MAC provider.

The §3.4 check MACs the same bytes over and over: at trap k+1 the
memory checker verifies exactly the ``(lastBlock, counter)`` tag the
kernel itself wrote at trap k, and since counters start at 0 in every
process and a forked child copies its parent's counter, sibling
processes present identical state payloads, call MACs and string
contents.  A MAC is a deterministic function of the message under one
key, so :class:`MacMemo` computes each distinct tag once and answers
repeats from a dict.

The memo is keyed on the full message bytes and holds nothing else —
no site, pid or counter — so every accept/reject decision is the one
the wrapped provider would make.  It is bounded by entry count and by
retained message bytes; reaching either bound clears it in one step
(the flush-not-evict idiom of ``VerifierJit.MAX_SITES``).
"""

from __future__ import annotations

import hmac

from repro.crypto.keyring import MacProvider


class MacMemo:
    """Any :class:`MacProvider`, with each distinct tag computed once.

    >>> from repro.crypto import FastMac
    >>> memo = MacMemo(FastMac(bytes(16)))
    >>> memo.verify(b"hello", memo.tag(b"hello"))
    True
    >>> (memo.hits, memo.misses, len(memo))
    (1, 1, 1)
    """

    #: Entries held before the memo is flushed.
    CAPACITY = 4096
    #: Message bytes held before the memo is flushed: a guest presenting
    #: many large forged strings cannot pin more host memory than this
    #: (plus one message).
    MAX_BYTES = 1 << 22

    def __init__(self, inner: MacProvider):
        self.inner = inner
        self.name = inner.name
        self._tags: dict[bytes, bytes] = {}
        self._bytes = 0
        #: Plain-int tallies; the kernel folds them into its registry
        #: (``crypto.memo_hits``/``memo_misses``) and zeroes them at
        #: process teardown, so the trap path pays only the increment.
        self.hits = 0
        self.misses = 0

    def tag(self, message: bytes) -> bytes:
        key = bytes(message)
        tags = self._tags
        tag = tags.get(key)
        if tag is not None:
            self.hits += 1
            return tag
        self.misses += 1
        tag = self.inner.tag(key)
        if len(tags) >= self.CAPACITY or self._bytes + len(key) > self.MAX_BYTES:
            tags.clear()
            self._bytes = 0
        tags[key] = tag
        self._bytes += len(key)
        return tag

    def verify(self, message: bytes, tag: bytes) -> bool:
        return hmac.compare_digest(self.tag(message), tag)

    def __len__(self) -> int:
        return len(self._tags)
