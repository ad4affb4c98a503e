"""FastMac is truncated HMAC-SHA256, bit for bit.

The provider absorbs the HMAC key pads once per key and copies the two
pre-keyed hash states per tag; these tests pin that the shortcut gives
exactly the standard library's ``hmac`` answer, for empty messages,
messages shorter and longer than the 64-byte SHA-256 block, and
repeated tags on one instance (the pre-keyed states must never absorb
a message themselves).
"""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import FastMac
from repro.crypto.cmac import MAC_SIZE


def _reference(key: bytes, message: bytes) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()[:MAC_SIZE]


@given(
    key=st.binary(min_size=16, max_size=16),
    messages=st.lists(st.binary(max_size=200), min_size=1, max_size=4),
)
def test_tags_equal_truncated_hmac(key, messages):
    mac = FastMac(key)
    for message in messages:
        assert mac.tag(message) == _reference(key, message)


@pytest.mark.parametrize("length", [0, 1, 55, 63, 64, 65, 128, 1000])
def test_block_boundary_lengths(length):
    key = bytes(range(16))
    message = bytes((i * 7) & 0xFF for i in range(length))
    mac = FastMac(key)
    assert mac.tag(message) == _reference(key, message)
    assert mac.tag(message) == _reference(key, message)  # state reused
    assert mac.verify(message, _reference(key, message))


def test_instances_do_not_share_state():
    first, second = FastMac(bytes(16)), FastMac(b"\xff" * 16)
    first.tag(b"x" * 100)
    assert second.tag(b"") == _reference(b"\xff" * 16, b"")
    assert first.tag(b"") == _reference(bytes(16), b"")
