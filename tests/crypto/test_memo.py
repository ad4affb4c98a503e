"""The kernel's MAC memo answers exactly as the provider it wraps.

A MAC is a deterministic function of the message under one key, so
memoizing it may change host time only: every tag, every verify
verdict (wrong-length and flipped tags included) and every input type
the raw provider accepts must come back identical, before and after
the memo flushes at its capacity.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.crypto as crypto
from repro.crypto import AesCmac, FastMac, Key, MacMemo, TableAES
from repro.installer import InstallerOptions, install
from repro.kernel import Kernel

from repro.attacks.crossproc import _forker_binary, _looper_binary

PROVIDERS = (AesCmac, FastMac)

keys = st.binary(min_size=16, max_size=16)
messages = st.binary(max_size=80)
wrappers = st.sampled_from((bytes, bytearray, memoryview))


def _pair(provider, key):
    return provider(key), MacMemo(provider(key))


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.name)
class TestAgreesWithRawProvider:
    @given(key=keys, message=messages, wrap=wrappers)
    def test_tag(self, provider, key, message, wrap):
        raw, memo = _pair(provider, key)
        expected = raw.tag(message)
        assert memo.tag(wrap(message)) == expected
        assert raw.tag(wrap(message)) == expected
        assert memo.tag(message) == expected  # the memoized answer

    @given(key=keys, message=messages, wrap=wrappers,
           flip=st.integers(min_value=0, max_value=127))
    def test_verify_genuine_and_flipped(self, provider, key, message, wrap, flip):
        raw, memo = _pair(provider, key)
        genuine = raw.tag(message)
        flipped = bytearray(genuine)
        flipped[flip // 8] ^= 1 << (flip % 8)
        for tag in (genuine, bytes(flipped), flipped, memoryview(genuine)):
            for _ in range(2):  # miss, then hit
                assert memo.verify(wrap(message), tag) == raw.verify(wrap(message), tag)
        assert memo.verify(message, genuine)
        assert not memo.verify(message, bytes(flipped))

    @given(key=keys, message=messages, cut=st.integers(min_value=0, max_value=15),
           extra=st.binary(min_size=1, max_size=4))
    def test_verify_wrong_length(self, provider, key, message, cut, extra):
        raw, memo = _pair(provider, key)
        genuine = raw.tag(message)
        for tag in (genuine[:cut], genuine + extra, b""):
            assert memo.verify(message, tag) is raw.verify(message, tag) is False

    @given(key=keys, message=messages, tag=st.binary(max_size=20))
    def test_verify_arbitrary_tag(self, provider, key, message, tag):
        raw, memo = _pair(provider, key)
        assert memo.verify(message, tag) == raw.verify(message, tag)


class TestBounds:
    def test_capacity_flush_keeps_answers_correct(self):
        raw, memo = _pair(FastMac, bytes(range(16)))
        total = MacMemo.CAPACITY + 300
        for index in range(total):
            message = index.to_bytes(4, "big")
            assert memo.tag(message) == raw.tag(message)
            assert len(memo) <= MacMemo.CAPACITY
        # Early messages were flushed; they recompute to the same tag.
        for index in (0, 1, MacMemo.CAPACITY - 1, total - 1):
            message = index.to_bytes(4, "big")
            assert memo.verify(message, raw.tag(message))
            assert len(memo) <= MacMemo.CAPACITY
        assert memo.misses > total

    def test_byte_budget_flush(self):
        raw, memo = _pair(FastMac, bytes(16))
        size = 1 << 16
        count = MacMemo.MAX_BYTES // size + 8
        for index in range(count):
            message = index.to_bytes(4, "big") * (size // 4)
            assert memo.tag(message) == raw.tag(message)
            assert sum(map(len, memo._tags)) <= MacMemo.MAX_BYTES
        assert len(memo) < count

    def test_hits_and_misses(self):
        memo = MacMemo(FastMac(bytes(16)))
        tag = memo.tag(b"a")
        memo.tag(bytearray(b"a"))
        memo.verify(memoryview(b"a"), tag)
        memo.verify(b"b", tag)
        assert (memo.hits, memo.misses, len(memo)) == (2, 2, 2)


def test_memo_exported():
    assert crypto.MacMemo is MacMemo
    assert crypto.TableAES is TableAES


class TestKernelWiring:
    def test_fastpath_kernel_memoizes(self):
        kernel = Kernel()
        assert isinstance(kernel.mac, MacMemo)
        assert isinstance(kernel.mac.inner, AesCmac)

    def test_no_fastpath_keeps_raw_provider(self):
        for provider, cls in (("aes-cmac", AesCmac), ("fast-hmac", FastMac)):
            kernel = Kernel(key=Key.generate(provider), fastpath=False)
            assert type(kernel.mac) is cls

    @pytest.mark.parametrize("program", ["looper", "forker"])
    def test_memo_misses_count_provider_calls(self, monkeypatch, program):
        """crypto.memo_misses is exactly the number of real MACs the
        kernel computed, and hits + misses every MAC it asked for."""
        key = Key.from_passphrase("memo-metrics")
        binary = (_looper_binary if program == "looper" else _forker_binary)()
        installed = install(binary, key, InstallerOptions())
        calls = {"inner": 0, "memo": 0}

        def counting(name, original):
            def tag(self, message):
                calls[name] += 1
                return original(self, message)
            return tag

        monkeypatch.setattr(AesCmac, "tag", counting("inner", AesCmac.tag))
        monkeypatch.setattr(MacMemo, "tag", counting("memo", MacMemo.tag))
        kernel = Kernel(key=key)
        if program == "looper":
            assert kernel.run(installed.binary).ok
        else:
            multi = kernel.run_many([installed.binary], timeslice=800)
            assert all(not task.killed for task in multi.scheduler.tasks.values())
        hits = kernel.metrics.get("crypto.memo_hits")
        misses = kernel.metrics.get("crypto.memo_misses")
        assert misses == calls["inner"] > 0
        assert hits + misses == calls["memo"]
        assert hits > 0
        assert kernel.mac.hits == kernel.mac.misses == 0  # folded at teardown
