"""A primed MAC memo cannot rescue a replayed policy state.

The kernel-wide memo holds genuine tags of earlier ``(lastBlock,
counter)`` payloads — a process's own past states and its siblings'.
Replaying such a once-valid lastBlock/lbMAC must still be a policy-state
MAC mismatch: the memo answers "what is the tag of this payload", and
the payload carries the victim's *current* counter.
"""

import pytest

import repro.attacks.crossproc as crossproc
from repro.attacks.crossproc import _looper_binary, cross_process_replay_attack
from repro.binfmt import link
from repro.crypto import Key, MacMemo
from repro.installer import InstallerOptions, install
from repro.kernel import Kernel
from repro.kernel.config import configs_named
from repro.policy.record import pack_policy_state, read_policy_state, state_mac_payload

CONFIGS = configs_named(["interp", "chained"])


@pytest.fixture(scope="module")
def key():
    return Key.from_passphrase("memo-replay")


def _recording_rejects(memo: MacMemo) -> list:
    """Shadow ``memo.verify`` on the instance; for every rejection,
    record whether the memo already held the tag the check expected
    (answered without a real MAC) and the tag the guest presented."""
    original = memo.verify
    rejects: list[tuple[bool, bool]] = []

    def verify(message, tag):
        misses = memo.misses
        presented_memoized = bytes(tag) in memo._tags.values()
        ok = original(message, tag)
        if not ok:
            rejects.append((memo.misses == misses, presented_memoized))
        return ok

    memo.verify = verify
    return rejects


def _run_until(vm, process, counter: int) -> None:
    while process.auth_counter < counter and vm.exit_status is None:
        vm.run_slice(40)
    assert vm.exit_status is None, vm.kill_reason


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_stale_own_polstate_still_killed(key, config):
    installed = install(_looper_binary(iterations=12), key, InstallerOptions())
    polstate = link(installed.binary).address_of("__asc_polstate")
    kernel = Kernel(key=key, **config.kernel_kwargs())
    memo = kernel.mac
    process, vm = kernel.load(installed.binary)

    _run_until(vm, process, 3)
    stale_counter = process.auth_counter
    last_block, stale_mac = read_policy_state(vm.memory, polstate)
    _run_until(vm, process, stale_counter + 4)

    # The memo holds the stale state's genuine tag: no real MAC needed.
    misses = memo.misses
    assert memo.verify(state_mac_payload(last_block, stale_counter), stale_mac)
    assert memo.misses == misses

    rejects = _recording_rejects(memo)
    vm.memory.write(polstate, pack_policy_state(last_block, stale_mac), force=True)
    while vm.exit_status is None:
        vm.run_slice(1000)
    kernel.release_process(process, vm)

    assert vm.killed
    assert "policy state MAC mismatch" in vm.kill_reason
    # The thunk and the generic checker each rejected the replay, with
    # both the expected and the presented tag already in the memo.
    assert rejects and all(expected and presented for expected, presented in rejects)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_cross_process_replay_with_shared_memo(key, config, monkeypatch):
    captured: list[tuple[Kernel, list]] = []
    prepare = crossproc._prepare_kernel

    def capture(key, config):
        kernel = prepare(key, config)
        captured.append((kernel, _recording_rejects(kernel.mac)))
        return kernel

    monkeypatch.setattr(crossproc, "_prepare_kernel", capture)
    result = cross_process_replay_attack(key, config)

    assert result.blocked
    assert "policy state MAC mismatch" in result.kill_reason
    ((kernel, rejects),) = captured
    # The transplanted lbMAC is a genuine tag the donor sibling wrote,
    # so the shared memo held it; the check rejected it all the same.
    assert kernel.metrics.get("crypto.memo_hits") > 0
    assert rejects and all(presented for _, presented in rejects)
