"""Every attack entry point runs exactly the configuration it is given.

Each battery is run once per :data:`repro.kernel.config.CONFIGS` entry
with spies on ``Kernel.__init__`` and ``VM.__init__``; every kernel and
every guest CPU an entry point builds — dry runs included — must carry
that config's ``engine`` and ``fastpath``.
"""

import functools

import pytest

from repro.attacks import crossproc, netattacks, scenarios
from repro.cpu.vm import VM
from repro.crypto import Key
from repro.kernel import Kernel
from repro.kernel.config import CONFIGS

KEY = Key.from_passphrase("config-plumbing", provider="fast-hmac")

#: (module, battery, entry points the battery calls).
BATTERIES = [
    (scenarios, "run_all_attacks", (
        "shellcode_attack", "mimicry_attack", "non_control_data_attack",
        "frankenstein_attack", "replay_attack",
    )),
    (crossproc, "run_cross_process_attacks", (
        "cross_process_replay_attack", "fork_counter_confusion_attack",
        "pipe_fed_tamper_attack",
    )),
    (netattacks, "run_net_attacks", (
        "accept_replay_attack", "socket_state_reuse_attack",
        "tampered_send_attack",
    )),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.name)
@pytest.mark.parametrize(
    "module, battery, entry_points",
    [pytest.param(*entry, id=entry[1]) for entry in BATTERIES],
)
def test_every_kernel_carries_the_config(
    monkeypatch, config, module, battery, entry_points
):
    active: list[str] = []
    seen: list[tuple] = []  # (entry point, "kernel"|"vm", flags)

    def entered(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            active.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    for name in entry_points:
        monkeypatch.setattr(module, name, entered(name, getattr(module, name)))

    kernel_init, vm_init = Kernel.__init__, VM.__init__

    def kernel_spy(self, *args, **kwargs):
        kernel_init(self, *args, **kwargs)
        seen.append((active[-1], "kernel", (self.engine, self.fastpath)))

    def vm_spy(self, *args, **kwargs):
        vm_init(self, *args, **kwargs)
        seen.append((active[-1], "vm", (self.engine,)))

    monkeypatch.setattr(Kernel, "__init__", kernel_spy)
    monkeypatch.setattr(VM, "__init__", vm_spy)

    results = getattr(module, battery)(KEY, config)

    assert results
    expected = {
        "kernel": (config.engine, config.fastpath),
        "vm": (config.engine,),
    }
    wrong = [entry for entry in seen if entry[2] != expected[entry[1]]]
    assert wrong == []
    for name in entry_points:
        assert (name, "kernel") in {(entry[0], entry[1]) for entry in seen}, name
