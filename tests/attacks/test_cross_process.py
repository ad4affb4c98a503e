"""The cross-process attack battery must be fully blocked."""

import pytest

from repro.attacks import run_cross_process_attacks
from repro.attacks.crossproc import (
    cross_process_replay_attack,
    fork_counter_confusion_attack,
    pipe_fed_tamper_attack,
)
from repro.crypto import Key
from repro.kernel.config import configs_named


@pytest.fixture(scope="module")
def key():
    return Key.generate()


class TestCrossProcessAttacks:
    def test_cross_process_replay_blocked(self, key):
        result = cross_process_replay_attack(key)
        assert result.blocked
        assert "policy state MAC" in result.kill_reason

    def test_fork_counter_confusion_blocked(self, key):
        result = fork_counter_confusion_attack(key)
        assert result.blocked
        assert "policy state MAC" in result.kill_reason

    def test_pipe_fed_tamper_blocked(self, key):
        result = pipe_fed_tamper_attack(key)
        assert result.blocked
        assert "unauthenticated" in result.kill_reason

    def test_battery_engine_and_fastpath_independent(self, key):
        """Verdicts are a security property: identical under the
        interpreter, with the chained engine, and with the fast path
        off."""
        for config in configs_named(["interp", "chained", "no-fastpath"]):
            results = run_cross_process_attacks(key, config)
            assert [r.blocked for r in results] == [True, True, True], (
                config.name)

    def test_single_process_battery_shape_unchanged(self, key):
        """run_all_attacks keeps its published 7-scenario shape; the
        cross-process battery is additive."""
        from repro.attacks import run_all_attacks

        assert len(run_all_attacks(key)) == 7
        assert len(run_cross_process_attacks(key)) == 3
