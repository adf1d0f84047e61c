from types import SimpleNamespace

from perfbench.metrics import Outcome
from perfbench.sweeps import BYPASS_SHARE, check_bypass
from perfbench.tracing import GROUPS


def test_tail_with_ten_beyond_keeps_the_run_correct():
    outcome = Outcome()
    outcome.require_tail("tail_ms", 100, 90)
    outcome.require_tail("cached_p99_ms", 1000, 99)
    assert outcome.correct and outcome.notes == []


def test_tail_short_of_samples_rejects_the_run():
    outcome = Outcome()
    outcome.require_tail("cold_p90_ms", 99, 90)
    assert not outcome.correct
    assert "cold_p90_ms" in outcome.notes[0]
    assert outcome.failed == 0


def test_tail_without_samples_rejects_the_run():
    outcome = Outcome()
    outcome.require_tail("tail_ms", 0, 90)
    assert not outcome.correct


def _profiler(**shares):
    self_s = dict.fromkeys(GROUPS, 0.0)
    self_s.update({layer.replace("_", "."): share * 10.0
                   for layer, share in shares.items()})
    return SimpleNamespace(self_s=self_s, wall_s=10.0)


def test_bypassed_layers_within_share_pass():
    outcome = Outcome()
    check_bypass("sweep-functional",
                 _profiler(core_cpu=BYPASS_SHARE / 2), outcome)
    assert (outcome.attempted, outcome.failed) == (3, 0)
    assert all(note.startswith("bypass ok") for note in outcome.notes)


def test_bypass_violation_fails_an_operation():
    outcome = Outcome()
    check_bypass("sweep-timing", _profiler(core_functional=0.2), outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "VIOLATED" in outcome.notes[0]


def test_serve_mixed_has_no_bypass_check():
    outcome = Outcome()
    check_bypass("serve-mixed", _profiler(), outcome)
    assert (outcome.attempted, outcome.failed) == (0, 0)
