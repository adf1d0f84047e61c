import json

from repro.core.functional import FunctionalSimulator
from repro.experiments.common import model_machine, warmup_uops_for
from repro.workloads.suite import build_benchmark

from perfbench.checks import (
    DigestCheck,
    load_record,
    result_digest,
    save_record,
)


def _result():
    image = build_benchmark("b2c", scale=0.01, seed=1)
    simulator = FunctionalSimulator(model_machine(), image.memory)
    return simulator.run(image.trace, warmup_uops_for(image.trace))


def test_digest_check_catches_a_perturbed_result():
    result = _result()
    check = DigestCheck({"b2c/cell": result_digest(result)})
    assert check.check("b2c/cell", result_digest(result))
    result.demand_l1_misses += 1
    assert not check.check("b2c/cell", result_digest(result))
    assert [m[0] for m in check.mismatches] == ["b2c/cell"]


def test_digest_check_without_record_compares_repeats():
    check = DigestCheck(None)
    assert check.check("a", "d1")
    assert check.check("a", "d1")
    assert not check.check("a", "d2")
    assert check.missing() == []


def test_missing_recorded_ids_are_reported():
    check = DigestCheck({"a": "d1", "b": "d2"})
    check.check("a", "d1")
    assert check.missing() == ["b"]


def test_record_round_trip(tmp_path):
    path = str(tmp_path / "digests.json")
    assert load_record("w", 1, path) is None
    save_record("w", 1, {"x": "d"}, path)
    save_record("w", 2, {"y": "e"}, path)
    assert load_record("w", 1, path) == {"x": "d"}
    assert json.load(open(path))["w"]["2"] == {"y": "e"}


def test_recorded_default_and_held_out_seeds_exist():
    from perfbench.checks import DEFAULT_SEED, HELD_OUT_SEED

    for workload in ("sweep-timing", "sweep-functional", "serve-mixed"):
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            assert load_record(workload, seed), (workload, seed)
