import pytest

from perfbench import gen

WORKLOADS = ("sweep-timing", "sweep-functional", "serve-mixed")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert gen.inputs_bytes(workload, 3) == gen.inputs_bytes(workload, 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_give_different_inputs(workload):
    assert gen.inputs_bytes(workload, 3) != gen.inputs_bytes(workload, 4)


def test_sweep_rounds_have_fifteen_distinct_cells():
    for cells in (gen.timing_cells(5), gen.functional_cells(5)):
        assert len(cells) == gen.CELLS_PER_ROUND
        assert len({cell.ident for cell in cells}) == gen.CELLS_PER_ROUND
        assert {cell.image_seed for cell in cells} == {5}


def test_functional_cells_cover_every_representative():
    cells = gen.functional_cells(1)
    per_image = {}
    for cell in cells:
        per_image[cell.benchmark] = per_image.get(cell.benchmark, 0) + 1
    assert set(per_image) == set(gen.FUNCTIONAL_BENCHMARKS)
    assert set(per_image.values()) <= {2, 3}


def test_timing_baseline_has_no_content_prefetcher():
    for cell in gen.timing_cells(1):
        enabled = cell.machine.content.enabled
        assert enabled == (not cell.ident.endswith("/baseline"))


def test_serve_plan_mix():
    plan = gen.serve_plan(2)
    assert len(plan.pool) == gen.POOL_SIZE
    assert len(plan.streams) == gen.CLIENTS
    cold_seeds = [item.seed for stream in plan.streams
                  for kind, item in stream if kind == "cold"]
    pool_seeds = {request.seed for request in plan.pool}
    assert len(cold_seeds) == len(set(cold_seeds))
    assert not pool_seeds & set(cold_seeds)
    for stream in plan.streams:
        for start in range(0, len(stream), gen.COLD_ONE_IN):
            block = stream[start:start + gen.COLD_ONE_IN]
            assert [kind for kind, _ in block].count("cold") == 1
