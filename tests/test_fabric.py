"""Fabric coordinator: pool protocol, stealing, drain, crash respawn.

The coordinator-level tests drive :class:`FabricCoordinator` directly
with raw job specs (the same dicts the scheduler builds); the
service-level test proves the whole point of the drop-in protocol —
results through the fabric are bit-identical to thread-mode results,
so the scheduler genuinely does not care which pool it drives.
"""

import asyncio
import pickle
import time

import pytest

from repro.params import MachineConfig
from repro.service import SimRequest, SimulationService, request_digest
from repro.service.fabric import FabricCoordinator
from repro.service.workers import (
    JobExecutionError,
    WorkerCrashed,
    make_job_spec,
)

SCALE = 0.02


def _request(seed=1, **kwargs):
    defaults = dict(
        machine=MachineConfig(), benchmark="b2c", scale=SCALE,
        seed=seed, mode="functional",
    )
    defaults.update(kwargs)
    return SimRequest(**defaults)


def _spec(request):
    return make_job_spec(request, request_digest(request), None)


def _wait(future, timeout=120.0):
    return future.result(timeout=timeout)


class TestCoordinator:
    def test_executes_jobs_and_steals_from_hot_backlogs(self):
        fabric = FabricCoordinator(max_workers=3)
        try:
            # One workload => one affinity bucket: every job routes to
            # the same cell, so the idle siblings must steal to help.
            futures = [
                fabric.submit(_spec(_request(seed=1)))
                for _ in range(9)
            ]
            results = [_wait(f) for f in futures]
            assert all(r is not None for r in results)
            done = sum(w["jobs_done"] for w in fabric.workers())
            assert done == 9
            assert fabric.steals > 0
            assert sum(
                1 for w in fabric.workers() if w["jobs_done"] > 0
            ) >= 2
        finally:
            fabric.shutdown()

    def test_clean_sim_errors_relay_as_job_execution_error(self):
        fabric = FabricCoordinator(max_workers=1)
        try:
            future = fabric.submit(
                _spec(_request(benchmark="no-such-benchmark"))
            )
            with pytest.raises(JobExecutionError):
                _wait(future)
            # The worker survives a clean error and keeps serving.
            assert _wait(fabric.submit(_spec(_request()))) is not None
            assert fabric.respawns == 0
        finally:
            fabric.shutdown()

    def test_kill_fails_inflight_with_code_and_respawns(self):
        fabric = FabricCoordinator(max_workers=1)
        try:
            request = _request(mode="timing")
            future = fabric.submit(_spec(request))
            digest = request_digest(request)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if fabric.kill(digest, "worker_stalled"):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("job never became killable")
            with pytest.raises(WorkerCrashed) as crash:
                _wait(future)
            assert crash.value.code == "worker_stalled"
            # Respawned: the fabric still has a live worker that works.
            deadline = time.monotonic() + 30
            while fabric.live_workers() < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert _wait(fabric.submit(_spec(_request()))) is not None
            assert fabric.respawns == 1
        finally:
            fabric.shutdown()

    def test_drain_worker_finishes_without_dropping_work(self):
        fabric = FabricCoordinator(max_workers=2)
        try:
            futures = [
                fabric.submit(_spec(_request(seed=seed)))
                for seed in range(1, 7)
            ]
            victim = fabric.workers()[0]["name"]
            assert fabric.drain_worker(victim)
            assert not fabric.drain_worker(victim)  # already draining
            results = [_wait(f) for f in futures]
            assert all(r is not None for r in results)
            deadline = time.monotonic() + 30
            while fabric.live_workers() > 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert fabric.drained == 1
        finally:
            fabric.shutdown()

    def test_never_drains_the_last_live_worker(self):
        fabric = FabricCoordinator(max_workers=1)
        try:
            assert not fabric.drain_worker("w0")
            assert fabric.live_workers() == 1
        finally:
            fabric.shutdown()

    def test_unfired_chaos_kill_does_not_outlive_its_job(self):
        # Job A's chaos decision is a kill 0.5 s in, but A (on a warm
        # image) finishes long before that.  The persistent worker then
        # runs B, which has no chaos at all and spends longer than that
        # building a fresh image: the kill must have been disarmed with
        # A, not land on B.
        fabric = FabricCoordinator(max_workers=1)
        try:
            assert _wait(fabric.submit(_spec(_request()))) is not None
            pid = fabric.workers()[0]["pid"]
            job_a = _spec(_request())
            job_a["chaos"] = {
                "seed": 0, "kill_rate": 1.0, "kill_delay": (0.5, 0.5),
            }
            armed_at = time.monotonic()
            assert _wait(fabric.submit(job_a)) is not None
            assert time.monotonic() - armed_at < 0.5, "A outran its kill"
            job_b = fabric.submit(
                _spec(_request(benchmark="b2b", scale=0.03, seed=5))
            )
            assert _wait(job_b)[0] == "done"
            time.sleep(max(0.0, armed_at + 0.7 - time.monotonic()))
            assert fabric.respawns == 0
            assert fabric.workers()[0]["pid"] == pid
            assert fabric.live_workers() == 1
        finally:
            fabric.shutdown()

    def test_shutdown_fails_stranded_futures(self):
        fabric = FabricCoordinator(max_workers=1)
        stuck = fabric.submit(_spec(_request(mode="timing", scale=0.05)))
        backlog = [
            fabric.submit(_spec(_request(seed=seed)))
            for seed in range(2, 5)
        ]
        fabric.shutdown(wait=False)
        for future in [stuck] + backlog:
            assert future.done()
            try:
                future.result(timeout=0)
            except WorkerCrashed:
                pass  # stranded or killed: both resolve, never dangle


class TestFabricThroughScheduler:
    def test_results_are_identical_to_thread_mode(self, tmp_path):
        requests = [_request(seed=seed) for seed in range(1, 5)]

        async def run(worker_mode, directory):
            service = SimulationService(
                str(directory), max_workers=2, worker_mode=worker_mode,
                breaker_threshold=None,
            )
            results = await asyncio.wait_for(
                service.run_batch(requests), 300
            )
            status = service.status()
            await service.shutdown()
            return results, status

        thread_results, _ = asyncio.run(run("thread", tmp_path / "t"))
        fabric_results, status = asyncio.run(run("fabric", tmp_path / "f"))
        assert ([pickle.dumps(r) for r in fabric_results]
                == [pickle.dumps(r) for r in thread_results])
        assert status.completed == len(requests)
        assert status.worker_mode == "fabric"

    def test_fabric_second_run_serves_cache_hits(self, tmp_path):
        requests = [_request(seed=seed) for seed in range(1, 4)]

        async def run_twice():
            service = SimulationService(
                str(tmp_path), max_workers=2, worker_mode="fabric",
            )
            first = await asyncio.wait_for(
                service.run_batch(requests), 300)
            await service.shutdown()
            service = SimulationService(
                str(tmp_path), max_workers=2, worker_mode="fabric",
            )
            second = await asyncio.wait_for(
                service.run_batch(requests), 300)
            status = service.status()
            await service.shutdown()
            return first, second, status

        first, second, status = asyncio.run(run_twice())
        assert [pickle.dumps(r) for r in first] \
            == [pickle.dumps(r) for r in second]
        assert status.cache_hits == len(requests)
        assert status.executed == 0
