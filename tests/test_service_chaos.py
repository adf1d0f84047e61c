"""Infrastructure chaos suite: the crash-only guarantees, end to end.

An :func:`~repro.faults.infra.infra_storm` profile SIGKILLs workers
mid-job, wedges heartbeats, and corrupts store entries between put and
get — while a full batch of simulations runs through the supervised
service.  The assertions are the tier's whole contract:

* every result computed under the storm is **digest-identical** to the
  clean run's (retries and recomputation never change answers — the
  content-addressed analogue of the paper's stateless-prefetcher
  correctness argument);
* the scrubber finds **every** injected corruption, quarantines it
  (never deletes), and repairs each entry whose fingerprint survived;
* the failure taxonomy the storm generated is visible in the persisted
  service counters.

Scale with ``REPRO_CHAOS_JOBS`` (default 6; CI smoke uses 4).
"""

import asyncio
import dataclasses
import json
import os

import pytest

from repro.faults.infra import ChaosStore, InfraChaosConfig, infra_storm
from repro.params import MachineConfig
from repro.service import ServiceSession, SimRequest, request_digest
from repro.service.scheduler import SimulationService
from repro.snapshot.digest import state_digest

pytestmark = pytest.mark.integrity

SCALE = 0.02
JOBS = int(os.environ.get("REPRO_CHAOS_JOBS", "6"))


def _requests():
    return [
        SimRequest(
            machine=MachineConfig(), benchmark="b2b", scale=SCALE,
            seed=seed, mode="functional",
        )
        for seed in range(1, JOBS + 1)
    ]


def _result_digest(result) -> str:
    return state_digest(dataclasses.asdict(result))


def _drive(coroutine):
    return asyncio.run(coroutine)


class TestStormConvergence:
    def test_storm_results_digest_identical_to_clean_run(self, tmp_path):
        requests = _requests()

        async def clean():
            service = SimulationService(str(tmp_path / "clean"))
            results = await service.run_batch(requests)
            await service.shutdown()
            return [_result_digest(r) for r in results]

        async def stormy():
            profile = infra_storm(seed=17)
            store = ChaosStore(str(tmp_path / "storm"), profile)
            service = SimulationService(
                store, max_workers=2, worker_mode="fabric",
                retries=10, stall_timeout=1.0, chaos=profile,
                breaker_threshold=None,
            )
            results = await asyncio.wait_for(
                service.run_batch(requests), 540
            )
            status = service.status()
            await service.shutdown()
            return [_result_digest(r) for r in results], status, store

        clean_digests = _drive(clean())
        storm_digests, status, store = _drive(stormy())
        assert storm_digests == clean_digests
        # The storm must have actually stormed, or this test proves
        # nothing: at least one worker fault or store corruption.
        assert (status.worker_deaths + len(store.corrupted)) >= 1

    def test_scrubber_finds_and_repairs_injected_corruption(self, tmp_path):
        requests = _requests()
        profile = InfraChaosConfig(
            seed=11, store_corrupt_rate=0.5, store_truncate_fraction=0.3
        )
        store = ChaosStore(str(tmp_path / "cache"), profile)
        service = SimulationService(store, max_workers=2,
                                    breaker_threshold=None)
        session = ServiceSession(service=service)
        with session:
            session.run_batch(requests)
            assert store.corrupted, "corruption rate too low to test"
            store.armed = False  # the faulty disk is replaced ...
            report = session.scrub(repair=True)  # ... then scrubbed

        flips = {d for d, m in store.corrupted.items() if m == "flip"}
        truncations = {d for d, m in store.corrupted.items()
                       if m == "truncate"}
        # Every injected corruption was found and quarantined ...
        found = {entry["digest"] for entry in report.entries}
        assert found == flips | truncations
        # ... nothing was deleted: quarantine holds one file per fault ...
        qdir = store.quarantine_dir
        quarantined_files = [name for name in os.listdir(qdir)
                             if name.endswith(".res")]
        assert len(quarantined_files) == len(store.corrupted)
        # ... flipped entries (intact fingerprint) were all repaired,
        # truncated ones (no fingerprint survives) degrade to a future
        # cache miss — which content-addressing makes correctness-free.
        assert report.repaired == len(flips)
        assert report.unrepaired == len(truncations)
        for digest in flips:
            assert digest in store

    def test_repaired_entries_serve_correct_results(self, tmp_path):
        requests = _requests()
        profile = InfraChaosConfig(
            seed=11, store_corrupt_rate=0.5, store_truncate_fraction=0.0
        )
        store = ChaosStore(str(tmp_path / "cache"), profile)
        service = SimulationService(store, max_workers=2,
                                    breaker_threshold=None)
        session = ServiceSession(service=service)
        with session:
            originals = session.run_batch(requests)
            store.armed = False
            session.scrub(repair=True)
            # Every request must now be a cache hit serving the same
            # result the original computation produced.
            hits_before = store.stats.hits
            replayed = session.run_batch(requests)
        assert replayed == originals
        assert store.stats.hits - hits_before == len(requests)


class TestStormObservability:
    def test_persisted_counters_reflect_the_storm(self, tmp_path):
        requests = _requests()
        profile = infra_storm(seed=23)

        async def scenario():
            store = ChaosStore(str(tmp_path / "cache"), profile)
            service = SimulationService(
                store, max_workers=2, worker_mode="fabric",
                retries=10, stall_timeout=1.0, chaos=profile,
                breaker_threshold=None,
            )
            await asyncio.wait_for(service.run_batch(requests), 540)
            status = service.status()
            await service.shutdown()
            return status

        status = _drive(scenario())
        stats_path = tmp_path / "cache" / "service-stats.json"
        data = json.loads(stats_path.read_text())
        assert data["failure_codes"] == status.failure_codes
        assert data["completed"] == len(requests)
        infra_failures = sum(
            count for code, count in status.failure_codes.items()
            if code in ("worker_crashed", "worker_stalled", "timeout")
        )
        assert infra_failures == status.worker_deaths
