"""Tests for the shared failure taxonomy and retry backoff."""

from repro.failures import (
    CODE_SIM_ERROR,
    CODE_TIMEOUT,
    CODE_WORKER_CRASHED,
    CODE_WORKER_STALLED,
    INFRASTRUCTURE_CODES,
    JobFailure,
    is_infrastructure_code,
)


class TestFailureTaxonomy:
    def test_infrastructure_codes_cover_machinery_not_jobs(self):
        assert INFRASTRUCTURE_CODES == {
            CODE_TIMEOUT, CODE_WORKER_CRASHED, CODE_WORKER_STALLED,
        }
        assert not is_infrastructure_code(CODE_SIM_ERROR)
        assert all(is_infrastructure_code(c) for c in INFRASTRUCTURE_CODES)

    def test_job_failure_defaults_to_sim_error(self):
        failure = JobFailure("b2c", "boom", 1)
        assert failure.code == "sim_error"
        assert not failure.infrastructure
