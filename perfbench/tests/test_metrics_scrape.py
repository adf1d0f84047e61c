import asyncio

from repro.service.http import ServiceHTTPServer
from repro.service.scheduler import SimulationService

from perfbench.serve import metric_total, parse_metrics, server_counters

SAMPLE = """\
# HELP repro_service_store_hits_total result-store lookups served
# TYPE repro_service_store_hits_total counter
repro_service_store_hits_total 12
repro_service_queue_high_water 3
repro_service_failures_total{code="worker_crashed"} 2
repro_service_http_requests_total{method="GET",status="200"} 40
repro_service_http_requests_total{method="POST",status="429"} 5
repro_service_http_requests_total{method="GET",status="503"} 1
repro_service_retry_after_seconds 0.5
"""


def test_parse_metrics_reads_labels_and_values():
    samples = parse_metrics(SAMPLE)
    assert samples[("repro_service_store_hits_total", ())] == 12.0
    key = ("repro_service_http_requests_total",
           (("method", "POST"), ("status", "429")))
    assert samples[key] == 5.0
    assert metric_total(samples, "repro_service_http_requests_total") == 46
    assert metric_total(
        samples, "repro_service_http_requests_total",
        lambda labels: labels["method"] == "GET") == 41


def test_server_counters_are_deltas():
    before = parse_metrics(SAMPLE)
    after = parse_metrics(
        SAMPLE.replace("hits_total 12", "hits_total 30")
        .replace('status="429"} 5', 'status="429"} 7')
        .replace('"worker_crashed"} 2', '"worker_crashed"} 3'))
    counters, by_code = server_counters(before, after)
    assert counters["service.store.hits"] == 18
    assert counters["service.scheduler.queue_high_water"] == 3
    assert counters["service.scheduler.failures"] == 1
    assert counters["service.http.responses_4xx"] == 2
    assert counters["service.http.responses_5xx"] == 0
    assert by_code["failures.worker_crashed"] == 1
    assert by_code["http.POST.429"] == 2
    assert by_code["http.GET.503"] == 0


def test_scrape_of_a_real_service(tmp_path):
    async def render():
        service = SimulationService(store=str(tmp_path / "store"))
        try:
            return ServiceHTTPServer(service, port=0).render_metrics()
        finally:
            await service.shutdown()

    samples = parse_metrics(asyncio.run(render()))
    counters, _ = server_counters(samples, samples)
    assert ("repro_service_store_hits_total", ()) in samples
    assert ("repro_service_queue_high_water", ()) in samples
    assert counters["service.store.hits"] == 0
