"""Serving-tier benchmark: warm vs cold tenant latency, requests/sec.

The cleaning service's tentpole perf claim is that a *warm* tenant (live
session, primed engine caches) answers ``detect`` strictly faster than a
*cold* one (evicted, rehydrated from the registry: CSV re-read + cache
rebuild), and that the LRU manager plus the global ``compile_pattern_set``
memo keep a many-tenant daemon serving at interactive rates.

Asserted:

* warm ``detect`` median latency strictly below cold (post-eviction)
  ``detect`` median latency on the same tenant and data;
* both paths return bit-identical error sets.

Recorded as ``extra_info``: warm/cold medians, the warm/cold ratio, and a
requests-per-second figure over a round-robin of tenants served through one
bounded service (more tenants than live slots, so the rate includes
rehydration traffic).

Over HTTP, a detect that sends back the ``version`` of the client's copy
gets only what changed since; the last benchmark records, for an unchanged
tenant, the bytes of the whole reply and of the ``since`` reply and the
client's detect latency for each, and asserts that the ``since`` reply
carries no errors.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.datagen.suite import build_table
from repro.discovery.config import DiscoveryConfig
from repro.service import CleaningService, ConstraintRegistry, ServiceClient, start_server

CONFIG = DiscoveryConfig(min_support=4, min_coverage=0.05, generalize=False)


@pytest.fixture(scope="module")
def alumni_rows(repro_scale):
    table = build_table("T14", scale=max(0.25, repro_scale))
    relation = table.relation
    return list(relation.attribute_names), list(relation.iter_rows())


def _timed_detect(service, tenant):
    start = time.perf_counter()
    doc = service.detect(tenant)
    return time.perf_counter() - start, doc


def test_bench_warm_tenant_beats_cold(benchmark, tmp_path, alumni_rows):
    columns, rows = alumni_rows
    registry = ConstraintRegistry(tmp_path / "registry")

    def run():
        with CleaningService(registry, max_sessions=4, config=CONFIG) as service:
            service.load_tenant("alumni", columns=columns, rows=rows)
            service.discover("alumni")
            service.detect("alumni")  # prime the memoized report

            warm_times, cold_times = [], []
            warm_doc = cold_doc = None
            for _ in range(5):
                seconds, warm_doc = _timed_detect(service, "alumni")
                warm_times.append(seconds)
                # Evict: the next detect rehydrates from the registry and
                # rebuilds the session's engine caches from scratch.
                assert service.manager.evict("alumni")
                seconds, cold_doc = _timed_detect(service, "alumni")
                cold_times.append(seconds)
                service.detect("alumni")  # re-warm for the next iteration
            return warm_times, cold_times, warm_doc, cold_doc, service.stats()

    warm_times, cold_times, warm_doc, cold_doc, stats = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    warm = statistics.median(warm_times)
    cold = statistics.median(cold_times)

    assert warm_doc["errors"] == cold_doc["errors"], (
        "rehydrated tenant must detect bit-identically"
    )
    assert warm_doc["error_count"] > 0, "benchmark table must contain errors"
    assert warm < cold, (
        f"warm detect ({warm * 1e3:.2f} ms) must beat cold rehydration "
        f"({cold * 1e3:.2f} ms)"
    )
    assert stats["sessions"]["rehydrated"] >= 5

    benchmark.extra_info["rows"] = warm_doc["rows"]
    benchmark.extra_info["warm_detect_ms"] = round(warm * 1e3, 3)
    benchmark.extra_info["cold_detect_ms"] = round(cold * 1e3, 3)
    benchmark.extra_info["cold_over_warm"] = round(cold / warm, 2)


def test_bench_multi_tenant_throughput(benchmark, tmp_path, alumni_rows):
    columns, rows = alumni_rows
    tenant_count, live_slots, requests = 6, 3, 60
    registry = ConstraintRegistry(tmp_path / "registry")
    tenants = [f"tenant{i}" for i in range(tenant_count)]

    def run():
        with CleaningService(
            registry, max_sessions=live_slots, config=CONFIG
        ) as service:
            for tenant in tenants:
                service.load_tenant(tenant, columns=columns, rows=rows)
                service.discover(tenant)
            start = time.perf_counter()
            # Round-robin over twice the live bound: every request beyond the
            # first cycle alternates LRU hits with evict-and-rehydrate misses.
            for i in range(requests):
                doc = service.detect(tenants[i % tenant_count])
                assert doc["error_count"] > 0
            elapsed = time.perf_counter() - start
            return elapsed, service.stats()

    elapsed, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rate = requests / elapsed

    assert stats["sessions"]["live"] <= live_slots
    assert stats["sessions"]["evicted"] > 0, "bound must have forced evictions"

    benchmark.extra_info["tenants"] = tenant_count
    benchmark.extra_info["live_slots"] = live_slots
    benchmark.extra_info["requests"] = requests
    benchmark.extra_info["requests_per_second"] = round(rate, 1)
    benchmark.extra_info["rehydrated"] = stats["sessions"]["rehydrated"]
    benchmark.extra_info["evicted"] = stats["sessions"]["evicted"]
    benchmark.extra_info["detect_p95_ms"] = stats["endpoints"]["detect"].get(
        "p95_ms"
    )


def _detect_bytes(address, body: dict) -> bytes:
    connection = http.client.HTTPConnection(*address[:2], timeout=60)
    try:
        connection.request("POST", "/tenants/alumni/detect", json.dumps(body))
        return connection.getresponse().read()
    finally:
        connection.close()


def test_bench_detect_since_on_an_unchanged_tenant(benchmark, tmp_path, alumni_rows):
    columns, rows = alumni_rows
    service = CleaningService(ConstraintRegistry(tmp_path / "registry"), config=CONFIG)
    service.load_tenant("alumni", columns=columns, rows=rows)
    service.discover("alumni")
    server = start_server(service, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def run():
        whole = _detect_bytes(server.server_address, {})
        since = _detect_bytes(server.server_address, {"since": json.loads(whole)["version"]})
        full_times, since_times = [], []
        with ServiceClient(server.url) as client:
            client.detect("alumni")
            for _ in range(20):
                with ServiceClient(server.url) as fresh:
                    fresh.health()  # connect outside the timed detect
                    start = time.perf_counter()
                    full_doc = fresh.detect("alumni")
                    full_times.append(time.perf_counter() - start)
                start = time.perf_counter()
                since_doc = client.detect("alumni")
                since_times.append(time.perf_counter() - start)
        return whole, since, full_times, since_times, full_doc, since_doc

    try:
        whole, since, full_times, since_times, full_doc, since_doc = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()

    whole_reply, since_reply = json.loads(whole), json.loads(since)
    assert whole_reply["error_count"] > 0, "benchmark table must contain errors"
    assert since_reply["errors"] == [] and since_reply["removed"] == []
    assert since_reply["error_count"] == whole_reply["error_count"]
    assert since_doc == full_doc, "the client's copy must equal the whole report"

    benchmark.extra_info["error_count"] = whole_reply["error_count"]
    benchmark.extra_info["full_bytes"] = len(whole)
    benchmark.extra_info["since_bytes"] = len(since)
    benchmark.extra_info["full_detect_ms"] = round(statistics.median(full_times) * 1e3, 3)
    benchmark.extra_info["since_detect_ms"] = round(statistics.median(since_times) * 1e3, 3)
