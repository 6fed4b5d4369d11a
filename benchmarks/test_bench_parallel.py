"""Parallel discovery benchmark: multi-LHS lattice sharding at 1/2/4 workers.

Multi-LHS discovery is the library's most expensive stage (Table 7's
``max_lhs_size=2`` runs dominate every end-to-end timing), and its work —
validating each lattice level's candidate groups — is embarrassingly
parallel *within* a level.  These benchmarks time the same discovery on the
same table at ``workers=1``, ``2``, and ``4`` (fresh sessions each, so every
run pays its own broadcast), pin the parallel results bit-identical to
serial, and record the speedup curve, on two tables:

* a wide duplicated region table — a few hundred distinct rows, so the
  lattice is cheap and the pool gains little or nothing (at 8k rows serial
  discovery has been measured faster than ``workers=2``);
* wide_sparse at ``max_lhs_size=2`` — costly candidate validation, where
  the pool gains (about 4.3 s serial against 3.3 s at 2 workers at 8k rows
  on 2 shared cores).

Asserted:

* on the region table, ``workers=4`` discovery is at least **1.7×** faster
  than serial — on machines that actually have 4 cores to run it on;
  smaller containers still record the curve but skip the floor (2 shared
  cores are too noisy for any floor, so wide_sparse records only), and
* every worker count returns bit-identical dependencies, candidate counts,
  and per-level tallies.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.datagen.scenario import SCENARIO_MATRIX
from repro.discovery.config import DiscoveryConfig
from repro.session import CleaningSession

_COLUMNS = ["zip", "city", "state", "areacode", "county", "group"]

_REGIONS = [
    ("900", "Los Angeles", "CA", "213", "Los Angeles County"),
    ("941", "San Francisco", "CA", "415", "San Francisco County"),
    ("100", "New York", "NY", "212", "New York County"),
    ("606", "Chicago", "IL", "312", "Cook County"),
    ("770", "Dallas", "TX", "214", "Dallas County"),
    ("331", "Miami", "FL", "305", "Miami-Dade County"),
    ("981", "Seattle", "WA", "206", "King County"),
    ("802", "Denver", "CO", "303", "Denver County"),
]

#: Multi-LHS discovery — the workload the lattice sharding exists for.
_CONFIG = DiscoveryConfig(min_support=4, min_coverage=0.1, max_lhs_size=2)


def _build_rows(row_count: int) -> list[tuple[str, ...]]:
    """A duplicated wide table: a few hundred distinct region combinations,
    each repeated many times (partition stripping collapses the rows, so
    candidate validation cost is driven by the lattice width)."""
    rows = []
    for uid in range(row_count):
        prefix, city, state, area, county = _REGIONS[uid % len(_REGIONS)]
        rows.append(
            (
                f"{prefix}{uid // len(_REGIONS) % 40:02d}",
                city,
                state,
                area,
                county,
                f"G{uid % 5}",
            )
        )
    return rows


def _fingerprint(result):
    return [
        (d.lhs, d.rhs, d.coverage, d.support, d.is_variable, d.pfd.tableau)
        for d in result.dependencies
    ]


def _timed_discover(columns, rows, config, workers):
    """Discovery from a cold session at the given worker count — each run
    pays its own dictionary build, broadcast, and (for workers>1) pool."""
    with CleaningSession.from_rows(
        columns, rows, config=config, workers=workers
    ) as session:
        start = time.perf_counter()
        result = session.discover()
        return time.perf_counter() - start, result


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _speedup_curve(benchmark, columns, rows, config, repeats):
    """Time discovery at 1/2/4 workers (best of ``repeats`` cold runs), pin
    every count bit-identical to serial, and record the curve; returns the
    seconds per worker count."""
    seconds = {}
    results = {}
    for workers in (1, 2, 4):
        runs = [_timed_discover(columns, rows, config, workers) for _ in range(repeats)]
        seconds[workers] = min(elapsed for elapsed, _ in runs)
        results[workers] = runs[0][1]

    # Bit-identical across every worker count — the whole point of the
    # level-barrier merge protocol.
    serial = results[1]
    assert serial.dependencies, "the table must yield dependencies"
    for workers in (2, 4):
        assert _fingerprint(results[workers]) == _fingerprint(serial)
        assert results[workers].candidate_count == serial.candidate_count
        assert results[workers].candidates_per_level == serial.candidates_per_level
        assert results[workers].index_entries == serial.index_entries

    info = benchmark.extra_info
    info["rows"] = len(rows)
    info["cores"] = _cores()
    info["dependencies"] = len(serial.dependencies)
    info["candidates"] = serial.candidate_count
    info["serial_seconds"] = round(seconds[1], 6)
    info["workers2_seconds"] = round(seconds[2], 6)
    info["workers4_seconds"] = round(seconds[4], 6)
    info["speedup_workers2"] = round(seconds[1] / seconds[2], 2)
    info["speedup_workers4"] = round(seconds[1] / seconds[4], 2)
    return seconds


def test_bench_parallel_multilhs_discovery(benchmark, repro_scale):
    row_count = max(1000, int(8000 * repro_scale))
    rows = _build_rows(row_count)
    cores = _cores()
    seconds = _speedup_curve(benchmark, _COLUMNS, rows, _CONFIG, repeats=2)

    speedup_4 = seconds[1] / seconds[4]
    if cores >= 4:
        assert speedup_4 >= 1.7, (
            f"multi-LHS discovery at workers=4 must be >=1.7x faster than "
            f"serial on a {cores}-core machine, got {speedup_4:.2f}x "
            f"({seconds[4] * 1e3:.0f} ms vs {seconds[1] * 1e3:.0f} ms on "
            f"{row_count} rows)"
        )

    benchmark.extra_info["speedup_floor_asserted"] = cores >= 4
    benchmark.pedantic(
        lambda: _timed_discover(_COLUMNS, rows, _CONFIG, 2)[1], rounds=1, iterations=1
    )


def test_bench_parallel_wide_sparse_lhs2_discovery(benchmark, repro_scale):
    row_count = max(2000, int(32_000 * repro_scale))
    spec = dataclasses.replace(SCENARIO_MATRIX["wide_sparse"], rows=row_count, seed=1)
    relation = spec.build().relation
    columns = list(relation.attribute_names)
    rows = list(relation.iter_rows())
    config = DiscoveryConfig(max_lhs_size=2)
    _speedup_curve(benchmark, columns, rows, config, repeats=1)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
