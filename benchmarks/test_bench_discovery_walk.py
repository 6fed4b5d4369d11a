"""Discovery's constant-row walk: screened against unscreened.

The walk screens each batch of leaf groups in one vectorized pass before the
exact decision function runs, and only groups that can pass take the exact
path.  This benchmark times serial ``discover`` on two wide_sparse shapes —
single-LHS, and ``max_lhs_size=2`` — with the screen and with it bypassed,
pins both to identical dependencies, and records the seconds in
``extra_info``.  Each figure is one run on a relation whose partition cache
is already warm, so it measures the walk rather than the one-off partition
builds.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.datagen.scenario import SCENARIO_MATRIX
from repro.discovery import DiscoveryConfig, PFDDiscoverer


class _Unscreened(PFDDiscoverer):
    """Every leaf group takes the exact path."""

    def _screen(self, index, table, key_ids, tuple_ids, count):
        return np.ones(count, dtype=bool)


def _facts(result):
    return [
        (d.lhs, d.rhs, d.pfd.describe(), d.coverage, d.support, d.is_variable)
        for d in result.dependencies
    ]


def _timed(discoverer, relation):
    start = time.perf_counter()
    result = discoverer.discover(relation)
    return time.perf_counter() - start, result


def _case(rows, max_lhs_size):
    spec = dataclasses.replace(SCENARIO_MATRIX["wide_sparse"], rows=rows, seed=8)
    relation = spec.build().relation
    config = DiscoveryConfig(max_lhs_size=max_lhs_size, workers=1)
    PFDDiscoverer(config).discover(relation)  # warm the partition cache
    screened, result = _timed(PFDDiscoverer(config), relation)
    unscreened, expected = _timed(_Unscreened(config), relation)
    assert _facts(result) == _facts(expected)
    assert result.dependencies == expected.dependencies
    assert result.candidate_count == expected.candidate_count
    return screened, unscreened, result


def test_bench_discovery_walk_screen(benchmark, repro_scale):
    info = benchmark.extra_info
    for name, rows, max_lhs_size in (
        ("single_lhs", max(2000, int(80_000 * repro_scale)), 1),
        ("lhs2", max(2000, int(32_000 * repro_scale)), 2),
    ):
        screened, unscreened, result = _case(rows, max_lhs_size)
        info[f"{name}_rows"] = rows
        info[f"{name}_candidates"] = result.candidate_count
        info[f"{name}_dependencies"] = len(result.dependencies)
        info[f"{name}_seconds"] = round(screened, 6)
        info[f"{name}_unscreened_seconds"] = round(unscreened, 6)
        info[f"{name}_speedup"] = round(unscreened / screened, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
