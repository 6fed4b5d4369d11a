"""Session-facade benchmark: one ``CleaningSession`` vs three free calls.

Models the workflow the facade replaces: running discover → detect → repair
as three independent CLI-style invocations, each re-loading the table and
re-priming its own engine state, versus one :class:`CleaningSession` that
loads once, primes once, and shares the evaluator + partition caches across
stages.

Asserted (the PR's acceptance criterion):

* the session path performs **strictly fewer pattern-set compilations** and
  **strictly fewer partition builds** (cache misses) than the three
  independent calls, and
* the discovered PFDs, detected cells, and applied repairs are identical.

Wall-clock for both paths is recorded as ``extra_info``.
"""

from __future__ import annotations

import time

import pytest

from repro.cleaning.detector import ErrorDetector
from repro.cleaning.repair import Repairer
from repro.dataset.relation import Relation
from repro.datagen.suite import build_table
from repro.discovery.config import DiscoveryConfig
from repro.discovery.pfd_discovery import PFDDiscoverer
from repro.engine.evaluator import PatternEvaluator
from repro.session import CleaningSession

#: Constant tableaux (no generalization) keep multi-row pattern batches in
#: play for every stage, so the pattern-set compilation counter is exercised.
CONFIG = DiscoveryConfig(min_support=4, min_coverage=0.05, generalize=False)


@pytest.fixture(scope="module")
def alumni_rows(repro_scale):
    table = build_table("T14", scale=max(0.25, repro_scale))
    relation = table.relation
    return list(relation.attribute_names), list(relation.iter_rows())


def _fresh_relation(alumni_rows) -> Relation:
    names, rows = alumni_rows
    return Relation.from_rows(names, rows, name="alumni")


def _run_session(alumni_rows):
    """discover → detect → repair through one shared session."""
    # Pinned serial: the compilation/partition counters describe parent-process
    # caches, which sharded stages under REPRO_WORKERS would bypass.
    session = CleaningSession(_fresh_relation(alumni_rows), config=CONFIG, workers=1)
    start = time.perf_counter()
    discovery = session.discover()
    report = session.detect()
    repair = session.repair(verify=False)
    elapsed = time.perf_counter() - start
    stats = session.stats()
    return {
        "pfds": discovery.pfds,
        "cells": report.error_cells,
        "repairs": repair.repairs,
        "compilations": stats.pattern_set_compilations,
        "partition_builds": stats.partition_misses,
        "seconds": elapsed,
    }


def _run_free_functions(alumni_rows):
    """The pre-facade workflow: three independent invocations, each with a
    freshly loaded relation and its own evaluator (what three CLI runs do)."""
    start = time.perf_counter()
    relation_a = _fresh_relation(alumni_rows)
    evaluator_a = PatternEvaluator()
    discovery = PFDDiscoverer(CONFIG, evaluator=evaluator_a, workers=1).discover(relation_a)

    relation_b = _fresh_relation(alumni_rows)
    evaluator_b = PatternEvaluator()
    report = ErrorDetector(discovery.pfds, evaluator=evaluator_b).detect(relation_b)

    relation_c = _fresh_relation(alumni_rows)
    evaluator_c = PatternEvaluator()
    repair = Repairer(discovery.pfds, evaluator=evaluator_c).repair(relation_c)
    elapsed = time.perf_counter() - start

    compilations = (
        evaluator_a.pattern_set_compilations
        + evaluator_b.pattern_set_compilations
        + evaluator_c.pattern_set_compilations
    )
    partition_builds = (
        relation_a.partitions().stats.misses
        + relation_b.partitions().stats.misses
        + relation_c.partitions().stats.misses
    )
    return {
        "pfds": discovery.pfds,
        "cells": report.error_cells,
        "repairs": repair.repairs,
        "compilations": compilations,
        "partition_builds": partition_builds,
        "seconds": elapsed,
    }


def test_bench_session_beats_free_functions(benchmark, alumni_rows):
    free = _run_free_functions(alumni_rows)
    session = benchmark.pedantic(lambda: _run_session(alumni_rows), rounds=3, iterations=1)

    # Identical observable results...
    assert session["pfds"] == free["pfds"]
    assert session["cells"] == free["cells"]
    assert session["repairs"] == free["repairs"]
    assert session["pfds"], "benchmark table must yield PFDs"

    # ...with strictly less engine work.
    assert session["compilations"] < free["compilations"], (
        f"session performed {session['compilations']} pattern-set compilations, "
        f"free functions {free['compilations']}"
    )
    assert session["partition_builds"] < free["partition_builds"], (
        f"session built {session['partition_builds']} partitions, "
        f"free functions {free['partition_builds']}"
    )

    benchmark.extra_info["session_seconds"] = round(session["seconds"], 4)
    benchmark.extra_info["free_seconds"] = round(free["seconds"], 4)
    benchmark.extra_info["session_compilations"] = session["compilations"]
    benchmark.extra_info["free_compilations"] = free["compilations"]
    benchmark.extra_info["session_partition_builds"] = session["partition_builds"]
    benchmark.extra_info["free_partition_builds"] = free["partition_builds"]
