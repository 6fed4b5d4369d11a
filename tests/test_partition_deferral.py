"""Deferred leaf patching: queued CRUD deltas == cold rebuild, every backend.

A mutation only queues its ``(row, old code, new code)`` changes on each
cached leaf partition; the leaf's first read afterwards composes the queue
into one net change per row (first old code, last new code) and patches
once.  These tests pin that composition against a cold rebuild when leaves
stay queued across several batches, its individual cases (append → update
→ delete of one row, revived tombstones, new pattern components, the
drop-at-row-count rule), the work it saves (no patch for a leaf nobody
reads), the queue's memory bound, and that concurrent ``detect`` calls on
one session still return the serial report.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pfd import make_pfd
from repro.dataset.mutations import MutationBatch
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.engine.backend import available_backends
from repro.engine.evaluator import PatternEvaluator
from repro.engine.partitions import _LeafGroups
from repro.session import CleaningSession
from test_crud_deltas import _PATTERNS, _base_rows, _batch_of, _expected_rows, _op

_BACKENDS = available_backends()

#: Every leaf the battery caches: (attribute, pattern or None).
_LEAVES = [("zip", None), ("city", None)] + [("zip", pattern) for pattern in _PATTERNS]


def _read(manager, evaluator, leaf):
    attribute, pattern = leaf
    if pattern is None:
        return manager.attribute_partition(attribute)
    return manager.pattern_partition(attribute, pattern, evaluator=evaluator)


def _primed(rows, backend):
    relation = Relation.from_rows(["zip", "city"], rows, name="R", backend=backend)
    evaluator = PatternEvaluator()
    manager = relation.partitions()
    for leaf in _LEAVES:
        _read(manager, evaluator, leaf)
    keys = [manager.key("zip", _PATTERNS[0]), manager.key("city")]
    manager.intersection(keys, evaluator=evaluator)
    return relation, evaluator


def _assert_leaf_matches_cold(got, expected, backend, leaf):
    fresh = Relation.from_rows(["zip", "city"], expected, name="R", backend=backend)
    want = _read(fresh.partitions(), PatternEvaluator(), leaf)
    assert got.classes == want.classes, leaf
    assert got.covered == want.covered, leaf
    assert got.row_count == want.row_count, leaf
    if got._probe_array is not None:  # carried over from the pre-patch leaf
        assert np.array_equal(got._probe_array, want.probe_array()), leaf


def _leaf_states(manager):
    return [*manager._attribute_groups.values(), *manager._pattern_groups.values()]


def _assert_queue_bounds(relation):
    """Queued rows stay below the row count and below twice the distinct
    queued rows."""
    for state in _leaf_states(relation.partitions()):
        queue = state.pending
        assert queue.size < max(relation.row_count, 1)
        if queue:
            assert queue.size <= 2 * queue.compose().shape[1]


# -- hypothesis battery -------------------------------------------------------

#: Per batch, per leaf: 0 = leave it queued, 1 = read it, 2 = read it and
#: materialize its probe array (which the next patch then carries).
_reads = st.lists(
    st.integers(min_value=0, max_value=2), min_size=len(_LEAVES), max_size=len(_LEAVES)
)
_batch_sequences = st.lists(
    st.tuples(st.lists(_op, min_size=1, max_size=3), _reads), min_size=1, max_size=8
)


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=40, deadline=None)
@given(base=_base_rows, batches=_batch_sequences)
def test_queued_leaves_equal_cold_rebuild_when_read(backend, base, batches):
    """Leaves read after a random subset of batches match a cold rebuild;
    the rest stay queued across batches and are checked at the end."""
    relation, evaluator = _primed(base, backend)
    manager = relation.partitions()
    expected = [list(row) for row in base]
    for draws, reads in batches:
        batch = _batch_of(relation.row_count, draws)
        if batch is not None:
            relation.apply(batch)
            expected = _expected_rows(expected, batch)
        _assert_queue_bounds(relation)
        for leaf, read in zip(_LEAVES, reads):
            if read:
                got = _read(manager, evaluator, leaf)
                _assert_leaf_matches_cold(got, expected, backend, leaf)
                if read == 2:
                    got.probe_array()
    for leaf in _LEAVES:
        _assert_leaf_matches_cold(_read(manager, evaluator, leaf), expected, backend, leaf)


# -- explicit composition cases -----------------------------------------------


_ROWS = [
    ("90001", "Los Angeles"),
    ("90002", "Los Angeles"),
    ("90001", "Chicago"),
    ("10001", "New York"),
    ("10001", "New York"),
    ("10002", "New York"),
    ("90003", "Chicago"),
    ("90002", "Chicago"),
]


@pytest.fixture(params=_BACKENDS)
def backend(request):
    return request.param


def _run_queued(backend, batches, rows=_ROWS):
    """Apply ``batches`` with every leaf left queued (asserting no ``zip``
    leaf was dropped), then read and check every leaf."""
    relation, evaluator = _primed(rows, backend)
    manager = relation.partitions()
    for leaf in _LEAVES:
        _read(manager, evaluator, leaf).probe_array()
    expected = [list(row) for row in rows]
    for batch in batches:
        relation.apply(batch)
        expected = _expected_rows(expected, batch)
    zip_states = [manager._attribute_groups["zip"], *manager._pattern_groups.values()]
    assert all(state.pending for state in zip_states)
    for leaf in _LEAVES:
        _assert_leaf_matches_cold(_read(manager, evaluator, leaf), expected, backend, leaf)
    assert not any(state.pending for state in _leaf_states(manager))
    return relation


def test_append_then_update_then_delete_one_row(backend):
    appended = len(_ROWS)
    _run_queued(
        backend,
        [
            MutationBatch.appends([("90001", "Chicago")]),
            MutationBatch.update_cells(
                [(appended, "zip", "10001"), (appended, "city", "New York")]
            ),
            MutationBatch.deletes([appended]),
        ],
    )


def test_update_then_delete_then_append_composes(backend):
    _run_queued(
        backend,
        [
            MutationBatch.update_cells([(0, "zip", "10002")]),
            MutationBatch.deletes([0, 5]),
            MutationBatch.appends([("10002", "New York"), ("10002", "Chicago")]),
            MutationBatch.update_cells([(3, "zip", "90001")]),
        ],
    )


def test_tombstoned_code_revived_while_queued(backend):
    relation = _run_queued(
        backend,
        [
            MutationBatch.update_cells([(5, "zip", "10001")]),  # "10002" dies
            MutationBatch.update_cells([(6, "zip", "10002"), (7, "zip", "10002")]),  # revived
        ],
    )
    assert (6, 7) in relation.partitions().attribute_partition("zip").classes


def test_pattern_leaf_gains_distinct_values_while_queued(backend):
    relation = _run_queued(
        backend,
        [
            MutationBatch.update_cells([(0, "zip", "77701")]),
            MutationBatch.appends([("77702", "Chicago"), ("abcde", "Chicago")]),
            MutationBatch.update_cells([(1, "zip", "77703")]),
        ],
    )
    evaluator = PatternEvaluator()
    manager = relation.partitions()
    classes = manager.pattern_partition("zip", _PATTERNS[0], evaluator=evaluator).classes
    assert (0, 1, 8) in classes


def test_leaf_is_dropped_when_queued_rows_reach_row_count(backend):
    rows = [("90001", "Chicago"), ("90002", "Chicago"), ("90001", "New York")]
    relation, evaluator = _primed(rows, backend)
    manager = relation.partitions()
    relation.apply(MutationBatch.update_cells([(0, "zip", "10001"), (1, "zip", "10001")]))
    assert "zip" in manager._attribute_groups  # two of three rows queued
    misses = manager.stats.attribute_misses
    relation.apply(MutationBatch.update_cells([(2, "zip", "10002")]))
    assert "zip" not in manager._attribute_groups  # every row queued: dropped
    assert "city" in manager._attribute_groups  # untouched leaves stay
    expected = [["10001", "Chicago"], ["10001", "Chicago"], ["10002", "New York"]]
    _assert_leaf_matches_cold(manager.attribute_partition("zip"), expected, backend, ("zip", None))
    assert manager.stats.attribute_misses == misses + 1  # rebuilt cold


# -- work and bounds ----------------------------------------------------------


def _tall_rows(count):
    cities = ("Los Angeles", "Chicago", "New York")
    return [(f"{90000 + i % 37:05d}", cities[i % 3]) for i in range(count)]


def test_unread_leaf_is_never_patched(backend, monkeypatch):
    relation, evaluator = _primed(_tall_rows(400), backend)
    manager = relation.partitions()
    state_type = type(manager._attribute_groups["zip"])
    calls = {"patch": 0, "refresh": 0}

    def counting(name, original):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(_LeafGroups, "_patch", counting("patch", _LeafGroups._patch))
    monkeypatch.setattr(state_type, "refresh", counting("refresh", state_type.refresh))
    for i in range(100):
        relation.apply(MutationBatch.update_cells([(3 * i, "zip", f"{80000 + i % 5:05d}")]))
    assert calls == {"patch": 0, "refresh": 0}
    assert manager.stats.attribute_updates == 100  # deltas absorbed, not patches
    manager.attribute_partition("zip")
    assert calls == {"patch": 1 if backend == "numpy" else 0, "refresh": 1}
    manager.attribute_partition("zip")
    assert calls["refresh"] == 1  # nothing queued: a plain hit


def test_queue_never_exceeds_row_count(backend):
    rows = _tall_rows(60)
    relation, _ = _primed(rows, backend)
    rng = np.random.default_rng(7)
    for _ in range(200):
        row = int(rng.integers(relation.row_count))
        batch = MutationBatch.update_cells([(row, "zip", f"{90000 + int(rng.integers(50)):05d}")])
        if rng.random() < 0.2:
            batch = MutationBatch.appends([("90001", "Chicago")])
        relation.apply(batch)
        _assert_queue_bounds(relation)


def test_concurrent_detect_after_queued_mutations_matches_serial():
    """Both threads flush the queued leaves under the session's state lock.

    In-memory only: the sql store's SQLite connection is bound to the
    thread that opened it, so that backend cannot be shared across threads.
    """
    rows = [(f"{90000 + i % 8:05d}", "Los Angeles") for i in range(16)] + [
        (f"{10000 + i % 8:05d}", "New York") for i in range(16)
    ]
    mutations = [
        MutationBatch.update_cells([(0, "city", "New York")]),
        MutationBatch.appends([("90001", "Chicago"), ("10003", "New York")]),
        MutationBatch.update_cells([(17, "city", "Los Angeles"), (5, "zip", "10005")]),
        MutationBatch.deletes([9]),
    ]
    pfds = [make_pfd("zip", "city", [{"zip": r"{{\D{3}}}\D{2}", "city": "⊥"}])]

    def session():
        result = CleaningSession.from_rows(
            ["zip", "city"], rows, name="zips", config=DiscoveryConfig(min_support=4)
        )
        result.detect(pfds)  # primes the partition leaves
        for batch in mutations:
            result.apply(batch)
        return result

    def summary(report):
        return sorted(
            (e.cell.row_id, e.cell.attribute, e.current_value, e.suggested_value)
            for e in report.errors
        )

    serial = session()
    expected = {
        evidence: summary(serial.detect(pfds, min_evidence=evidence)) for evidence in (1, 2)
    }
    shared = session()
    assert any(state.pending for state in _leaf_states(shared.relation.partitions()))
    barrier = threading.Barrier(2)
    results: dict[int, list] = {}

    def run(evidence):
        barrier.wait()
        results[evidence] = summary(shared.detect(pfds, min_evidence=evidence))

    threads = [threading.Thread(target=run, args=(evidence,)) for evidence in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert expected[1]  # the mutations planted violations
