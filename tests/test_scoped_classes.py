"""Partitions after writes, and the scoped classes of changed rows, on every
backend.

A write drops the cached partitions it can change and keeps each leaf's
grouping state (code -> key).  These tests pin, after random CRUD batches
(tombstones, revived tombstoned codes, empty cells, appends with new
distinct values, multi-attribute keys), that

* every leaf or intersection read equals a cold rebuild on
  ``relation.copy()``, and
* ``PartitionManager.scoped_classes`` of any row set equals the classes of
  that cold partition holding one of the rows, in class order,

and that a scoped detection after a warm one builds no partition.  Two
threads detecting on one session after writes still get the serial report.
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
from repro.session import CleaningSession
from test_crud_deltas import _PATTERNS, _base_rows, _batch_of, _expected_rows, _op

_BACKENDS = available_backends()

#: Every leaf the battery reads: (attribute, pattern or None).
_LEAVES = [("zip", None), ("city", None)] + [("zip", pattern) for pattern in _PATTERNS]

#: The key sets whose partitions are read and scoped: every leaf alone,
#: plus two products over both attributes (leaf indices into ``_LEAVES``).
_KEY_SETS = [(0,), (1,), (2,), (3,), (2, 1), (0, 1)]


def _keys(manager, key_set):
    return [manager.key(*_LEAVES[index]) for index in key_set]


def _read(manager, evaluator, key_set):
    return manager.intersection(_keys(manager, key_set), evaluator=evaluator)


def _classes_containing(partition, rows):
    """The reference scope: the partition's classes holding one of ``rows``."""
    wanted = set(rows)
    return tuple(rows_ for rows_ in partition.classes if wanted.intersection(rows_))


def _as_classes(rowids, offsets):
    rows, bounds = rowids.tolist(), offsets.tolist()
    return tuple(tuple(rows[bounds[i]:bounds[i + 1]]) for i in range(len(bounds) - 1))


def _relation(rows, backend):
    return Relation.from_rows(["zip", "city"], rows, name="R", backend=backend)


def _assert_read_matches_cold(relation, got, key_set):
    cold = _read(relation.copy().partitions(), PatternEvaluator(), key_set)
    assert got.classes == cold.classes, key_set
    assert got.covered == cold.covered, key_set
    assert got.row_count == cold.row_count, key_set
    assert np.array_equal(got.probe_array(), cold.probe_array()), key_set


def _assert_scope_matches_cold(relation, evaluator, key_set, rows):
    manager = relation.partitions()
    misses = manager.stats.misses
    scoped = manager.scoped_classes(_keys(manager, key_set), rows, evaluator)
    assert manager.stats.misses == misses  # built no partition
    cold = _read(relation.copy().partitions(), PatternEvaluator(), key_set)
    assert _as_classes(*scoped) == _classes_containing(cold, rows), (key_set, rows)


# -- hypothesis battery -------------------------------------------------------

#: Per batch, per key set: 0 = leave it unread, 1 = read it.
_reads = st.lists(
    st.integers(min_value=0, max_value=1), min_size=len(_KEY_SETS), max_size=len(_KEY_SETS)
)
_scopes = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=5)
_batch_sequences = st.lists(
    st.tuples(st.lists(_op, min_size=1, max_size=3), _reads, _scopes), min_size=1, max_size=8
)


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=40, deadline=None)
@given(base=_base_rows, batches=_batch_sequences)
def test_reads_and_scopes_equal_cold_rebuild_after_writes(backend, base, batches):
    """After each batch, the key sets read equal a cold rebuild, and the
    scoped classes of the batch's changed rows and of a random row set equal
    the cold partition's classes holding them."""
    relation = _relation(base, backend)
    evaluator = PatternEvaluator()
    manager = relation.partitions()
    for key_set in _KEY_SETS:
        _read(manager, evaluator, key_set)
    expected = [list(row) for row in base]
    for draws, reads, scope in batches:
        batch = _batch_of(relation.row_count, draws)
        changed: tuple[int, ...] = ()
        if batch is not None:
            changed = relation.apply(batch).changed_rows
            expected = _expected_rows(expected, batch)
        assert [list(row) for row in relation.iter_rows()] == expected
        rows = tuple(sorted({row % (relation.row_count + 2) for row in scope}))
        for key_set, read in zip(_KEY_SETS, reads):
            _assert_scope_matches_cold(relation, evaluator, key_set, tuple(sorted(changed)))
            _assert_scope_matches_cold(relation, evaluator, key_set, rows)
            if read:
                _assert_read_matches_cold(relation, _read(manager, evaluator, key_set), key_set)
    for key_set in _KEY_SETS:
        _assert_read_matches_cold(relation, _read(manager, evaluator, key_set), key_set)


# -- explicit cases -----------------------------------------------------------


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


def _run(backend, batches, rows=_ROWS):
    """Read every key set, apply ``batches``, then check every key set's
    scoped classes (of all rows, one by one) and its read against a cold
    rebuild."""
    relation = _relation(rows, backend)
    evaluator = PatternEvaluator()
    manager = relation.partitions()
    for key_set in _KEY_SETS:
        _read(manager, evaluator, key_set).probe_array()
    for batch in batches:
        relation.apply(batch)
    for key_set in _KEY_SETS:
        _assert_scope_matches_cold(relation, evaluator, key_set, tuple(range(relation.row_count)))
        for row in range(relation.row_count):
            _assert_scope_matches_cold(relation, evaluator, key_set, (row,))
        _assert_read_matches_cold(relation, _read(manager, evaluator, key_set), key_set)
    return relation


def test_append_then_update_then_delete_one_row(backend):
    appended = len(_ROWS)
    _run(
        backend,
        [
            MutationBatch.appends([("90001", "Chicago")]),
            MutationBatch.update_cells(
                [(appended, "zip", "10001"), (appended, "city", "New York")]
            ),
            MutationBatch.deletes([appended]),
        ],
    )


def test_update_then_delete_then_append(backend):
    _run(
        backend,
        [
            MutationBatch.update_cells([(0, "zip", "10002")]),
            MutationBatch.deletes([0, 5]),
            MutationBatch.appends([("10002", "New York"), ("10002", "Chicago")]),
            MutationBatch.update_cells([(3, "zip", "90001")]),
        ],
    )


def test_tombstoned_code_revived(backend):
    relation = _run(
        backend,
        [
            MutationBatch.update_cells([(5, "zip", "10001")]),  # "10002" dies
            MutationBatch.update_cells([(6, "zip", "10002"), (7, "zip", "10002")]),  # revived
        ],
    )
    manager = relation.partitions()
    assert (6, 7) in manager.attribute_partition("zip").classes
    assert _as_classes(*manager.scoped_classes([manager.key("zip")], (7,))) == ((6, 7),)


def test_pattern_leaf_gains_distinct_values(backend):
    relation = _run(
        backend,
        [
            MutationBatch.update_cells([(0, "zip", "77701")]),
            MutationBatch.appends([("77702", "Chicago"), ("abcde", "Chicago")]),
            MutationBatch.update_cells([(1, "zip", "77703")]),
        ],
    )
    manager = relation.partitions()
    key = manager.key("zip", _PATTERNS[0])
    assert (0, 1, 8) in manager.partition_for(key).classes
    assert _as_classes(*manager.scoped_classes([key], (9, 1))) == ((0, 1, 8),)


# -- no rebuild after a write -------------------------------------------------

_PFDS = [
    make_pfd("zip", "city", [{"zip": r"{{\D{3}}}\D{2}", "city": "⊥"}]),
    make_pfd(("zip", "city"), "state", [{"zip": r"{{\D{3}}}\D{2}", "city": "⊥", "state": "⊥"}]),
]


def _zip_rows():
    return [(f"{90000 + i % 8:05d}", "Los Angeles", "CA") for i in range(16)] + [
        (f"{10000 + i % 8:05d}", "New York", "NY") for i in range(16)
    ]


def test_one_row_write_and_detect_changed_build_no_partition(backend):
    """After a warm detect, a one-row write's scoped detection reads its
    classes from the grouping states: the partition misses do not move."""
    session = CleaningSession(
        Relation.from_rows(["zip", "city", "state"], _zip_rows(), backend=backend)
    )
    session.detect(_PFDS)
    stats = session.relation.partitions().stats
    for batch in (
        MutationBatch.update_cells([(0, "city", "New York")]),
        MutationBatch.appends([("90001", "Chicago", "CA")]),
        MutationBatch.update_cells([(5, "zip", "77705")]),
        MutationBatch.deletes([9]),
    ):
        misses = stats.misses
        session.apply(batch)
        report = session.detect_changed(_PFDS)
        assert stats.misses == misses
        cold = CleaningSession(session.relation.copy()).detect(_PFDS)
        assert {e.cell for e in report.errors} <= {e.cell for e in cold.errors}
    session.close()


def test_concurrent_detect_after_queued_mutations_matches_serial():
    """Both threads sync the leaves' grouping states under the session's
    state lock.

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
