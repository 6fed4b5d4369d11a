"""Full-CRUD delta maintenance: mutated caches == cold rebuild, every backend.

The tentpole guarantee of the unified mutation API is that after any
:class:`~repro.dataset.mutations.MutationBatch` — cell updates, row deletes,
appends, or a mix — every delta-maintained layer (dictionary-encoded
columns, evaluator masks, stripped partitions, detection reports) agrees
**bit-for-bit at the row/value level** with a from-scratch rebuild over the
final rows, on all available engine backends, cold and interleaved with
``append_rows``.  Internal code numbering is explicitly *not* pinned:
updates leave zero-count tombstones where a fresh build never allocates a
code, so equality is asserted on classes, covered sets, cell values, and
reports — the things every downstream consumer reads.

Leaf partitions are maintained by positional patches of their class arrays
(never a regroup of the code vector), so the batteries here also pin the
patch against a cold rebuild across *sequences* of batches, its individual
cases (dissolving, forming and re-seating classes, coverage changes,
revived codes, new pattern components, oversized appends), and the
snapshot contract: a partition handed out before a batch never changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning.detector import ErrorDetector
from repro.core.pfd import make_pfd
from repro.dataset.mutations import DeleteOp, MutationBatch, UpdateOp, UpsertOp
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.engine.backend import available_backends
from repro.engine.evaluator import PatternEvaluator
from repro.exceptions import ReproError
from repro.session import CleaningSession

_BACKENDS = available_backends()

_ZIPS = ["90001", "90002", "90003", "10001", "10002", "abc", ""]
_CITIES = ["Los Angeles", "New York", "Chicago", ""]
_zip_pattern = r"{{\D{3}}}\D{2}"
_PATTERNS = [_zip_pattern, r"\D{5}"]

_base_rows = st.lists(
    st.tuples(st.sampled_from(_ZIPS), st.sampled_from(_CITIES)),
    min_size=1,
    max_size=12,
)
_updates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.sampled_from(["zip", "city"]),
        st.sampled_from(_ZIPS + _CITIES),
    ),
    min_size=0,
    max_size=6,
)
_deletes = st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=3)
_appends = st.lists(
    st.tuples(st.sampled_from(_ZIPS), st.sampled_from(_CITIES)),
    min_size=0,
    max_size=4,
)


def _primed(rows, backend):
    relation = Relation.from_rows(["zip", "city"], rows, name="R", backend=backend)
    evaluator = PatternEvaluator()
    for attribute in relation.attribute_names:
        evaluator.match_column_many(_PATTERNS, relation.dictionary(attribute))
    manager = relation.partitions()
    manager.attribute_partition("zip")
    manager.attribute_partition("city")
    manager.pattern_partition("zip", _zip_pattern, evaluator=evaluator)
    manager.intersection(
        [manager.key("zip", _zip_pattern), manager.key("city")], evaluator=evaluator
    )
    manager.attribute_set_partition(("zip", "city"))
    return relation, evaluator


def _batch_for(row_count, updates, deletes, appends):
    """Map raw hypothesis draws onto valid pre-batch row ids (empty-safe)."""
    ops = []
    if row_count:
        for raw_row, attribute, value in updates:
            ops.append(UpdateOp(raw_row % row_count, ((attribute, value),)))
        if deletes:
            ops.append(DeleteOp(sorted({raw % row_count for raw in deletes})))
    if appends:
        ops.append(UpsertOp([list(row) for row in appends]))
    return MutationBatch(ops) if ops else None


def _expected_rows(base, batch):
    """The final rows a cold observer expects (updates, then blanks, then
    appends) — computed independently of the library's apply()."""
    rows = [list(row) for row in base]
    columns = {"zip": 0, "city": 1}
    if batch is None:
        return rows
    for op in batch:
        if isinstance(op, UpdateOp):
            for attribute, value in op.values:
                rows[op.row_id][columns[attribute]] = str(value)
        elif isinstance(op, DeleteOp):
            for row_id in op.row_ids:
                rows[row_id] = ["", ""]
    for op in batch:
        if isinstance(op, UpsertOp):
            rows.extend(list(row) for row in op.rows)
    return rows


def _assert_relation_matches_cold_rebuild(relation, evaluator, expected, backend):
    fresh = Relation.from_rows(["zip", "city"], expected, name="R", backend=backend)
    fresh_evaluator = PatternEvaluator()

    assert [list(row) for row in relation.iter_rows()] == expected
    assert relation.row_count == fresh.row_count

    for attribute in relation.attribute_names:
        column = relation.dictionary(attribute)
        fresh_column = fresh.dictionary(attribute)
        # Value-level equality (codes may differ: tombstones vs fresh).
        got_rows = {
            column.values[code]: rows
            for code, rows in enumerate(column.rows_by_code())
            if rows
        }
        want_rows = {
            fresh_column.values[code]: rows
            for code, rows in enumerate(fresh_column.rows_by_code())
            if rows
        }
        assert got_rows == want_rows, attribute
        # Mask parity through the shared evaluator: matched row sets agree.
        match_set = evaluator.match_column_many(_PATTERNS, column)
        fresh_set = fresh_evaluator.match_column_many(_PATTERNS, fresh_column)
        for pattern in _PATTERNS:
            got_mask = match_set.matched_mask(pattern)
            want_mask = fresh_set.matched_mask(pattern)
            got_matched = {
                row
                for code, rows in enumerate(column.rows_by_code())
                if code < len(got_mask) and got_mask[code]
                for row in rows
            }
            want_matched = {
                row
                for code, rows in enumerate(fresh_column.rows_by_code())
                if code < len(want_mask) and want_mask[code]
                for row in rows
            }
            assert got_matched == want_matched, (attribute, pattern)

    manager = relation.partitions()
    fresh_manager = fresh.partitions()
    for label, got, want in [
        ("attr zip", manager.attribute_partition("zip"),
         fresh_manager.attribute_partition("zip")),
        ("attr city", manager.attribute_partition("city"),
         fresh_manager.attribute_partition("city")),
        ("pattern zip", manager.pattern_partition("zip", _zip_pattern, evaluator=evaluator),
         fresh_manager.pattern_partition("zip", _zip_pattern, evaluator=fresh_evaluator)),
        ("intersection",
         manager.intersection(
             [manager.key("zip", _zip_pattern), manager.key("city")], evaluator=evaluator
         ),
         fresh_manager.intersection(
             [fresh_manager.key("zip", _zip_pattern), fresh_manager.key("city")],
             evaluator=fresh_evaluator,
         )),
        ("attr set", manager.attribute_set_partition(("zip", "city")),
         fresh_manager.attribute_set_partition(("zip", "city"))),
    ]:
        assert got.classes == want.classes, label
        assert got.covered == want.covered, label
        assert got.row_count == want.row_count, label
        # Also builds the probe arrays the next patch carries forward.
        assert np.array_equal(got.probe_array(), want.probe_array()), label

    return fresh, fresh_evaluator


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=40, deadline=None)
@given(base=_base_rows, updates=_updates, deletes=_deletes, appends=_appends)
def test_mutated_caches_equal_cold_rebuild(backend, base, updates, deletes, appends):
    relation, evaluator = _primed(base, backend)
    batch = _batch_for(relation.row_count, updates, deletes, appends)
    if batch is not None:
        relation.apply(batch)
    expected = _expected_rows(base, batch)
    _assert_relation_matches_cold_rebuild(relation, evaluator, expected, backend)


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=25, deadline=None)
@given(
    base=_base_rows,
    updates=_updates,
    deletes=_deletes,
    interleaved=_appends,
    updates2=_updates,
)
def test_interleaved_mutations_and_appends_equal_cold_rebuild(
    backend, base, updates, deletes, interleaved, updates2
):
    """apply -> append_rows -> apply again still matches a cold rebuild."""
    relation, evaluator = _primed(base, backend)
    first = _batch_for(relation.row_count, updates, deletes, ())
    if first is not None:
        relation.apply(first)
    expected = _expected_rows(base, first)
    if interleaved:
        relation.append_rows([list(row) for row in interleaved])
        expected.extend(list(row) for row in interleaved)
    second = _batch_for(relation.row_count, updates2, (), ())
    if second is not None:
        relation.apply(second)
        expected = _expected_rows(expected, second)
    _assert_relation_matches_cold_rebuild(relation, evaluator, expected, backend)


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=30, deadline=None)
@given(base=_base_rows, updates=_updates, deletes=_deletes, appends=_appends)
def test_changed_rows_detection_matches_full_report(
    backend, base, updates, deletes, appends
):
    """detect(changed_rows=...) == the full report on the final state,
    restricted to classes currently containing a changed row."""
    pfd = make_pfd("zip", "city", [{"zip": _zip_pattern, "city": "⊥"}])
    relation, evaluator = _primed(base, backend)
    batch = _batch_for(relation.row_count, updates, deletes, appends)
    if batch is None:
        return
    result = relation.apply(batch)
    changed = set(result.changed_rows)

    full = ErrorDetector([pfd], evaluator=evaluator).detect(relation)
    scoped = ErrorDetector([pfd], evaluator=evaluator).detect(
        relation, changed_rows=sorted(changed)
    )

    # Every scoped violation is a full violation, and every full violation
    # touching a changed row is in the scoped report.
    full_keys = {(v.constraint_repr, v.cells) for v in full.violations}
    scoped_keys = {(v.constraint_repr, v.cells) for v in scoped.violations}
    assert scoped_keys <= full_keys
    touching = {
        (v.constraint_repr, v.cells)
        for v in full.violations
        if any(cell.row_id in changed for cell in v.cells)
    }
    assert touching <= scoped_keys
    # Error cells agree wherever both reports speak.
    scoped_cells = {e.cell for e in scoped.errors}
    full_on_changed = {e.cell for e in full.errors if e.cell.row_id in changed}
    assert full_on_changed <= scoped_cells
    assert scoped_cells <= {e.cell for e in full.errors}


class TestApplyValidation:
    def test_out_of_range_update_raises_before_any_change(self):
        relation = Relation.from_rows(["a"], [("1",), ("2",)])
        version = relation.version
        with pytest.raises(ReproError):
            relation.apply(MutationBatch.update_cells([(5, "a", "x")]))
        assert relation.version == version
        assert relation.cell(0, "a") == "1"

    def test_unknown_attribute_raises(self):
        relation = Relation.from_rows(["a"], [("1",)])
        with pytest.raises(ReproError):
            relation.apply(MutationBatch.update_cells([(0, "nope", "x")]))

    def test_out_of_range_delete_raises(self):
        relation = Relation.from_rows(["a"], [("1",)])
        with pytest.raises(ReproError):
            relation.apply(MutationBatch.deletes([3]))

    def test_delete_marks_deleted_rows_and_blanks_cells(self):
        relation = Relation.from_rows(["a", "b"], [("1", "x"), ("2", "y")])
        result = relation.apply(MutationBatch.deletes([0]))
        assert result.deleted_rows == (0,)
        assert relation.row(0) == ("", "")
        assert relation.row(1) == ("2", "y")
        assert 0 in relation.deleted_rows
        assert relation.row_count == 2

    def test_noop_batch_reports_falsy_result(self):
        relation = Relation.from_rows(["a"], [("1",)])
        version = relation.version
        result = relation.apply(MutationBatch.update_cells([(0, "a", "1")]))
        assert not result
        assert relation.version == version


class TestSessionCrud:
    @pytest.fixture
    def session(self) -> CleaningSession:
        rows = [(f"{90000 + i:05d}", "Los Angeles") for i in range(8)] + [
            (f"{10000 + i:05d}", "New York") for i in range(8)
        ]
        session = CleaningSession.from_rows(
            ["zip", "city"], rows, name="zips", config=DiscoveryConfig(min_support=4)
        )
        session.discover()
        return session

    def test_update_flags_only_touched_classes(self, session):
        result = session.update([(0, "city", "New York")])
        assert result.updated_rows == (0,)
        report = session.detect_changed()
        assert {error.cell.row_id for error in report.errors} == {0}

    def test_detect_changed_consumes_the_pending_set(self, session):
        session.update([(0, "city", "New York")])
        session.detect_changed()
        with pytest.raises(ReproError):
            session.detect_changed()

    def test_delete_is_a_clean_delta_here(self, session):
        session.delete([0, 5])
        report = session.detect_changed()
        assert not report.errors
        assert session.relation.row(0) == ("", "")

    def test_deleting_the_offender_heals_its_class(self, session):
        session.append([("90050", "New York")])
        assert {e.cell.row_id for e in session.detect_changed().errors} == {16}
        session.delete([16])
        assert not session.detect_changed().errors

    def test_apply_preserves_discovery_memo(self, session):
        discovery = session.discovery
        session.update([(0, "city", "Chicago")])
        assert session.discovery is discovery

    def test_mixed_batch_accumulates_changed_rows(self, session):
        session.update([(1, "city", "New York")])
        session.delete([2])
        session.append([("90020", "Los Angeles")])
        report = session.detect_changed()
        assert {error.cell.row_id for error in report.errors} == {1}

    def test_detect_changed_without_mutations_raises(self, session):
        with pytest.raises(ReproError):
            session.detect_changed()

    def test_external_mutation_clears_the_pending_set(self, session):
        session.update([(0, "city", "New York")])
        session.relation.set_cell(1, "city", "New York")
        with pytest.raises(ReproError):
            session.detect_changed()

    def test_noop_update_leaves_nothing_pending(self, session):
        result = session.update([(0, "city", "Los Angeles")])
        assert not result
        # Nothing changed, so there is no pending delta to detect.
        with pytest.raises(ReproError):
            session.detect_changed()

    def test_append_row_is_removed(self, session):
        # A single row is a one-element batch through the one entry point.
        assert not hasattr(session.relation, "append_row")
        assert session.relation.append_rows([("90021", "Los Angeles")]).start == 16


class TestDictionaryTombstones:
    def test_update_to_existing_value_leaves_no_orphan_count(self):
        """set_cell onto a value already in the dictionary must shift counts,
        not grow them — the old code becomes a zero-count tombstone and the
        counts/rows_by_code invariants hold."""
        relation = Relation.from_rows(["a"], [("x",), ("y",), ("y",)])
        dictionary = relation.dictionary("a")
        relation.set_cell(0, "a", "y")
        assert dictionary.values == ("x", "y")
        assert dictionary.counts() == [0, 3]
        assert dictionary.rows_by_code() == [[], [0, 1, 2]]
        assert sum(dictionary.counts()) == relation.row_count

    def test_tombstoned_code_is_revived_on_rewrite(self):
        relation = Relation.from_rows(["a"], [("x",), ("y",)])
        dictionary = relation.dictionary("a")
        relation.set_cell(0, "a", "y")   # "x" dies
        assert dictionary.counts() == [0, 2]
        relation.set_cell(1, "a", "x")   # "x" revives — no new code allocated
        assert dictionary.values == ("x", "y")
        assert dictionary.counts() == [1, 1]
        assert dictionary.rows_by_code() == [[1], [0]]

    def test_update_delete_churn_preserves_invariants(self):
        relation = Relation.from_rows(["a"], [("x",), ("y",), ("z",)])
        dictionary = relation.dictionary("a")
        relation.apply(MutationBatch.update_cells([(0, "a", "y"), (2, "a", "x")]))
        relation.apply(MutationBatch.deletes([1]))
        relation.apply(MutationBatch.update_cells([(1, "a", "z")]))
        assert sum(dictionary.counts()) == relation.row_count
        seen = [None] * relation.row_count
        for code, rows in enumerate(dictionary.rows_by_code()):
            assert len(rows) == dictionary.counts()[code]
            for row in rows:
                assert seen[row] is None
                seen[row] = dictionary.values[code]
        assert seen == [relation.cell(r, "a") for r in range(relation.row_count)]


# -- multi-step patch battery -------------------------------------------------

_op = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=40),
        st.sampled_from(["zip", "city"]),
        st.sampled_from(_ZIPS + _CITIES),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40)),
    st.tuples(
        st.just("append"),
        st.lists(
            st.tuples(st.sampled_from(_ZIPS), st.sampled_from(_CITIES)),
            min_size=1,
            max_size=4,
        ),
    ),
)
_batch_sequences = st.lists(st.lists(_op, min_size=1, max_size=3), min_size=1, max_size=6)


def _batch_of(row_count, draws):
    """One MutationBatch from raw op draws (row ids mapped onto the
    pre-batch rows; row-targeting ops are dropped on an empty table).

    Updates are listed before deletes, the order ``_expected_rows`` replays:
    ``apply`` lets a delete win over any update of the same row.
    """
    kinds = {"update": 0, "delete": 1, "append": 2}
    ops = []
    for draw in sorted(draws, key=lambda draw: kinds[draw[0]]):
        if draw[0] == "append":
            ops.append(UpsertOp([list(row) for row in draw[1]]))
        elif row_count and draw[0] == "update":
            _, raw_row, attribute, value = draw
            ops.append(UpdateOp(raw_row % row_count, ((attribute, value),)))
        elif row_count:
            ops.append(DeleteOp([draw[1] % row_count]))
    return MutationBatch(ops) if ops else None


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=30, deadline=None)
@given(base=_base_rows, batches=_batch_sequences)
def test_patch_sequences_equal_cold_rebuild_after_every_batch(backend, base, batches):
    """Every cached leaf and intersection matches a cold rebuild after each
    batch of a sequence — patches compound on patched (and probed) leaves."""
    relation, evaluator = _primed(base, backend)
    expected = [list(row) for row in base]
    for draws in batches:
        batch = _batch_of(relation.row_count, draws)
        if batch is None:
            continue
        relation.apply(batch)
        expected = _expected_rows(expected, batch)
        _assert_relation_matches_cold_rebuild(relation, evaluator, expected, backend)


# -- patch edge cases ---------------------------------------------------------


class TestPatchCases:
    """One deterministic test per patch case, each checked against a cold
    rebuild on every backend."""

    @pytest.fixture(params=_BACKENDS)
    def backend(self, request):
        return request.param

    @staticmethod
    def _run(backend, rows, *batches):
        relation, evaluator = _primed(rows, backend)
        expected = [list(row) for row in rows]
        for batch in batches:
            relation.apply(batch)
            expected = _expected_rows(expected, batch)
            _assert_relation_matches_cold_rebuild(relation, evaluator, expected, backend)
        return relation

    def test_size_two_class_dissolves(self, backend):
        rows = [("90001", "Chicago"), ("90001", "New York"), ("10001", "Chicago")]
        relation = self._run(backend, rows, MutationBatch.update_cells([(1, "zip", "10002")]))
        assert relation.partitions().attribute_partition("zip").classes == ()

    def test_former_singleton_and_moved_row_form_a_class(self, backend):
        rows = [
            ("90001", "Chicago"),
            ("10001", "Chicago"),
            ("10001", "Chicago"),
            ("10002", "Chicago"),
            ("90003", "Chicago"),
        ]
        relation = self._run(backend, rows, MutationBatch.update_cells([(4, "zip", "90001")]))
        # The new class is seated by its smallest member, ahead of (1, 2).
        assert relation.partitions().attribute_partition("zip").classes == ((0, 4), (1, 2))

    def test_smallest_member_moves_out_of_a_class(self, backend):
        rows = [(zip_code, "Chicago") for zip_code in ("90001", "10001", "90001", "90001", "10001")]
        relation = self._run(backend, rows, MutationBatch.update_cells([(0, "zip", "10001")]))
        assert relation.partitions().attribute_partition("zip").classes == ((0, 1, 4), (2, 3))

    def test_smallest_member_moves_into_a_class(self, backend):
        rows = [(zip_code, "Chicago") for zip_code in ("90003", "90001", "10001", "90001", "10001")]
        relation = self._run(backend, rows, MutationBatch.update_cells([(0, "zip", "10001")]))
        assert relation.partitions().attribute_partition("zip").classes == ((0, 2, 4), (1, 3))

    def test_largest_member_moves_out_of_a_class(self, backend):
        rows = [(zip_code, "Chicago") for zip_code in ("90001", "10001", "90001", "10001", "90001")]
        relation = self._run(backend, rows, MutationBatch.update_cells([(4, "zip", "10001")]))
        assert relation.partitions().attribute_partition("zip").classes == ((0, 2), (1, 3, 4))

    def test_deleted_value_becomes_uncovered_and_comes_back(self, backend):
        rows = [(zip_code, "Chicago") for zip_code in ("90001", "90001", "90001", "10001", "10001")]
        relation = self._run(
            backend,
            rows,
            MutationBatch.deletes([0]),
            MutationBatch.update_cells([(0, "zip", "10001")]),
        )
        partition = relation.partitions().attribute_partition("zip")
        assert partition.classes == ((0, 3, 4), (1, 2))
        assert partition.covered == (0, 1, 2, 3, 4)

    def test_tombstoned_code_is_revived(self, backend):
        rows = [("90001", "Chicago"), ("10001", "New York"), ("10001", "New York")]
        self._run(
            backend,
            rows,
            MutationBatch.update_cells([(0, "zip", "10001")]),  # "90001" dies
            MutationBatch.update_cells([(1, "zip", "90001"), (2, "zip", "90001")]),
        )

    def test_new_distinct_value_joins_and_opens_pattern_components(self, backend):
        rows = [("90001", "Chicago"), ("90002", "Chicago"), ("10001", "Chicago")]
        relation = self._run(
            backend,
            rows,
            # "90017" is new to the dictionary but shares the "900" component;
            # "12345" opens a fresh component.
            MutationBatch.update_cells([(2, "zip", "90017")]),
            MutationBatch([UpsertOp([["12345", "Chicago"], ["12399", "Chicago"]])]),
        )
        manager = relation.partitions()
        assert manager.pattern_partition("zip", _zip_pattern).classes == ((0, 1, 2), (3, 4))

    def test_append_batch_larger_than_the_table(self, backend):
        rows = [("90001", "Chicago"), ("10001", "New York"), ("", "Chicago")]
        appended = [[_ZIPS[i % len(_ZIPS)], _CITIES[i % len(_CITIES)]] for i in range(17)]
        relation = self._run(backend, rows, MutationBatch([UpsertOp(appended)]))
        assert relation.row_count == 20


@pytest.mark.parametrize("backend", _BACKENDS)
def test_partitions_fetched_before_a_batch_are_unchanged_snapshots(backend):
    """A patch never writes the arrays of a partition handed out earlier —
    class arrays, covered rows and any built probe array stay exactly as
    they were, batch after batch."""
    rows = [(_ZIPS[i % 6], _CITIES[i % 4]) for i in range(24)]
    relation, evaluator = _primed(rows, backend)
    manager = relation.partitions()
    batches = [
        MutationBatch.update_cells([(0, "zip", "10002"), (5, "city", "Chicago")]),
        MutationBatch([DeleteOp([1, 2]), UpsertOp([["90001", "Chicago"], ["abc", ""]])]),
        MutationBatch.update_cells([(1, "zip", "90001"), (3, "zip", "90002")]),
    ]
    held = []
    for batch in batches:
        for partition in (
            manager.attribute_partition("zip"),
            manager.attribute_partition("city"),
            manager.pattern_partition("zip", _zip_pattern, evaluator=evaluator),
            manager.intersection(
                [manager.key("zip", _zip_pattern), manager.key("city")], evaluator=evaluator
            ),
        ):
            rowids, offsets = partition.class_arrays()
            held.append(
                (
                    partition,
                    rowids.copy(),
                    offsets.copy(),
                    partition.covered_array().copy(),
                    partition.probe_array().copy(),
                )
            )
        relation.apply(batch)
        for partition, rowids, offsets, covered, probe in held:
            got_rowids, got_offsets = partition.class_arrays()
            assert np.array_equal(got_rowids, rowids)
            assert np.array_equal(got_offsets, offsets)
            assert np.array_equal(partition.covered_array(), covered)
            assert np.array_equal(partition.probe_array(), probe)
