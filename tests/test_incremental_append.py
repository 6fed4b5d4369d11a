"""The incremental append path: delta-maintained caches == full rebuild.

The tentpole guarantee of batch ingestion is that every cache
``Relation.append_rows`` extends in place — dictionary-encoded columns, the
evaluator's pattern-match masks, and the stripped-partition layer — is
**bit-identical** to what a from-scratch rebuild over the concatenated rows
would produce, so every downstream consumer (discovery, validation,
detection, repair) sees exactly the same classes, codes, and reports.  The
hypothesis properties below pin that equivalence on random tables and random
appended batches; the unit tests cover detection scoped to the appended rows,
the session ``append``/``detect_new`` workflow, and the CLI ``ingest``
subcommand.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning.detector import ErrorDetector
from repro.cli import main as cli_main
from repro.core.pfd import make_pfd
from repro.dataset.csvio import write_csv
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.engine.evaluator import PatternEvaluator
from repro.exceptions import ReproError
from repro.session import CleaningSession

# A small value pool keeps equivalence classes (and pattern matches) dense
# enough that random tables actually exercise promotions, new distinct
# values, empty cells, and violations.
_ZIPS = ["90001", "90002", "90003", "10001", "10002", "abc", ""]
_CITIES = ["Los Angeles", "New York", "Chicago", ""]

_zip_pattern = r"{{\D{3}}}\D{2}"

_base_rows = st.lists(
    st.tuples(st.sampled_from(_ZIPS), st.sampled_from(_CITIES)),
    min_size=0,
    max_size=16,
)
_batch_rows = st.lists(
    st.tuples(st.sampled_from(_ZIPS), st.sampled_from(_CITIES)),
    min_size=1,
    max_size=6,
)


def _primed_relation(rows) -> tuple[Relation, PatternEvaluator]:
    """A relation with every cache layer warm (the ingest starting point)."""
    relation = Relation.from_rows(["zip", "city"], rows, name="R")
    evaluator = PatternEvaluator()
    for attribute in relation.attribute_names:
        evaluator.match_column_many(
            [_zip_pattern, r"\D{5}"], relation.dictionary(attribute)
        )
    manager = relation.partitions()
    manager.attribute_partition("zip")
    manager.attribute_partition("city")
    manager.pattern_partition("zip", _zip_pattern, evaluator=evaluator)
    manager.intersection(
        [manager.key("zip", _zip_pattern), manager.key("city")], evaluator=evaluator
    )
    manager.attribute_set_partition(("zip", "city"))
    return relation, evaluator


def _assert_partitions_equal(got, want, label):
    assert got.classes == want.classes, label
    assert got.covered == want.covered, label
    assert got.row_count == want.row_count, label


@settings(max_examples=80, deadline=None)
@given(base=_base_rows, batch=_batch_rows)
def test_extended_caches_equal_full_rebuild(base, batch):
    """Dictionaries, masks, and partitions after ``append_rows`` match a
    from-scratch build over the concatenated rows, bit for bit."""
    relation, evaluator = _primed_relation(base)
    relation.append_rows(batch)

    fresh = Relation.from_rows(["zip", "city"], base + batch, name="R")
    fresh_evaluator = PatternEvaluator()

    for attribute in relation.attribute_names:
        column = relation.dictionary(attribute)
        fresh_column = fresh.dictionary(attribute)
        assert column.values == fresh_column.values
        assert list(column.codes) == list(fresh_column.codes)
        assert column.rows_by_code() == fresh_column.rows_by_code()
        assert column.counts() == fresh_column.counts()

        match_set = evaluator.match_column_many([_zip_pattern, r"\D{5}"], column)
        fresh_set = fresh_evaluator.match_column_many(
            [_zip_pattern, r"\D{5}"], fresh_column
        )
        for pattern in (_zip_pattern, r"\D{5}"):
            assert match_set.matched_mask(pattern) == fresh_set.matched_mask(pattern)
        match = evaluator.match_column(_zip_pattern, column)
        fresh_match = fresh_evaluator.match_column(_zip_pattern, fresh_column)
        assert [r.matched for r in match.results] == [
            r.matched for r in fresh_match.results
        ]
        assert [r.constrained_value for r in match.results] == [
            r.constrained_value for r in fresh_match.results
        ]

    manager = relation.partitions()
    fresh_manager = fresh.partitions()
    _assert_partitions_equal(
        manager.attribute_partition("zip"),
        fresh_manager.attribute_partition("zip"),
        "attribute zip",
    )
    _assert_partitions_equal(
        manager.attribute_partition("city"),
        fresh_manager.attribute_partition("city"),
        "attribute city",
    )
    _assert_partitions_equal(
        manager.pattern_partition("zip", _zip_pattern, evaluator=evaluator),
        fresh_manager.pattern_partition("zip", _zip_pattern, evaluator=fresh_evaluator),
        "pattern zip",
    )
    keys = [manager.key("zip", _zip_pattern), manager.key("city")]
    fresh_keys = [fresh_manager.key("zip", _zip_pattern), fresh_manager.key("city")]
    _assert_partitions_equal(
        manager.intersection(keys, evaluator=evaluator),
        fresh_manager.intersection(fresh_keys, evaluator=fresh_evaluator),
        "pattern intersection",
    )
    _assert_partitions_equal(
        manager.attribute_set_partition(("zip", "city")),
        fresh_manager.attribute_set_partition(("zip", "city")),
        "attribute intersection",
    )


@settings(max_examples=60, deadline=None)
@given(base=_base_rows, batch=_batch_rows)
def test_detection_on_extended_caches_equals_full_rebuild(base, batch):
    """``detect`` over delta-maintained caches == ``detect`` from scratch,
    and the report scoped to the appended rows == the full report filtered to
    violations touching the delta."""
    pfd = make_pfd("zip", "city", [{"zip": _zip_pattern, "city": "⊥"}])

    relation, evaluator = _primed_relation(base)
    relation.append_rows(batch)
    start = len(base)

    fresh = Relation.from_rows(["zip", "city"], base + batch, name="R")
    fresh_evaluator = PatternEvaluator()

    full = ErrorDetector([pfd], evaluator=evaluator).detect(relation)
    fresh_full = ErrorDetector([pfd], evaluator=fresh_evaluator).detect(fresh)
    assert full.error_cells == fresh_full.error_cells
    assert [
        (e.cell, e.current_value, e.suggested_value, e.evidence_count)
        for e in full.errors
    ] == [
        (e.cell, e.current_value, e.suggested_value, e.evidence_count)
        for e in fresh_full.errors
    ]

    scoped = ErrorDetector([pfd], evaluator=evaluator).detect(
        relation, changed_rows=range(start, relation.row_count)
    )
    touching = [
        violation
        for violation in fresh_full.violations
        if any(cell.row_id >= start for cell in violation.cells)
    ]
    assert [(v.constraint_repr, v.cells) for v in scoped.violations] == [
        (v.constraint_repr, v.cells) for v in touching
    ]


class TestAppendRows:
    def test_append_rows_returns_range_and_accepts_mappings(self):
        relation = Relation.from_rows(["a", "b"], [("1", "x")])
        appended = relation.append_rows([("2", "y"), {"a": "3"}])
        assert appended == range(1, 3)
        assert relation.row(2) == ("3", "")

    def test_empty_batch_is_a_noop(self):
        relation = Relation.from_rows(["a"], [("1",)])
        version = relation.version
        dictionary = relation.dictionary("a")
        assert relation.append_rows([]) == range(1, 1)
        assert relation.version == version
        assert relation.dictionary("a") is dictionary
        assert dictionary.row_count == 1

    def test_append_rows_extends_dictionary_in_place(self):
        relation = Relation.from_rows(["a"], [("1",), ("2",)])
        dictionary = relation.dictionary("a")
        relation.append_rows([("2",), ("3",)])
        assert relation.dictionary("a") is dictionary
        assert dictionary.values == ("1", "2", "3")
        assert list(dictionary.codes) == [0, 1, 1, 2]

    def test_uncached_state_stays_lazy(self):
        relation = Relation.from_rows(["a"], [("1",)])
        relation.append_rows([("2",)])
        assert relation.dictionary("a").values == ("1", "2")

    def test_set_cell_patches_the_dictionary_in_place(self):
        relation = Relation.from_rows(["a", "b"], [("1", "x"), ("2", "y")])
        relation.append_rows([("3", "z")])
        dictionary = relation.dictionary("a")
        version = relation.version
        relation.set_cell(0, "a", "9")
        # The dictionary object survives (memoized evaluator masks stay
        # valid); the old code becomes a zero-count tombstone.
        assert relation.dictionary("a") is dictionary
        assert relation.version == version + 1
        assert dictionary.values == ("1", "2", "3", "9")
        assert list(dictionary.codes) == [3, 1, 2]
        assert dictionary.counts()[0] == 0
        assert relation.cell(0, "a") == "9"

    def test_set_cell_noop_write_does_not_bump_version(self):
        relation = Relation.from_rows(["a"], [("1",), ("2",)])
        version = relation.version
        relation.set_cell(1, "a", "2")
        assert relation.version == version


class TestSessionIngestion:
    @pytest.fixture
    def session(self) -> CleaningSession:
        rows = [(f"{90000 + i:05d}", "Los Angeles") for i in range(8)] + [
            (f"{10000 + i:05d}", "New York") for i in range(8)
        ]
        return CleaningSession.from_rows(
            ["zip", "city"], rows, name="zips", config=DiscoveryConfig(min_support=4)
        )

    def test_append_preserves_discovery(self, session):
        result = session.discover()
        appended = session.append([("90100", "Los Angeles")])
        assert appended == range(16, 17)
        assert session.discovery is result
        assert session.discover() is result

    def test_append_drops_stale_detection(self, session):
        session.discover()
        report = session.detect()
        session.append([("90100", "New York")])
        assert session.detect() is not report

    def test_detect_new_flags_only_delta_errors(self, session):
        session.discover()
        assert len(session.detect()) == 0
        # Both rows join the existing "900"-prefix class; only the New York
        # one is the minority there.
        session.append([("90008", "Los Angeles"), ("90009", "New York")])
        report = session.detect_new()
        assert {error.cell.row_id for error in report.errors} == {17}
        assert report.errors[0].suggested_value == "Los Angeles"

    def test_detect_new_consumes_the_pending_delta(self, session):
        session.discover()
        session.append([("90100", "Los Angeles")])
        session.detect_new()
        with pytest.raises(ReproError):
            session.detect_new()

    def test_detect_new_consumes_the_delta_detect_changed_would_see(self, session):
        # One pending delta: the appended rows are not reported a second time.
        session.discover()
        session.append([("90009", "New York")])
        assert {error.cell.row_id for error in session.detect_new().errors} == {16}
        with pytest.raises(ReproError):
            session.detect_changed()

    def test_detect_new_after_an_update_reports_the_update(self, session):
        session.discover()
        session.update([(0, "city", "New York")])
        assert {error.cell.row_id for error in session.detect_new().errors} == {0}

    def test_consecutive_appends_accumulate_one_delta(self, session):
        session.discover()
        session.append([("90008", "New York")])
        session.append([("90009", "Los Angeles")])
        report = session.detect_new()
        assert {error.cell.row_id for error in report.errors} == {16}

    def test_detect_new_without_append_raises(self, session):
        session.discover()
        with pytest.raises(ReproError):
            session.detect_new()

    def test_external_mutation_clears_the_pending_delta(self, session):
        session.discover()
        session.append([("90100", "Los Angeles")])
        session.relation.set_cell(0, "city", "New York")
        with pytest.raises(ReproError):
            session.detect_new()

    def test_detect_new_runs_on_extended_caches(self, session):
        """After discover primed the engine, the delta pass compiles no new
        pattern sets and builds no partition (its classes come from the
        leaves' grouping states).

        Pinned serial: the counters describe the parent-process caches, which
        sharded stages under REPRO_WORKERS would leave cold (workers prime
        their own copies)."""
        session.workers = 1
        session.discover()
        session.detect()
        before = session.stats()
        session.append([("90100", "Los Angeles")] * 2)
        session.detect_new()
        after = session.stats()
        assert after.pattern_set_compilations == before.pattern_set_compilations
        assert after.partitions.misses == before.partitions.misses


class TestCliIngest:
    @pytest.fixture
    def base_csv(self, tmp_path):
        rows = [(f"{90000 + i:05d}", "Los Angeles") for i in range(4)] * 4
        relation = Relation.from_rows(["zip", "city"], rows, name="base")
        path = tmp_path / "base.csv"
        write_csv(relation, path)
        return path

    def _batch_csv(self, tmp_path, rows):
        relation = Relation.from_rows(["zip", "city"], rows, name="batch")
        path = tmp_path / "batch.csv"
        write_csv(relation, path)
        return path

    def test_ingest_reports_exactly_the_new_errors(self, tmp_path, base_csv, capsys):
        batch = self._batch_csv(
            tmp_path, [("90004", "Los Angeles"), ("90000", "Las Angeles")]
        )
        report_path = tmp_path / "delta.json"
        merged_path = tmp_path / "merged.csv"
        exit_code = cli_main(
            [
                "ingest", str(base_csv), str(batch),
                "--min-support", "2", "--noise", "0.1",
                "--output", str(merged_path),
                "--report", str(report_path),
            ]
        )
        assert exit_code == 1
        report = json.loads(report_path.read_text())
        assert report["rows_appended"] == 2
        assert report["appended_start"] == 16
        assert report["error_rows"] == [17]
        assert report["errors"][0]["suggested"] == "Los Angeles"
        assert report["clean"] is False
        merged = merged_path.read_text().splitlines()
        assert len(merged) == 1 + 16 + 2

    def test_ingest_clean_batch_exits_zero(self, tmp_path, base_csv):
        batch = self._batch_csv(tmp_path, [("90000", "Los Angeles")])
        exit_code = cli_main(
            ["ingest", str(base_csv), str(batch), "--min-support", "2"]
        )
        assert exit_code == 0

    def test_ingest_empty_batch_is_a_clean_delta(self, tmp_path, base_csv):
        path = tmp_path / "empty.csv"
        path.write_text("zip,city\n")
        report_path = tmp_path / "delta.json"
        exit_code = cli_main(
            ["ingest", str(base_csv), str(path), "--min-support", "2",
             "--report", str(report_path)]
        )
        assert exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["rows_appended"] == 0
        assert report["clean"] is True

    def test_ingest_rejects_mismatched_columns(self, tmp_path, base_csv):
        relation = Relation.from_rows(["zip", "state"], [("90000", "CA")], name="bad")
        path = tmp_path / "bad.csv"
        write_csv(relation, path)
        assert cli_main(["ingest", str(base_csv), str(path)]) == 2
