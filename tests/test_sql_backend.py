"""Out-of-core SQL backend pins: the SQLite-pushdown store vs the in-memory engine.

The `SqlRelation` contract is the same one the columnar refactor set: *bit
identical* results.  Every engine query — dictionary codes, partitions (plain,
set, and pattern-projected), PFD violations / support / row statistics,
discovery, detection, repair — must return exactly the same values (same
elements, same order) whether the rows live in the in-memory numpy engine or
in the dictionary-encoded SQLite table, including after ``append_rows`` deltas and
``set_cell`` overwrites.  Hypothesis drives random tables and appends through
both representations side by side; any divergence is a bug in a pushed-down
SQL query (or in the in-memory path it mirrors).
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core.pfd import make_pfd
from repro.dataset.csvio import estimate_csv_rows, read_csv
from repro.dataset.relation import Relation
from repro.dataset.schema import Schema
from repro.engine.backend import NUMPY, SQL
from repro.engine.evaluator import PatternEvaluator
from repro.exceptions import SchemaError
from repro.session import CleaningSession
from repro.storage import SqlDictionaryColumn, SqlRelation, SqlStrippedPartition

# Small alphabets force collisions: shared values, shared classes, empty cells.
_cells = st.text(alphabet="ab1 ", max_size=3)
_tables = st.lists(st.tuples(_cells, _cells, _cells), min_size=0, max_size=30)
_batches = st.lists(st.tuples(_cells, _cells, _cells), min_size=0, max_size=10)

_SCHEMA = ["x", "y", "z"]
_PATTERNS = [r"{{\w*}}", r"{{\d*}}\w*", r"a{{\w*}}"]


def _pair(rows):
    """The same table out-of-core and in memory."""
    return (
        Relation.from_rows(_SCHEMA, rows, backend=SQL),
        Relation.from_rows(_SCHEMA, rows, backend=NUMPY),
    )


def _assert_column_parity(sql_column, memory_column):
    assert isinstance(sql_column, SqlDictionaryColumn)
    assert sql_column.values == memory_column.values
    assert list(sql_column.codes) == list(memory_column.codes)
    assert sql_column.counts() == memory_column.counts()
    assert sql_column.rows_by_code() == memory_column.rows_by_code()


def _assert_partition_parity(sql_partition, memory_partition):
    # Aggregate counters first: they run as SQL aggregates *without*
    # materializing classes, so probe them before the lazy properties do.
    if isinstance(sql_partition, SqlStrippedPartition):
        assert sql_partition.class_count == len(memory_partition.classes)
        assert sql_partition.covered_count == len(memory_partition.covered)
    assert sql_partition.classes == memory_partition.classes
    assert sql_partition.covered == memory_partition.covered
    assert sql_partition.row_count == memory_partition.row_count
    assert sql_partition.error == memory_partition.error
    assert sql_partition.probe_table() == memory_partition.probe_table()


# -- backend selection ---------------------------------------------------------


def test_relation_backend_sql_builds_sql_relation():
    relation = Relation.from_rows(_SCHEMA, [("a", "b", "c")], backend=SQL)
    assert isinstance(relation, SqlRelation)
    assert relation.is_sql_backed
    assert isinstance(relation.dictionary("x"), SqlDictionaryColumn)
    assert isinstance(
        relation.partitions().attribute_partition("x"), SqlStrippedPartition
    )


def test_bare_relation_stays_in_memory_under_env_default(monkeypatch):
    # REPRO_ENGINE=sql routes *ingestion* (read_csv) out of core; a Relation
    # built without an explicit backend pin stays an in-memory object.
    monkeypatch.setenv("REPRO_ENGINE", "sql")
    relation = Relation.from_rows(_SCHEMA, [("a", "b", "c")])
    assert not isinstance(relation, SqlRelation)
    loaded = read_csv(io.StringIO("x,y,z\na,b,c\n"))
    assert isinstance(loaded, SqlRelation)


def test_sql_relation_cannot_switch_backends():
    # The backend is fixed when a relation is built: an out-of-core relation
    # refuses any other engine, and a session cannot re-pin it.
    assert SqlRelation(Schema(_SCHEMA), backend=SQL).backend == SQL
    with pytest.raises(ValueError):
        SqlRelation(Schema(_SCHEMA), backend=NUMPY)
    relation = Relation.from_rows(_SCHEMA, [("a", "b", "c")], backend=SQL)
    assert CleaningSession(relation, backend=SQL).stats().backend == SQL


def test_cli_rejects_unknown_engine_eagerly(tmp_path, capsys):
    # Eager validation: the CSV path is never touched, so a missing file
    # cannot mask the typo.
    code = cli_main(["clean", str(tmp_path / "nope.csv"), "--engine", "duckdb"])
    assert code == 2
    message = capsys.readouterr().err
    assert "duckdb" in message
    assert "available backends are numpy, sql" in message


def test_cli_accepts_sql_engine_end_to_end(tmp_path, capsys):
    rows = [("zip", "city")]
    rows += [(f"{90000 + i % 4:05d}", f"City{i % 4}") for i in range(16)]
    rows += [("90000", "Typo City")]
    path = tmp_path / "zips.csv"
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    code = cli_main(
        [
            "clean",
            str(path),
            "--engine",
            "sql",
            "--min-support",
            "2",
            "--noise",
            "0.1",
            "--output",
            str(tmp_path / "out.csv"),
        ]
    )
    assert code == 0, capsys.readouterr().err
    cleaned = read_csv(tmp_path / "out.csv")
    assert cleaned.cell(16, "city") == "City0"


# -- streaming CSV ingestion ---------------------------------------------------


def test_read_csv_sql_matches_in_memory_reader(tmp_path):
    text = "x,y\n a ,b\n,\n\nc,d,e\nf\n"
    path = tmp_path / "t.csv"
    path.write_text(text)
    memory = read_csv(path)
    streamed = read_csv(path, backend=SQL)
    assert isinstance(streamed, SqlRelation)
    assert streamed.schema.attribute_names == memory.schema.attribute_names
    assert streamed.name == memory.name
    assert list(streamed.iter_rows()) == list(memory.iter_rows())


def test_read_csv_sql_no_header_and_streams():
    text = "a;b;c\nd;e\n"
    memory = read_csv(io.StringIO(text), has_header=False)
    streamed = read_csv(io.StringIO(text), has_header=False, backend=SQL)
    assert streamed.schema.attribute_names == memory.schema.attribute_names
    assert list(streamed.iter_rows()) == list(memory.iter_rows())


def test_read_csv_sql_empty_raises_schema_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(SchemaError):
        read_csv(path, backend=SQL)


def test_estimate_csv_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n" + "a,b\n" * 7)
    assert estimate_csv_rows(path) == 7
    path.write_text("x,y\na,b")  # unterminated final line
    assert estimate_csv_rows(path) == 1


def test_from_csv_auto_selects_sql_over_budget(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)  # probe the budget, not the env
    path = tmp_path / "t.csv"
    path.write_text("x,y\n" + "a,b\n" * 20)
    with CleaningSession.from_csv(path, max_memory_rows=5) as session:
        assert isinstance(session.relation, SqlRelation)
    with CleaningSession.from_csv(path, max_memory_rows=100) as session:
        assert not isinstance(session.relation, SqlRelation)
    # Explicit backend always wins over the budget heuristic.
    with CleaningSession.from_csv(path, backend=NUMPY, max_memory_rows=5) as session:
        assert not isinstance(session.relation, SqlRelation)


# -- dictionary / partition parity ---------------------------------------------


@settings(max_examples=50, deadline=None)
@given(rows=_tables)
def test_dictionary_and_partition_parity(rows):
    sql_relation, memory_relation = _pair(rows)
    assert sql_relation.row_count == memory_relation.row_count
    assert list(sql_relation.iter_rows()) == list(memory_relation.iter_rows())
    for attribute in _SCHEMA:
        _assert_column_parity(
            sql_relation.dictionary(attribute), memory_relation.dictionary(attribute)
        )
        assert sql_relation.distinct_values(attribute) == memory_relation.distinct_values(
            attribute
        )
        assert sql_relation.value_counts(attribute) == memory_relation.value_counts(
            attribute
        )
        _assert_partition_parity(
            sql_relation.partitions().attribute_partition(attribute),
            memory_relation.partitions().attribute_partition(attribute),
        )
    for pair in (("x", "y"), ("x", "z"), ("x", "y", "z")):
        _assert_partition_parity(
            sql_relation.partitions().attribute_set_partition(pair),
            memory_relation.partitions().attribute_set_partition(pair),
        )


@settings(max_examples=50, deadline=None)
@given(rows=_tables, pattern=st.sampled_from(_PATTERNS))
def test_pattern_partition_parity(rows, pattern):
    sql_relation, memory_relation = _pair(rows)
    evaluators = (PatternEvaluator(), PatternEvaluator())
    partitions = [
        relation.partitions().pattern_partition("x", pattern, evaluator=evaluator)
        for relation, evaluator in zip((sql_relation, memory_relation), evaluators)
    ]
    _assert_partition_parity(*partitions)


# -- append / set_cell parity --------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(base=_tables, batch=_batches)
def test_append_parity_and_fresh_rebuild(base, batch):
    sql_relation, memory_relation = _pair(base)
    # Prime the caches so append exercises the delta-maintenance paths.
    for relation in (sql_relation, memory_relation):
        for attribute in _SCHEMA:
            relation.dictionary(attribute)
            relation.partitions().attribute_partition(attribute)
        relation.partitions().attribute_set_partition(("x", "y")).probe_table()
    sql_relation.append_rows(batch)
    memory_relation.append_rows(batch)
    fresh = Relation.from_rows(_SCHEMA, list(base) + list(batch), backend=SQL)
    for attribute in _SCHEMA:
        _assert_column_parity(
            sql_relation.dictionary(attribute), memory_relation.dictionary(attribute)
        )
        patched = sql_relation.partitions().attribute_partition(attribute)
        _assert_partition_parity(
            patched, memory_relation.partitions().attribute_partition(attribute)
        )
        rebuilt = fresh.partitions().attribute_partition(attribute)
        assert patched.classes == rebuilt.classes
        assert patched.covered == rebuilt.covered
    _assert_partition_parity(
        sql_relation.partitions().attribute_set_partition(("x", "y")),
        memory_relation.partitions().attribute_set_partition(("x", "y")),
    )


@settings(max_examples=40, deadline=None)
@given(base=_tables, batch=_batches, pattern=st.sampled_from(_PATTERNS))
def test_pattern_partition_extend_parity(base, batch, pattern):
    sql_relation, memory_relation = _pair(base)
    evaluators = (PatternEvaluator(), PatternEvaluator())
    for relation, evaluator in zip((sql_relation, memory_relation), evaluators):
        relation.partitions().pattern_partition("x", pattern, evaluator=evaluator)
    sql_relation.append_rows(batch)
    memory_relation.append_rows(batch)
    partitions = [
        relation.partitions().pattern_partition("x", pattern, evaluator=evaluator)
        for relation, evaluator in zip((sql_relation, memory_relation), evaluators)
    ]
    _assert_partition_parity(*partitions)


def test_set_cell_parity():
    rows = [("a", "b", "c"), ("a", "b", "d"), ("e", "b", "c")]
    sql_relation, memory_relation = _pair(rows)
    for relation in (sql_relation, memory_relation):
        relation.partitions().attribute_partition("x")
        relation.set_cell(1, "x", "e")
    assert list(sql_relation.iter_rows()) == list(memory_relation.iter_rows())
    _assert_column_parity(sql_relation.dictionary("x"), memory_relation.dictionary("x"))
    _assert_partition_parity(
        sql_relation.partitions().attribute_partition("x"),
        memory_relation.partitions().attribute_partition("x"),
    )


# -- PFD query parity ----------------------------------------------------------

_variable_pfd = make_pfd("x", "y", [{"x": "⊥", "y": "⊥"}])
_mixed_pfd = make_pfd(("x", "y"), "z", [{"x": r"{{\w*}}", "y": "⊥", "z": "⊥"}])
# Constant rows: their LHS constrained parts and RHS cells are constants, so
# each applies to single tuples.
_constant_pfds = [
    make_pfd("x", "y", [{"x": r"{{a}}\A*", "y": "b"}]),
    make_pfd(("x", "y"), "z", [{"x": r"{{a}}\A*", "y": r"\A*{{b}}", "z": "1"}]),
    make_pfd("x", ("y", "z"), [{"x": r"{{1}}\A*", "y": "a", "z": r"b\ "}]),
    # Overlapping patterns: "ab" matches both rows.
    make_pfd("x", "y", [{"x": r"{{a}}\A*", "y": "a"}, {"x": r"\A*{{b}}", "y": "b"}]),
    # The expected value occurs in no column.
    make_pfd("x", "y", [{"x": r"{{a}}\A*", "y": "zz"}]),
]
_pfds = [_variable_pfd, _mixed_pfd, *_constant_pfds]


def test_constant_pfds_are_constant():
    assert all(pfd.is_constant for pfd in _constant_pfds)


@settings(max_examples=50, deadline=None)
@given(rows=_tables, pfd=st.sampled_from(_pfds))
def test_pfd_query_parity(rows, pfd):
    sql_relation, memory_relation = _pair(rows)
    assert pfd.violations(sql_relation) == pfd.violations(memory_relation)
    assert pfd.support(sql_relation) == pfd.support(memory_relation)
    assert pfd.coverage(sql_relation) == pfd.coverage(memory_relation)
    for row in pfd.tableau:
        assert pfd.matching_rows(sql_relation, row) == pfd.matching_rows(memory_relation, row)
    assert pfd.row_statistics(sql_relation) == pfd.row_statistics(memory_relation)


@settings(max_examples=40, deadline=None)
@given(base=_tables, batch=_batches, pfd=st.sampled_from(_pfds), data=st.data())
def test_pfd_delta_violations_parity(base, batch, pfd, data):
    sql_relation, memory_relation = _pair(base)
    for relation in (sql_relation, memory_relation):
        pfd.violations(relation)  # prime pre-append state
    since = sql_relation.row_count
    sql_relation.append_rows(batch)
    memory_relation.append_rows(batch)
    delta = range(since, sql_relation.row_count)
    assert pfd.violations(sql_relation, changed_rows=delta) == pfd.violations(
        memory_relation, changed_rows=delta
    )
    scope = data.draw(st.sets(st.integers(0, max(sql_relation.row_count - 1, 0))))
    scope = [row_id for row_id in scope if row_id < sql_relation.row_count]
    assert pfd.violations(sql_relation, changed_rows=scope) == pfd.violations(
        memory_relation, changed_rows=scope
    )


# -- pipeline parity -----------------------------------------------------------

_zip_rows = [(f"{90000 + i % 7:05d}", f"City{i % 7}") for i in range(40)] + [
    ("90001", "Wrong1"),
    ("90002", "Wrong2"),
]


def _pipeline(backend):
    session = CleaningSession.from_rows(["zip", "city"], list(_zip_rows), backend=backend)
    return session.discover(), session.detect(), session.repair(), session


def test_discover_detect_repair_parity():
    results = {backend: _pipeline(backend) for backend in (SQL, NUMPY)}
    sql_discovery, sql_detection, sql_repair, _ = results[SQL]
    mem_discovery, mem_detection, mem_repair, _ = results[NUMPY]
    assert [str(d.pfd) for d in sql_discovery.dependencies] == [
        str(d.pfd) for d in mem_discovery.dependencies
    ]
    assert [
        (d.support, d.coverage) for d in sql_discovery.dependencies
    ] == [(d.support, d.coverage) for d in mem_discovery.dependencies]
    assert sql_discovery.pfds == mem_discovery.pfds
    assert sql_detection.errors == mem_detection.errors
    assert sql_detection.violations == mem_detection.violations
    assert sql_detection.backend == SQL
    assert sql_repair.repairs == mem_repair.repairs
    assert list(sql_repair.relation.iter_rows()) == list(mem_repair.relation.iter_rows())


def test_detector_parity_after_append():
    reports = {}
    for backend in (SQL, NUMPY):
        session = CleaningSession.from_rows(
            ["zip", "city"], list(_zip_rows), backend=backend
        )
        pfds = session.discover().pfds
        session.append([("90003", "City3"), ("90001", "Wrong9")])
        reports[backend] = session.detect_new(pfds)
    assert reports[SQL].errors == reports[NUMPY].errors
    assert reports[SQL].violations == reports[NUMPY].violations
