"""Engine pins: the NumPy engine vs the seed's dict-grouping references.

The in-memory engine keeps its state as ndarrays — ``int32`` code vectors,
boolean match masks, ``(rowids, offsets)`` class arrays — and every engine
query built on them (dictionary codes, row lists, partitions, intersections,
PFD violations, support, row statistics) must return exactly what the
seed's row-at-a-time dict-grouping implementations return, including after
``append_rows`` deltas.  The references live in ``test_engine_partitions``
as test-only oracles; hypothesis drives random tables, appends, and queries
through both.  Backend selection itself is pinned here too: ``numpy`` and
``sql`` are the only engines, and anything else fails with that list.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning.detector import ErrorDetector
from repro.cli import main as cli_main
from repro.core.pfd import make_pfd
from repro.dataset.csvio import read_csv
from repro.dataset.relation import Relation
from repro.engine.backend import (
    NUMPY,
    SQL,
    available_backends,
    default_backend,
    resolve_backend,
)
from repro.engine.dictionary import DictionaryColumn
from repro.engine.evaluator import PatternEvaluator
from repro.patterns.matcher import compile_pattern
from repro.session import CleaningSession

from test_engine_partitions import (
    _reference_attribute_keys,
    _reference_classes,
    _reference_lhs_keys,
    _reference_suspects,
    _reference_support,
)

# Small alphabets force collisions: shared values, shared classes, empty cells.
_cells = st.text(alphabet="ab1 ", max_size=3)
_tables = st.lists(
    st.tuples(_cells, _cells, _cells), min_size=0, max_size=30
)
_batches = st.lists(
    st.tuples(_cells, _cells, _cells), min_size=0, max_size=10
)

_SCHEMA = ["x", "y", "z"]
_PATTERNS = [r"{{\w*}}", r"{{\d*}}\w*", r"a{{\w*}}"]


def _reference_column(relation: Relation, attribute: str):
    """First-seen dictionary values, per-row codes, and row lists."""
    code_of: dict[str, int] = {}
    codes = [code_of.setdefault(value, len(code_of)) for value in relation.column(attribute)]
    rows_by_code: list[list[int]] = [[] for _ in code_of]
    for row_id, code in enumerate(codes):
        rows_by_code[code].append(row_id)
    return tuple(code_of), codes, rows_by_code


def _assert_column_matches_reference(relation: Relation, attribute: str):
    column = relation.dictionary(attribute)
    values, codes, rows_by_code = _reference_column(relation, attribute)
    assert column.codes.dtype.name == "int32"
    assert column.values == values
    assert column.codes.tolist() == codes
    assert column.rows_by_code() == rows_by_code
    assert column.counts() == [len(rows) for rows in rows_by_code]


def _assert_partition_matches(partition, classes, covered, row_count):
    assert list(partition.classes) == classes
    assert list(partition.covered) == covered
    assert partition.row_count == row_count
    stripped = sum(len(rows) for rows in classes)
    expected_error = (stripped - len(classes)) / row_count if row_count else 0.0
    assert partition.error == expected_error
    assert partition.probe_table() == {
        row: index for index, rows in enumerate(classes) for row in rows
    }


def _pattern_keys(relation: Relation, attribute: str, pattern: str):
    """Row id -> constrained part, via the seed's per-row reference."""
    pfd = make_pfd(attribute, "z", [{attribute: pattern, "z": "⊥"}])
    return _reference_lhs_keys(pfd, relation, next(iter(pfd.tableau)))


def _reference_minority_rows(classes, codes) -> list[int]:
    suspects: list[int] = []
    for class_rows in classes:
        buckets: dict[int, list[int]] = {}
        for row in class_rows:
            buckets.setdefault(codes[row], []).append(row)
        majority = max(buckets.items(), key=lambda item: (len(item[1]), -item[0]))[0]
        suspects.extend(row for code, rows in buckets.items() if code != majority for row in rows)
    return sorted(suspects)


# -- backend selection ---------------------------------------------------------


def test_available_backends_include_both_with_numpy():
    assert available_backends() == (NUMPY, SQL)


def test_resolve_backend_rejects_unknown_names():
    for name in ("polars", "python"):
        with pytest.raises(ValueError):
            resolve_backend(name)


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_backend() == NUMPY
    monkeypatch.setenv("REPRO_ENGINE", "sql")
    assert default_backend() == SQL
    monkeypatch.setenv("REPRO_ENGINE", "numpy")
    assert default_backend() == NUMPY
    monkeypatch.setenv("REPRO_ENGINE", "parquet")
    with pytest.raises(ValueError):
        default_backend()


def test_python_engine_fails_with_available_backends(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_ENGINE", "python")
    with pytest.raises(ValueError, match="available backends are numpy, sql"):
        read_csv(tmp_path / "unread.csv")
    monkeypatch.delenv("REPRO_ENGINE")
    assert cli_main(["clean", str(tmp_path / "unread.csv"), "--engine", "python"]) == 2
    message = capsys.readouterr().err
    assert "'python'" in message and "available backends are numpy, sql" in message


def test_in_memory_relations_are_numpy():
    relation = Relation.from_rows(_SCHEMA, [("a", "b", "c")], backend=NUMPY)
    assert relation.backend == NUMPY
    assert Relation.from_rows(_SCHEMA, [("a", "b", "c")]).backend == NUMPY
    assert DictionaryColumn.from_values(["a", "b", "a"]).codes.tolist() == [0, 1, 0]
    with pytest.raises(ValueError):
        CleaningSession(relation, backend="python")


# -- dictionary / partition pins -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(rows=_tables)
def test_dictionary_and_partition_parity(rows):
    relation = Relation.from_rows(_SCHEMA, rows)
    manager = relation.partitions()
    for attribute in _SCHEMA:
        _assert_column_matches_reference(relation, attribute)
        _assert_partition_matches(
            manager.attribute_partition(attribute),
            *_reference_classes(_reference_attribute_keys(relation, (attribute,))),
            len(rows),
        )
    rhs_codes = relation.dictionary("z").codes
    for lhs in (("x", "y"), ("x", "z"), ("x", "y", "z")):
        classes, covered = _reference_classes(_reference_attribute_keys(relation, lhs))
        partition = manager.attribute_set_partition(lhs)
        _assert_partition_matches(partition, classes, covered, len(rows))
        assert partition.refines_codes(rhs_codes) == all(
            len({int(rhs_codes[row]) for row in rows}) == 1 for rows in classes
        )
        assert partition.minority_rows(rhs_codes) == _reference_minority_rows(
            classes, rhs_codes
        )


@settings(max_examples=60, deadline=None)
@given(rows=_tables, pattern=st.sampled_from(_PATTERNS))
def test_pattern_partition_and_mask_parity(rows, pattern):
    relation = Relation.from_rows(_SCHEMA, rows)
    evaluator = PatternEvaluator()
    _assert_partition_matches(
        relation.partitions().pattern_partition("x", pattern, evaluator=evaluator),
        *_reference_classes(_pattern_keys(relation, "x", pattern)),
        len(rows),
    )
    compiled = compile_pattern(pattern)
    column = relation.dictionary("x")
    match = evaluator.match_column(pattern, column)
    assert match.matched_mask() == [compiled.match(v).matched for v in column.values]
    matching = [
        row_id for row_id, value in enumerate(relation.column("x"))
        if compiled.match(value).matched
    ]
    assert match.matching_rows() == matching
    assert match.match_count() == len(matching)
    values = relation.column("y")
    match_set = evaluator.match_column_many(_PATTERNS, relation.dictionary("y"))
    for member in _PATTERNS:
        member_compiled = compile_pattern(member)
        matching = [
            row_id for row_id, value in enumerate(values)
            if member_compiled.match(value).matched
        ]
        assert match_set.matched_mask(member) == [
            member_compiled.match(v).matched for v in relation.dictionary("y").values
        ]
        assert match_set.matching_rows(member) == matching
        assert match_set.match_count(member) == len(matching)


# -- append (extend delta) pins ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(base=_tables, batch=_batches)
def test_append_parity_and_fresh_rebuild(base, batch):
    relation = Relation.from_rows(_SCHEMA, base)
    # Prime the caches so append exercises the delta-maintenance paths.
    for attribute in _SCHEMA:
        relation.dictionary(attribute).rows_by_code()
        relation.partitions().attribute_partition(attribute)
    relation.partitions().attribute_set_partition(("x", "y")).probe_table()
    relation.append_rows(batch)
    fresh = Relation.from_rows(_SCHEMA, list(base) + list(batch))
    row_count = len(base) + len(batch)
    for attribute in _SCHEMA:
        _assert_column_matches_reference(relation, attribute)
        patched = relation.partitions().attribute_partition(attribute)
        _assert_partition_matches(
            patched,
            *_reference_classes(_reference_attribute_keys(fresh, (attribute,))),
            row_count,
        )
        # The delta path equals a cold rebuild, classes and all.
        rebuilt = fresh.partitions().attribute_partition(attribute)
        assert patched.classes == rebuilt.classes
        assert patched.covered == rebuilt.covered
    _assert_partition_matches(
        relation.partitions().attribute_set_partition(("x", "y")),
        *_reference_classes(_reference_attribute_keys(fresh, ("x", "y"))),
        row_count,
    )


@settings(max_examples=40, deadline=None)
@given(base=_tables, batch=_batches, pattern=st.sampled_from(_PATTERNS))
def test_pattern_partition_extend_parity(base, batch, pattern):
    relation = Relation.from_rows(_SCHEMA, base)
    evaluator = PatternEvaluator()
    relation.partitions().pattern_partition("x", pattern, evaluator=evaluator).probe_table()
    relation.append_rows(batch)
    fresh = Relation.from_rows(_SCHEMA, list(base) + list(batch))
    _assert_partition_matches(
        relation.partitions().pattern_partition("x", pattern, evaluator=evaluator),
        *_reference_classes(_pattern_keys(fresh, "x", pattern)),
        len(base) + len(batch),
    )


# -- PFD query pins ------------------------------------------------------------

_variable_pfd = make_pfd("x", "y", [{"x": "⊥", "y": "⊥"}])
_mixed_pfd = make_pfd(
    ("x", "y"), "z", [{"x": r"{{\w*}}", "y": "⊥", "z": "⊥"}]
)
_constant_pfd = make_pfd("x", "y", [{"x": r"a{{\w*}}", "y": "a"}])


@settings(max_examples=60, deadline=None)
@given(rows=_tables, pfd=st.sampled_from([_variable_pfd, _mixed_pfd, _constant_pfd]))
def test_pfd_query_parity(rows, pfd):
    relation = Relation.from_rows(_SCHEMA, rows)
    (row,) = pfd.tableau  # single-row tableaux: every violation is row's
    reference = _reference_suspects(pfd, relation)
    assert {
        cell.row_id for violation in pfd.violations(relation) for cell in violation.suspect_cells
    } == reference[row]
    assert pfd.support(relation) == _reference_support(pfd, relation)
    for statistics in pfd.row_statistics(relation):
        assert statistics.support == len(_reference_lhs_keys(pfd, relation, statistics.row))
        assert statistics.violating_tuples == len(reference[statistics.row])


@settings(max_examples=40, deadline=None)
@given(base=_tables, batch=_batches)
def test_pfd_delta_violations_parity(base, batch):
    relation = Relation.from_rows(_SCHEMA, base)
    _variable_pfd.violations(relation)  # prime pre-append state
    since = relation.row_count
    relation.append_rows(batch)
    fresh = Relation.from_rows(_SCHEMA, list(base) + list(batch))
    # The scoped search is the full report restricted to the classes the
    # delta touched (a violation's cells are its whole class).
    expected = [
        violation
        for violation in _variable_pfd.violations(fresh)
        if any(cell.row_id >= since for cell in violation.cells)
    ]
    assert (
        _variable_pfd.violations(relation, changed_rows=range(since, relation.row_count))
        == expected
    )


# -- pipeline pins -------------------------------------------------------------

_zip_rows = (
    [(f"{90000 + i % 7:05d}", f"City{i % 7}") for i in range(40)]
    + [("90001", "Wrong1"), ("90002", "Wrong2")]
)


def test_discover_detect_repair_parity():
    session = CleaningSession.from_rows(["zip", "city"], list(_zip_rows))
    discovery = session.discover()
    detection = session.detect()
    repair = session.repair()
    assert discovery.pfds
    assert detection.backend == NUMPY
    assert session.stats().backend == NUMPY
    # The two planted typos — and nothing else — are detected and repaired.
    assert sorted({error.cell.row_id for error in detection.errors}) == [40, 41]
    assert [repair.relation.cell(row, "city") for row in (40, 41)] == ["City1", "City2"]
    assert list(repair.relation.iter_rows())[:40] == _zip_rows[:40]


def test_detector_parity_after_append():
    session = CleaningSession.from_rows(["zip", "city"], list(_zip_rows))
    pfds = session.discover().pfds
    since = session.relation.row_count
    session.append([("90003", "City3"), ("90001", "Wrong9")])
    delta = session.detect_new(pfds)
    full = ErrorDetector(pfds).detect(session.relation)
    assert delta.violations == [
        violation
        for violation in full.violations
        if any(cell.row_id >= since for cell in violation.cells)
    ]
    assert 43 in {error.cell.row_id for error in delta.errors}
    assert {error.cell for error in delta.errors} <= full.error_cells


def test_detect_errors_report_records_backend():
    relation = Relation.from_rows(["zip", "city"], _zip_rows, backend=NUMPY)
    report = ErrorDetector([_variable_pfd_zip()]).detect(relation)
    assert report.backend == NUMPY


def _variable_pfd_zip():
    return make_pfd("zip", "city", [{"zip": "⊥", "city": "⊥"}])
