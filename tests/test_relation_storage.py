"""Dictionary codes are a relation's only storage, on every backend.

A relation keeps one :class:`~repro.engine.dictionary.DictionaryColumn` per
attribute and nothing else, so every read decodes through it and every
mutation patches it.  The batteries here drive random append / update /
delete batches (empty strings, revived values, tombstoned codes) and pin:

- every read (``cell``, ``row``, ``row_dict``, ``column``, ``iter_rows``,
  ``value_counts``, ``distinct_values``, ``active_domain``) against a plain
  list-of-lists model;
- derived relations (``copy``, ``project``, ``select_rows``, ``concat``)
  against a cold :meth:`DictionaryColumn.from_values` of their cells —
  first-seen codes, no zero-count tombstones, ``has_updates`` false;
- the CSV round trip ``write_csv`` → ``read_csv`` → ``write_csv``, byte
  for byte.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.csvio import read_csv, write_csv
from repro.dataset.mutations import DeleteOp, MutationBatch, UpdateOp, UpsertOp
from repro.dataset.relation import Relation, concat
from repro.engine.backend import available_backends
from repro.engine.dictionary import DictionaryColumn

_BACKENDS = available_backends()
_NAMES = ("a", "b", "c")
_VALUES = ["x", "y", "z", "w", "", "x,y", 'q"r']

_rows = st.lists(st.tuples(*[st.sampled_from(_VALUES)] * len(_NAMES)), max_size=10)
_batch = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 1000), st.sampled_from(_NAMES), st.sampled_from(_VALUES)),
        max_size=6,
    ),
    st.lists(st.integers(0, 1000), max_size=3),
    _rows,
)
_batches = st.lists(_batch, max_size=5)


def _apply(relation: Relation, model: list[list[str]], batch) -> None:
    """Apply one random batch to the relation and, by hand, to the model."""
    updates, deletes, appends = batch
    count = len(model)
    ops = []
    if count:
        for row_id, name, value in updates:
            ops.append(UpdateOp(row_id % count, {name: value}))
            model[row_id % count][_NAMES.index(name)] = value
        deleted = sorted({row_id % count for row_id in deletes})
        if deleted:
            ops.append(DeleteOp(deleted))
            for row_id in deleted:
                model[row_id] = [""] * len(_NAMES)
    if appends:
        ops.append(UpsertOp(appends))
        model.extend(list(row) for row in appends)
    if ops:
        relation.apply(MutationBatch(ops))


def _first_seen(cells: list[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for cell in cells:
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def _assert_reads(relation: Relation, model: list[list[str]]) -> None:
    assert relation.row_count == len(model)
    assert list(relation.iter_rows()) == [tuple(row) for row in model]
    assert list(relation.iter_row_dicts()) == [dict(zip(_NAMES, row)) for row in model]
    for row_id, row in enumerate(model):
        assert relation.row(row_id) == tuple(row)
        assert relation.row_dict(row_id) == dict(zip(_NAMES, row))
        for position, name in enumerate(_NAMES):
            assert relation.cell(row_id, name) == row[position]
    for position, name in enumerate(_NAMES):
        cells = [row[position] for row in model]
        counts = _first_seen(cells)
        assert relation.column(name) == cells
        # Both orders are first-seen row order, not code order.
        assert list(relation.value_counts(name).items()) == list(counts.items())
        assert relation.distinct_values(name) == [value for value in counts if value]
        assert relation.active_domain(name) == {value for value in cells if value}
        assert relation.non_empty_rows(name) == [row_id for row_id, cell in enumerate(cells) if cell]


def _assert_cold(relation: Relation) -> None:
    """Every column equals a cold encode of its own cells."""
    for name in relation.attribute_names:
        dictionary = relation.dictionary(name)
        cold = DictionaryColumn.from_values(relation.column(name))
        assert dictionary.values == cold.values
        assert dictionary.codes.tolist() == cold.codes.tolist()
        assert dictionary.counts() == cold.counts()
        assert dictionary.rows_by_code() == cold.rows_by_code()
        assert not dictionary.has_updates


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=40, deadline=None)
@given(rows=_rows, batches=_batches)
def test_reads_match_a_list_model(backend, rows, batches):
    relation = Relation.from_rows(_NAMES, rows, backend=backend)
    model = [list(row) for row in rows]
    _assert_reads(relation, model)
    for batch in batches:
        _apply(relation, model, batch)
        _assert_reads(relation, model)
        for name in _NAMES:
            dictionary = relation.dictionary(name)
            assert dictionary.counts() == [
                int((dictionary.codes == code).sum()) for code in range(dictionary.distinct_count)
            ]


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=30, deadline=None)
@given(
    rows=_rows,
    batches=_batches,
    picks=st.lists(st.integers(0, 1000), max_size=8),
    names=st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True),
)
def test_derivations_equal_a_cold_encode(backend, rows, batches, picks, names):
    relation = Relation.from_rows(_NAMES, rows, backend=backend)
    model = [list(row) for row in rows]
    for batch in batches:
        _apply(relation, model, batch)
    selected = [pick % len(model) for pick in picks] if model else []

    clone = relation.copy(name="clone")
    assert clone.deleted_rows == relation.deleted_rows
    _assert_reads(clone, model)
    _assert_cold(clone)

    projected = relation.project(names)
    assert projected.attribute_names == tuple(names)
    assert list(projected.iter_rows()) == [
        tuple(row[_NAMES.index(name)] for name in names) for row in model
    ]
    _assert_cold(projected)

    picked = relation.select_rows(selected)
    _assert_reads(picked, [list(model[row_id]) for row_id in selected])
    _assert_cold(picked)

    merged = concat([relation, picked, relation])
    _assert_reads(merged, model + [list(model[row_id]) for row_id in selected] + model)
    _assert_cold(merged)


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=30, deadline=None)
@given(rows=_rows.filter(bool), batches=_batches)
def test_csv_round_trip_is_byte_identical(backend, rows, batches):
    relation = Relation.from_rows(_NAMES, rows, backend=backend)
    model = [list(row) for row in rows]
    for batch in batches:
        _apply(relation, model, batch)
    first = io.StringIO()
    write_csv(relation, first)
    loaded = read_csv(io.StringIO(first.getvalue()), delimiter=",", backend=backend)
    _assert_reads(loaded, model)
    _assert_cold(loaded)
    second = io.StringIO()
    write_csv(loaded, second)
    assert second.getvalue() == first.getvalue()


@pytest.mark.parametrize("backend", _BACKENDS)
def test_value_order_after_updates_is_first_seen_on_every_backend(backend):
    """Code order and row order differ once a value dies and another is
    minted; both backends report first-seen row order."""
    relation = Relation.from_rows(["a"], [["x"], ["y"], ["z"]], backend=backend)
    for row_id, value in ((0, ""), (2, "x"), (1, "w")):
        relation.apply(MutationBatch.update_cells([(row_id, "a", value)]))
    assert relation.column("a") == ["", "w", "x"]
    assert relation.distinct_values("a") == ["w", "x"]
    assert list(relation.value_counts("a").items()) == [("", 1), ("w", 1), ("x", 1)]
    assert relation.active_domain("a") == {"w", "x"}


@pytest.mark.skipif("sql" not in _BACKENDS, reason="sql backend unavailable")
def test_sql_whole_column_reads_leave_the_code_vector_in_sqlite():
    """Out-of-core reads answer from SQLite: none of them caches a column's
    per-row code vector on its dictionary wrapper."""
    relation = Relation.from_rows(["a", "b"], [["x", "1"], ["y", ""], ["z", "1"]], backend="sql")
    for row_id, value in ((0, ""), (2, "x"), (1, "w")):
        relation.apply(MutationBatch.update_cells([(row_id, "a", value)]))
    list(relation.iter_rows())
    list(relation.iter_row_dicts())
    relation.copy()
    for name in ("a", "b"):
        relation.cell(1, name)
        relation.row_dict(1)
        relation.column(name)
        relation.distinct_values(name)
        relation.value_counts(name)
        relation.active_domain(name)
        relation.non_empty_rows(name)
        relation.project([name])
    assert relation.non_empty_rows("a") == [1, 2]
    assert all(relation.dictionary(name)._codes is None for name in ("a", "b"))


def test_a_row_assigned_twice_takes_its_last_value():
    column = DictionaryColumn.from_values(["x", "y", "x"])
    update = column.update_rows([(0, "y"), (2, "z"), (0, "w")])
    assert update.assignments == ((0, 0, 2), (2, 0, 3))
    assert column.values == ("x", "y", "w", "z")
    assert column.codes.tolist() == [2, 1, 3]
    assert column.counts() == [0, 1, 1, 1]


def test_every_attribute_is_stored_once_as_its_dictionary():
    relation = Relation.from_rows(["a", "b"], [["1", "x"], ["2", ""]])
    assert not hasattr(relation, "_columns")
    dictionary = relation.dictionary("b")
    relation.append_rows([["3", "x"]])
    relation.set_cell(1, "b", "y")
    assert relation.dictionary("b") is dictionary
    assert dictionary.values == ("x", "", "y")
    assert dictionary.codes.tolist() == [0, 2, 0]
    assert dictionary.counts() == [2, 0, 1]


@pytest.mark.parametrize("backend", _BACKENDS)
def test_iter_rows_decodes_across_block_boundaries(backend):
    rows = [(f"k{i % 97}", f"v{i % 13}" if i % 5 else "") for i in range(9_001)]
    relation = Relation.from_rows(["k", "v"], rows, backend=backend)
    relation.apply(MutationBatch.update_cells([(4_095, "k", "edge"), (8_192, "v", "tail")]))
    model = [list(row) for row in rows]
    model[4_095][0] = "edge"
    model[8_192][1] = "tail"
    assert list(relation.iter_rows()) == [tuple(row) for row in model]
    assert relation.column("v") == [row[1] for row in model]
