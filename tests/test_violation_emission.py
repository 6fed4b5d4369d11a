"""Variable-row violation emission: lazy class cells, vectorized buckets.

A violated variable tableau row is witnessed by a whole equivalence class,
but only the cells outside the class's majority RHS bucket are suspects.
Emission therefore builds ``CellRef`` objects for the suspects only and
hands the class's cells out as a :class:`~repro.constraints.base.ClassCells`
view.  This module pins

* the vectorized majority/suspect selection against the original
  dict-of-buckets walk, kept here as a test-only reference (order included);
* the view contract: equality and hashing interchangeable with the eager
  tuple, O(1) ``len``, ``rows()``/``str()``, pickling as arrays;
* the O(delta) property: a one-row update into a large class constructs
  ``CellRef``s for the suspects, not for every cell of the class.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning.detector import ErrorDetector
from repro.constraints.base import CellRef, ClassCells, Violation
from repro.core.pfd import RhsBuckets, make_pfd, variable_class_violations
from repro.dataset.mutations import MutationBatch, UpdateOp
from repro.dataset.relation import Relation
from repro.engine.backend import available_backends
from repro.engine.evaluator import PatternEvaluator

_BACKENDS = available_backends()
_REPR = "R([x] -> [y], |Tp|=1) @ (x=⊥ || y=⊥)"


# -- the reference: the original per-row dict-of-buckets walk -----------------


def _reference_violations(lhs, rowids, offsets, rhs):
    """One violation per (class, RHS attribute) spanning >= 2 buckets."""
    found = []
    for index in range(len(offsets) - 1):
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        row_ids = rowids[lo:hi].tolist()
        for buckets, codes in rhs:
            attribute = buckets.attribute
            code_of = dict(zip(row_ids, codes[lo:hi].tolist()))
            groups: dict[tuple[bool, str], list[int]] = defaultdict(list)
            for row_id in row_ids:
                groups[buckets.keys[buckets.ids[code_of[row_id]]]].append(row_id)
            if len(groups) < 2:
                continue
            majority_bucket, majority_ids = max(
                groups.items(), key=lambda item: (len(item[1]), item[0][0], item[0][1])
            )
            suspects = tuple(
                CellRef(row_id, attribute)
                for bucket, ids in groups.items()
                if bucket != majority_bucket
                for row_id in ids
            )
            expected = None
            if majority_bucket[0]:
                expected = buckets.values[code_of[majority_ids[0]]]
            cells = tuple(
                CellRef(row_id, attr) for row_id in row_ids for attr in (*lhs, attribute)
            )
            found.append(Violation("PFD", _REPR, cells, suspects, expected))
    return found


def _buckets(attribute, codes_spec):
    """``RhsBuckets`` over a stub column: ``codes_spec[code]`` is
    ``(value, matched, constrained_value)``."""
    column = SimpleNamespace(values=[value for value, _, _ in codes_spec])
    match = SimpleNamespace(
        results=[
            SimpleNamespace(matched=matched, constrained_value=constrained)
            for _, matched, constrained in codes_spec
        ]
    )
    return RhsBuckets.of(attribute, column, match)


def _classes(groups):
    """``(rowids, offsets)`` from a list of row-id lists."""
    rowids = np.asarray([row_id for group in groups for row_id in group], dtype=np.int64)
    offsets = np.cumsum([0] + [len(group) for group in groups])
    return rowids, offsets


def _assert_matches_reference(lhs, rowids, offsets, rhs):
    actual = variable_class_violations(_REPR, lhs, rowids, offsets, rhs)
    expected = _reference_violations(lhs, rowids, offsets, rhs)
    assert [v.suspect_cells for v in actual] == [v.suspect_cells for v in expected]
    assert [v.expected_value for v in actual] == [v.expected_value for v in expected]
    assert [tuple(v.cells) for v in actual] == [v.cells for v in expected]
    assert all(isinstance(v.cells, ClassCells) for v in actual)
    assert actual == expected
    return actual


_code_specs = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "", "ab"]),
        st.booleans(),
        st.sampled_from(["a", "b", "", None]),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def _emission_cases(draw):
    sizes = draw(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=6))
    total = sum(sizes)
    order = draw(st.permutations(range(total)))
    groups, start = [], 0
    for size in sizes:
        groups.append(sorted(order[start:start + size]))
        start += size
    groups.sort(key=lambda group: group[0])
    rowids, offsets = _classes(groups)
    rhs = []
    for attribute in draw(st.sampled_from([("y",), ("y", "z")])):
        spec = draw(_code_specs)
        codes = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(spec) - 1),
                min_size=total,
                max_size=total,
            )
        )
        rhs.append((_buckets(attribute, spec), np.asarray(codes, dtype=np.int64)))
    return rowids, offsets, rhs


@settings(max_examples=300, deadline=None)
@given(case=_emission_cases(), lhs=st.sampled_from([("x",), ("w", "x")]))
def test_emission_matches_dict_bucket_reference(case, lhs):
    rowids, offsets, rhs = case
    _assert_matches_reference(lhs, rowids, offsets, rhs)


def test_equal_size_buckets_break_ties_on_the_larger_key():
    # Two rows each of "a" (unmatched) and "b" (matched): the matched bucket
    # wins the tie; in the second class both buckets match, "b" > "a".
    spec = [("a", False, None), ("bx", True, "b"), ("ax", True, "a")]
    rowids, offsets = _classes([[0, 1, 2, 3], [4, 5, 6, 7]])
    codes = np.asarray([0, 1, 0, 1, 2, 2, 1, 1], dtype=np.int64)
    found = _assert_matches_reference(("x",), rowids, offsets, [(_buckets("y", spec), codes)])
    assert [v.suspect_cells for v in found] == [
        (CellRef(0, "y"), CellRef(2, "y")),
        (CellRef(4, "y"), CellRef(5, "y")),
    ]
    assert [v.expected_value for v in found] == ["bx", "bx"]


def test_matched_and_unmatched_buckets_with_the_same_text_differ():
    # Value "a" fails the pattern; value "ax" matches with constrained part
    # "a" — same text, different buckets, so the class violates.
    spec = [("a", False, None), ("ax", True, "a")]
    rowids, offsets = _classes([[0, 1, 2]])
    codes = np.asarray([0, 1, 1], dtype=np.int64)
    (violation,) = _assert_matches_reference(
        ("x",), rowids, offsets, [(_buckets("y", spec), codes)]
    )
    assert violation.suspect_cells == (CellRef(0, "y"),)
    assert violation.expected_value == "ax"


def test_empty_constrained_value_is_its_own_bucket():
    # A matched value with an empty (or missing) constrained part buckets as
    # (True, ""); both spellings intern to the same bucket.
    spec = [("p", True, ""), ("q", True, None), ("r", True, "r")]
    buckets = _buckets("y", spec)
    assert buckets.ids[0] == buckets.ids[1] != buckets.ids[2]
    rowids, offsets = _classes([[0, 1, 2, 3]])
    codes = np.asarray([0, 1, 2, 2], dtype=np.int64)
    (violation,) = _assert_matches_reference(("x",), rowids, offsets, [(buckets, codes)])
    # Tie on size 2: (True, "r") > (True, ""), so the "" bucket is suspect.
    assert violation.suspect_cells == (CellRef(0, "y"), CellRef(1, "y"))
    assert violation.expected_value == "r"


def test_single_bucket_classes_emit_nothing():
    spec = [("a", True, "a"), ("ab", True, "a"), ("z", False, None)]
    rowids, offsets = _classes([[0, 1, 2], [3, 4]])
    codes = np.asarray([0, 1, 0, 2, 2], dtype=np.int64)
    assert _assert_matches_reference(
        ("x",), rowids, offsets, [(_buckets("y", spec), codes)]
    ) == []


# -- the ClassCells view contract ---------------------------------------------


def _relation(backend=None, class_rows=6):
    rows = [("90001", "Los Angeles")] * class_rows + [("10001", "New York")] * 3
    rows[2] = ("90001", "Las Angeles")
    return Relation.from_rows(["zip", "city"], rows, backend=backend)


_VARIABLE_PFD = make_pfd("zip", "city", [{"zip": r"{{\D{3}}}\D{2}", "city": "⊥"}])


class _CellRefCounter:
    """Counts ``CellRef`` constructions while installed."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = CellRef.__init__

        def counting_init(cell, *args, **kwargs):
            self.count += 1
            original(cell, *args, **kwargs)

        monkeypatch.setattr(CellRef, "__init__", counting_init)


@pytest.mark.parametrize("backend", _BACKENDS)
def test_class_cells_view_matches_the_eager_tuple(backend, monkeypatch):
    (violation,) = _VARIABLE_PFD.violations(_relation(backend))
    view = violation.cells
    assert isinstance(view, ClassCells)
    eager = tuple(
        CellRef(row_id, attribute) for row_id in range(6) for attribute in ("zip", "city")
    )
    assert view == eager and eager == view
    assert not (view != eager) and not (eager != view)
    assert hash(view) == hash(eager)
    assert view in {eager} and eager in {view}
    assert {(violation.constraint_repr, view)} == {(violation.constraint_repr, eager)}
    assert view != eager[:-1] and eager[:-1] != view
    assert view != eager[::-1]
    assert view != list(eager)
    assert list(view) == list(eager)
    assert view[3] == eager[3] and view[-1] == eager[-1] and view[2:5] == eager[2:5]
    with pytest.raises(IndexError):
        view[len(eager)]

    eager_violation = dataclasses.replace(violation, cells=eager)
    assert violation == eager_violation and eager_violation == violation
    assert violation.rows() == eager_violation.rows() == tuple(range(6))
    assert str(violation) == str(eager_violation)

    counter = _CellRefCounter(monkeypatch)
    assert len(view) == len(eager) == 12
    assert violation.rows() == tuple(range(6))
    str(violation)
    assert counter.count == 0


def test_class_cells_pickle_as_arrays():
    view = ClassCells(np.asarray([3, 5, 8], dtype=np.int64), ("zip", "city"))
    restored = pickle.loads(pickle.dumps(view))
    assert isinstance(restored, ClassCells)
    assert restored == view and restored == tuple(view)
    assert restored.rows.dtype == np.int64


def test_view_does_not_pin_the_partition_arrays():
    relation = _relation()
    evaluator = PatternEvaluator()
    (violation,) = _VARIABLE_PFD.violations(relation, evaluator=evaluator)
    row = _VARIABLE_PFD.tableau[0]
    rowids, _ = _VARIABLE_PFD._row_partition(relation, row, evaluator).class_arrays()
    assert not np.shares_memory(violation.cells.rows, rowids)


# -- O(delta): a one-row update into a large class ----------------------------


@pytest.mark.parametrize("backend", _BACKENDS)
def test_one_row_update_builds_cellrefs_for_suspects_only(backend, monkeypatch):
    class_rows = 2_500
    rows = [(f"900{i % 10:02d}", "Los Angeles") for i in range(class_rows)]
    rows += [(f"100{i % 10:02d}", "New York") for i in range(20)]
    relation = Relation.from_rows(["zip", "city"], rows, backend=backend)
    pfd = make_pfd(
        "zip",
        "city",
        [
            {"zip": r"{{\D{3}}}\D{2}", "city": "⊥"},
            {"zip": r"{{100}}\D{2}", "city": "New\\ York"},
        ],
    )
    evaluator = PatternEvaluator()
    detector = ErrorDetector([pfd], evaluator=evaluator)
    assert len(detector.detect(relation)) == 0

    result = relation.apply(MutationBatch([UpdateOp(1_234, {"city": "Las Angeles"})]))
    counter = _CellRefCounter(monkeypatch)
    report = detector.detect(relation, changed_rows=result.changed_rows)
    built = counter.count

    (violation,) = report.violations
    assert isinstance(violation.cells, ClassCells)
    assert len(violation.cells) == 2 * class_rows
    assert violation.suspect_cells == (CellRef(1_234, "city"),)
    assert violation.expected_value == "Los Angeles"
    constant_cells = sum(
        len(v.cells) + len(v.suspect_cells)
        for v in report.violations
        if not isinstance(v.cells, ClassCells)
    )
    suspects = sum(len(v.suspect_cells) for v in report.violations)
    assert built <= suspects + constant_cells
    assert [error.cell for error in report.errors] == [CellRef(1_234, "city")]
