"""Per-tuple PFD checks against a brute-force reference, on every backend.

Constant tableau rows, ``support``, ``coverage`` and ``matching_rows`` are
answered in distinct-code-tuple space from the evaluator's per-code match
masks (see :func:`repro.core.pfd.covered_tuples`).  The reference here walks
the rows one by one instead and calls :meth:`CompiledPattern.match` on every
cell, so it shares nothing with the engine but the pattern matcher; the
distinct code tuples those checks start from
(:meth:`Relation.code_cooccurrence`, one attribute or several) are counted
from decoded rows.  Tables go through random CRUD batches first — updates,
tombstones, appends, empty cells — after the caches were warmed, and the
checks run over the whole table and over scoped row sets, order included.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.constraints.base import CellRef, Violation
from repro.core.pfd import PFD, make_pfd
from repro.dataset.mutations import DeleteOp, MutationBatch, UpdateOp, UpsertOp
from repro.dataset.relation import Relation
from repro.engine.backend import available_backends
from repro.engine.evaluator import PatternEvaluator
from repro.patterns.matcher import compile_pattern
from repro.session import CleaningSession

_SCHEMA = ("x", "y", "z")
_CELLS = ["a", "ab", "b1", "1", "ba", "", "a1", "b"]

_CONSTANT_PFDS = [
    make_pfd("x", "y", [{"x": r"{{a}}\A*", "y": "b"}]),
    make_pfd(("x", "y"), "z", [{"x": r"{{a}}\A*", "y": r"\A*{{b}}", "z": "1"}]),
    make_pfd("x", ("y", "z"), [{"x": r"{{1}}\A*", "y": "a", "z": "b"}]),
    make_pfd(
        "x",
        "y",
        [
            {"x": r"{{a}}\A*", "y": "a"},
            {"x": r"\A*{{b}}", "y": "b"},
            {"x": r"a\A*{{1}}", "y": "zz"},
        ],
    ),
    make_pfd(("y", "x"), ("z", "x"), [{"y": r"{{b}}\A*", "x": r"{{a}}", "z": "ab"}]),
]
# Mixed tableaux: support and matching rows count variable rows too.
_MIXED_PFDS = [
    make_pfd("x", "y", [{"x": r"{{a}}\A*", "y": "b"}, {"x": "⊥", "y": "⊥"}]),
    make_pfd(
        ("x", "z"),
        "y",
        [{"x": r"\A*{{b}}", "z": "⊥", "y": "⊥"}, {"x": r"{{1}}", "z": r"{{a}}\A*", "y": "ba"}],
    ),
]

_rows = st.lists(st.tuples(*[st.sampled_from(_CELLS)] * 3), min_size=0, max_size=16)
_op = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(_SCHEMA),
        st.sampled_from(_CELLS),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("append"), st.tuples(*[st.sampled_from(_CELLS)] * 3)),
)
_batches = st.lists(st.lists(_op, max_size=5), max_size=4)


def _batch(relation: Relation, ops) -> MutationBatch:
    """``ops`` as a batch against ``relation``'s pre-batch rows (row ids
    wrap; an empty table takes only appends)."""
    built = []
    for op in ops:
        if op[0] == "append":
            built.append(UpsertOp((op[1],)))
        elif relation.row_count:
            row_id = op[1] % relation.row_count
            if op[0] == "update":
                built.append(UpdateOp(row_id, ((op[2], op[3]),)))
            else:
                built.append(DeleteOp((row_id,)))
    return MutationBatch(tuple(built))


def _covers(row, lhs, values) -> bool:
    return all(
        values[name] and compile_pattern(row.pattern(name)).match(values[name]).matched
        for name in lhs
    )


def _reference_matching_rows(pfd: PFD, relation: Relation, row) -> list[int]:
    return [
        row_id
        for row_id in range(relation.row_count)
        if _covers(row, pfd.lhs, relation.row_dict(row_id))
    ]


def _reference_support(pfd: PFD, relation: Relation) -> int:
    return len(
        {row_id for row in pfd.tableau for row_id in _reference_matching_rows(pfd, relation, row)}
    )


def _reference_constant_violations(pfd: PFD, relation: Relation, scope) -> list[Violation]:
    found = []
    for row in pfd.tableau:
        assert row.is_constant_row(pfd.lhs, pfd.rhs)
        constraint_repr = f"{pfd} @ {row.render(pfd.lhs, pfd.rhs)}"
        for row_id in sorted(scope):
            values = relation.row_dict(row_id)
            if not _covers(row, pfd.lhs, values):
                continue
            for attribute in pfd.rhs:
                expected = row.pattern(attribute).constant_value()
                if values[attribute] != expected:
                    found.append(
                        Violation(
                            constraint_kind="PFD",
                            constraint_repr=constraint_repr,
                            cells=tuple(CellRef(row_id, a) for a in (*pfd.lhs, attribute)),
                            suspect_cells=(CellRef(row_id, attribute),),
                            expected_value=expected,
                        )
                    )
    return found


def _reference_cooccurrence(relation: Relation, names, scope) -> list[tuple]:
    """Distinct code tuples of ``names`` over ``scope`` with their counts,
    counted from decoded rows."""
    counts = Counter(
        tuple(relation.dictionary(name).code_of(relation.row_dict(row_id)[name]) for name in names)
        for row_id in scope
    )
    return sorted((*codes, count) for codes, count in counts.items())


@settings(max_examples=60, deadline=None)
@given(rows=_rows, batches=_batches, data=st.data())
def test_per_tuple_checks_match_reference_after_crud(rows, batches, data):
    for backend in available_backends():
        relation = Relation.from_rows(_SCHEMA, rows, backend=backend)
        evaluator = PatternEvaluator()
        # Warm every cache so the batches below must patch or heal them.
        for pfd in _CONSTANT_PFDS + _MIXED_PFDS:
            pfd.violations(relation, evaluator=evaluator)
            pfd.support(relation, evaluator=evaluator)
        changed: set[int] = set()
        for ops in batches:
            changed.update(relation.apply(_batch(relation, ops)).changed_rows)
        everything = range(relation.row_count)
        drawn = data.draw(st.sets(st.integers(min_value=0, max_value=79)), label="scope")
        scopes = [None, sorted(changed), sorted(r for r in drawn if r < relation.row_count)]
        for names in (("x",), ("z",), ("y", "x")):
            for scope in scopes:
                tuples, counts = relation.code_cooccurrence(names, scope)
                assert [(*codes, count) for codes, count in zip(
                    tuples.tolist(), counts.tolist()
                )] == _reference_cooccurrence(
                    relation, names, everything if scope is None else scope
                ), (backend, names, scope)
        for pfd in _CONSTANT_PFDS:
            for scope in scopes:
                assert pfd.violations(
                    relation, evaluator=evaluator, changed_rows=scope
                ) == _reference_constant_violations(
                    pfd, relation, everything if scope is None else scope
                ), (backend, scope)
        for pfd in _CONSTANT_PFDS + _MIXED_PFDS:
            support = _reference_support(pfd, relation)
            assert pfd.support(relation, evaluator=evaluator) == support
            assert pfd.coverage(relation, evaluator=evaluator) == (
                support / relation.row_count if relation.row_count else 0.0
            )
            for row in pfd.tableau:
                assert pfd.matching_rows(
                    relation, row, evaluator=evaluator
                ) == _reference_matching_rows(pfd, relation, row)


def test_constant_pfds_are_constant_and_mixed_are_not():
    assert all(pfd.is_constant for pfd in _CONSTANT_PFDS)
    assert not any(pfd.is_constant for pfd in _MIXED_PFDS)


def test_constant_rows_build_no_partition_leaf():
    # Constant rows are checked per tuple: neither a detect nor a validate
    # caches or builds a pattern leaf for them.
    rows = [("a", "b", "1"), ("ab", "a", "b"), ("a1", "b", "ab"), ("1", "a", "b")] * 3
    for backend in available_backends():
        session = CleaningSession(Relation.from_rows(_SCHEMA, rows, backend=backend))
        session.detect(_CONSTANT_PFDS)
        session.validate(_CONSTANT_PFDS)
        manager = session.relation.partitions()
        assert manager.cached_partition_count() == 0
        session.apply(MutationBatch.update_cells([(0, "x", "ba"), (1, "y", "b")]))
        session.detect_changed(_CONSTANT_PFDS)
        session.detect(_CONSTANT_PFDS)
        session.validate(_CONSTANT_PFDS)
        assert manager.stats.pattern_misses == 0
        assert manager.cached_partition_count() == 0
        session.close()
