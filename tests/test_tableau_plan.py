"""Compiled tableau plans and stacked masks against cold evaluation.

Each PFD's tableau is compiled once into a
:class:`~repro.core.tableau.TableauPlan`, and the evaluator keeps the
constant rows' masks of a column as one stacked matrix
(:meth:`~repro.engine.evaluator.PatternEvaluator.mask_stack`), grown by the
codes a write adds.  The battery here uses the high-cardinality shape — a
constant tableau of 100+ ``\\A*\\S{{ddddd}}\\A*`` rows, one per serial
number — and runs random updates, appends and deletes that bring new
distinct serials and QA values, with rows added to the tableau between
searches.  Every ``detect_changed``, maintained ``detect`` and ``validate``
must equal a cold run on ``relation.copy()`` with PFDs rebuilt from JSON
and a fresh evaluator, order included, on every backend.

The call-count tests pin that a one-row write's scoped search does no work
per tableau row: after warm-up it compiles, walks and matches nothing, its
Python call count does not grow from a 10-row to a 1,000-row tableau, and a
write that adds one distinct value matches it at most once per pattern.
"""

from __future__ import annotations

import gc
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning import DetectionView, ErrorDetector
from repro.core.pfd import PFD, make_pfd
from repro.core.tableau import PatternTuple
from repro.dataset.mutations import DeleteOp, MutationBatch, UpdateOp, UpsertOp
from repro.dataset.relation import Relation
from repro.engine.backend import available_backends
from repro.engine.dictionary import DictionaryColumn
from repro.engine.evaluator import PatternEvaluator, PatternList
from repro.patterns import matcher
from repro.patterns.matcher import CompiledPattern
from repro.session import CleaningSession, validate_pfds

_BACKENDS = available_backends()
_SCHEMA = ("serial", "line", "qa")
_PREFIXES = ("HQ", "XB", "GP")
_QA = ("pass", "fail", "", "hold", "retest")


def _serial(prefix: int, number: int) -> str:
    return f"{_PREFIXES[prefix % len(_PREFIXES)]}-{number:05d}"


def _constant_row(number: int) -> dict[str, str]:
    # Some rows expect a QA value the table may not hold yet.
    verdict = ("pass", "fail", "retest")[number % 3]
    return {"serial": rf"\A*\S{{{{{number:05d}}}}}\A*", "qa": verdict}


def _pfds(tableau_rows: int = 100) -> list[PFD]:
    return [
        make_pfd("serial", "qa", [_constant_row(number) for number in range(tableau_rows)]),
        make_pfd("serial", "line", [{"serial": r"{{\LU{2}\S}}\D{5}", "line": "⊥"}]),
    ]


def _rebuilt(pfds: list[PFD]) -> list[PFD]:
    return [PFD.from_json_dict(pfd.to_json_dict()) for pfd in pfds]


def _cold(pfds, relation, changed_rows=None):
    return ErrorDetector(_rebuilt(pfds), evaluator=PatternEvaluator()).detect(
        relation.copy(), changed_rows=changed_rows
    )


def _assert_same_report(actual, expected) -> None:
    assert actual.errors == expected.errors
    assert actual.violations == expected.violations


# Serial numbers run past the tableau's 100 rows, so writes bring serials
# that no row covers, and rows added later cover them.
_row = st.tuples(
    st.builds(_serial, st.integers(0, 2), st.integers(0, 130)),
    st.sampled_from(("L0", "L1", "L2")),
    st.sampled_from(_QA),
)
_write = st.one_of(
    st.tuples(st.just("update"), st.integers(0, 63), st.sampled_from(_SCHEMA), _row),
    st.tuples(st.just("delete"), st.integers(0, 63)),
    st.tuples(st.just("append"), st.lists(_row, min_size=1, max_size=3)),
)
_step = st.one_of(
    st.tuples(st.just("write"), st.lists(_write, min_size=1, max_size=4)),
    st.tuples(st.just("detect")),
    st.tuples(st.just("validate")),
    st.tuples(st.just("detect_changed")),
    st.tuples(st.just("add_row"), st.integers(100, 130)),
)


def _batch(row_count: int, writes) -> MutationBatch | None:
    ops = []
    for write in writes:
        if write[0] == "append":
            ops.append(UpsertOp([list(row) for row in write[1]]))
        elif row_count and write[0] == "update":
            _, row_id, attribute, row = write
            value = row[_SCHEMA.index(attribute)]
            ops.append(UpdateOp(row_id % row_count, ((attribute, value),)))
        elif row_count:
            ops.append(DeleteOp([write[1] % row_count]))
    return MutationBatch(ops) if ops else None


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=25, deadline=None)
@given(base=st.lists(_row, min_size=0, max_size=24), steps=st.lists(_step, max_size=10))
def test_plans_and_stacks_keep_reports_equal_to_cold_runs(backend, base, steps):
    pfds = _pfds()
    relation = Relation.from_rows(_SCHEMA, base, name="R", backend=backend)
    session = CleaningSession(relation, workers=1)
    _assert_same_report(session.detect(pfds), _cold(pfds, relation))
    pending: set[int] = set()
    for step in steps:
        if step[0] == "write":
            batch = _batch(relation.row_count, step[1])
            if batch is not None:
                pending.update(session.apply(batch).changed_rows)
        elif step[0] == "detect":
            _assert_same_report(session.detect(pfds), _cold(pfds, relation))
        elif step[0] == "validate":
            assert (
                session.validate(pfds).entries
                == validate_pfds(
                    relation.copy(), _rebuilt(pfds), evaluator=PatternEvaluator()
                ).entries
            )
        elif step[0] == "add_row":
            pfds[0].tableau.add(_constant_row(step[1]))
        elif pending:
            _assert_same_report(
                session.detect_changed(pfds), _cold(pfds, relation, sorted(pending))
            )
            pending = set()
    _assert_same_report(session.detect(pfds), _cold(pfds, relation))


# -- the plan ------------------------------------------------------------------


def test_plan_is_built_once_and_dropped_by_add():
    pfd = make_pfd(
        "serial",
        "qa",
        [_constant_row(1), {"serial": "⊥", "qa": "⊥"}, _constant_row(2)],
    )
    plan = pfd.plan
    assert pfd.plan is plan
    assert plan.constant.tolist() == [True, False, True]
    assert plan.constant_positions == (0, 2) and plan.variable_positions == (1,)
    # The wildcard is gathered as ``{{\A*}}`` but has no mask: it matches all.
    assert len(plan.lhs_patterns[0]) == 3 and len(plan.lhs_masks[0]) == 2
    assert plan.lhs_index[0].tolist() == [0, -1, 1]
    assert plan.expected == [("fail",), ("retest",)]
    assert pfd.constant_rows() == [pfd.tableau[0], pfd.tableau[2]]
    assert pfd.variable_rows() == [pfd.tableau[1]]

    pfd.tableau.add(_constant_row(1))  # already there: the plan stands
    assert pfd.plan is plan
    pfd.tableau.extend([_constant_row(3)])
    assert pfd.plan is not plan and pfd.plan.constant_positions == (0, 2, 3)


def test_a_pickled_tableau_compiles_its_own_plan():
    pfd = _pfds(5)[0]
    relation = Relation.from_rows(_SCHEMA, [(_serial(0, 1), "L0", "pass")], name="R")
    pfd.support(relation, evaluator=PatternEvaluator())
    copy = pickle.loads(pickle.dumps(pfd))
    assert copy == pfd and copy.plan is not pfd.plan


def test_expected_codes_follow_a_growing_rhs_dictionary():
    pfd = _pfds(3)[0]  # expects pass, fail, retest
    column = DictionaryColumn.from_values(["pass", "hold"])
    assert pfd.plan.expected_codes([column])[:, 0].tolist() == [0, -1, -1]
    column.extend(["retest", "fail"])
    assert pfd.plan.expected_codes([column])[:, 0].tolist() == [0, 3, 2]


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_kept_view_recompiles_when_a_tableau_gains_a_row(backend):
    pfds = _pfds(10)
    rows = [(_serial(k, k), "L0", "fail") for k in range(14)]
    relation = Relation.from_rows(_SCHEMA, rows, name="R", backend=backend)
    evaluator = PatternEvaluator()
    view = DetectionView(pfds, evaluator)
    detector = ErrorDetector(pfds, evaluator=evaluator)
    _assert_same_report(detector.detect(relation, view=view), _cold(pfds, relation))
    pfds[0].tableau.add(_constant_row(12))
    _assert_same_report(detector.detect(relation, view=view), _cold(pfds, relation))


# -- stacked masks -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.text(alphabet="ab01-", max_size=6), min_size=1, max_size=12),
    more=st.lists(st.text(alphabet="ab01-", max_size=6), max_size=12),
    patterns=st.lists(
        st.sampled_from([r"\A*{{01}}\A*", r"{{a}}\A*", r"\D+", r"\A*-\A*", r"{{\L}}\D"]),
        min_size=1,
        max_size=5,
    ),
)
def test_mask_stack_equals_per_pattern_matching(values, more, patterns):
    column = DictionaryColumn.from_values(values)
    evaluator = PatternEvaluator()
    stacked = PatternList(patterns)
    first = evaluator.mask_stack(stacked, column).copy()
    column.extend(more)  # grows the dictionary in place: a new capacity
    evaluator.mask_stack(stacked, column)
    column.extend(["b01", "0-a"])  # within (or past) that capacity
    grown = evaluator.mask_stack(stacked, column)
    assert grown.shape == (column.distinct_count, len(stacked))
    assert np.array_equal(grown[: len(first)], first)
    reference = np.array(
        [[c.match(value).matched for c in stacked.compiled] for value in column.values],
        dtype=bool,
    ).reshape(column.distinct_count, len(stacked))
    assert np.array_equal(grown, reference)


def test_match_column_many_answers_a_registered_list_without_compiling():
    column = DictionaryColumn.from_values(["a1", "b2", "01-"])
    evaluator = PatternEvaluator()
    patterns = PatternList([r"{{\L}}\D", r"\A*-\A*", r"\D+"])
    first = evaluator.match_column_many(patterns, column)
    before = _compile_calls()
    assert evaluator.match_column_many(patterns, column) is first
    assert _compile_calls() == before


def test_a_stack_dies_with_its_pattern_list():
    column = DictionaryColumn.from_values(["a1", "b2"])
    evaluator = PatternEvaluator()
    patterns = PatternList([r"{{\L}}\D", r"\D+"])
    evaluator.mask_stack(patterns, column)
    assert len(evaluator._stacks[column]) == 1
    del patterns
    assert len(evaluator._stacks[column]) == 0


@pytest.mark.parametrize("backend", _BACKENDS)
def test_discovery_candidates_leave_no_stack_behind(backend):
    rows = [(_serial(k, k % 40), f"L{k % 3}", ("pass", "fail")[k % 40 % 2]) for k in range(400)]
    relation = Relation.from_rows(_SCHEMA, rows, name="R", backend=backend)
    session = CleaningSession(relation, workers=1)
    session.detect()
    gc.collect()
    alive = {id(pattern_list) for pfd in session.pfds for pattern_list in pfd.plan.lhs_masks}
    stacked = [key for stacks in session.evaluator._stacks.values() for key in stacks.keys()]
    assert stacked and {id(key) for key in stacked} <= alive


# -- O(scope) by call counts ------------------------------------------------------


def _compile_calls() -> int:
    # Every compile_pattern call ends in one of the two memoized compilers,
    # whatever module binding it went through.
    return sum(
        info.hits + info.misses
        for info in (
            matcher._compile_from_ast.cache_info(),
            matcher._compile_from_string.cache_info(),
        )
    )


class _Counts:
    """Counts calls of ``PatternTuple.pattern``, ``match_column`` and
    ``CompiledPattern.match``, and every Python-level call while on."""

    def __init__(self, monkeypatch):
        self.calls = {"pattern": 0, "match_column": 0, "match": 0}
        for owner, name, key in (
            (PatternTuple, "pattern", "pattern"),
            (PatternEvaluator, "match_column", "match_column"),
            (CompiledPattern, "match", "match"),
        ):
            monkeypatch.setattr(owner, name, self._counting(getattr(owner, name), key))

    def _counting(self, function, key):
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return function(*args, **kwargs)

        return counted

    def run(self, function) -> tuple[dict[str, int], int]:
        """``function()``'s counted calls and its Python call count."""
        for key in self.calls:
            self.calls[key] = 0
        compiles = _compile_calls()
        python_calls = 0

        def profile(frame, event, arg):
            nonlocal python_calls
            if event == "call":
                python_calls += 1

        sys.setprofile(profile)
        try:
            function()
        finally:
            sys.setprofile(None)
        counts = dict(self.calls, compile_pattern=_compile_calls() - compiles)
        return counts, python_calls


def _hicard_session(backend: str, tableau_rows: int):
    # The same 300 rows whatever the tableau size: serial numbers below 10,
    # so every tableau covers the same tuples.
    rows = [
        (_serial(k, k % 10), f"L{k % 3}", ("pass", "fail", "retest")[k % 10 % 3])
        for k in range(300)
    ]
    relation = Relation.from_rows(_SCHEMA, rows, name="R", backend=backend)
    pfds = [make_pfd("serial", "qa", [_constant_row(n) for n in range(tableau_rows)])]
    session = CleaningSession(relation, workers=1)
    session.detect(pfds)
    return session, pfds


def _one_row_update(session, pfds, row_id: int, serial: str, qa: str):
    def write():
        session.apply(MutationBatch.update_cells([(row_id, "serial", serial), (row_id, "qa", qa)]))
        return session.detect_changed(pfds)

    return write


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_warm_one_row_write_does_no_work_per_tableau_row(backend, monkeypatch):
    counts = _Counts(monkeypatch)
    python_calls = {}
    for tableau_rows in (10, 139, 1000):
        session, pfds = _hicard_session(backend, tableau_rows)
        for warm in range(3):
            _one_row_update(session, pfds, warm, _serial(1, 4), "fail")()
        counts.run(_one_row_update(session, pfds, 16, _serial(2, 5), "pass"))
        # A wrong verdict for serial 00005 (expects "retest"), flagged.
        write = _one_row_update(session, pfds, 17, _serial(2, 5), "pass")
        calls, python_calls[tableau_rows] = counts.run(write)
        assert calls == {"pattern": 0, "match_column": 0, "match": 0, "compile_pattern": 0}
        flagged = {(e.cell.row_id, e.cell.attribute) for e in session.detect(pfds).errors}
        assert (17, "qa") in flagged
    assert python_calls[1000] <= python_calls[139] <= python_calls[10], python_calls


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_new_distinct_value_is_matched_once_per_pattern(backend, monkeypatch):
    counts = _Counts(monkeypatch)
    session, pfds = _hicard_session(backend, 139)
    _one_row_update(session, pfds, 0, _serial(1, 4), "fail")()
    write = _one_row_update(session, pfds, 3, "ZZ-00007", "hold")  # two new values
    calls, _ = counts.run(write)
    assert 0 < calls["match"] <= len(pfds[0].plan.lhs_masks[0])
    assert calls["pattern"] == calls["compile_pattern"] == 0
