"""The session's maintained detection view against cold detection.

``CleaningSession`` keeps its last detection report as a
:class:`~repro.cleaning.detector.DetectionView`: a write records the rows it
changed, and the next ``detect`` or ``validate`` splices only what those rows
can affect.  The battery here runs random CRUD batches — rows leaving and
entering classes, tombstones, empty cells, appends — with ``detect``,
``validate`` and ``detect_changed`` at random points, and checks every
maintained report against a cold ``ErrorDetector.detect`` on a copy of the
relation, errors and violations in the same order, on every backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning import DetectionView, ErrorDetector
from repro.constraints.base import CellRef
from repro.core.pfd import PFD, make_pfd
from repro.dataset.mutations import DeleteOp, MutationBatch, UpdateOp, UpsertOp
from repro.dataset.relation import Relation
from repro.engine.backend import available_backends
from repro.engine.evaluator import PatternEvaluator
from repro.session import CleaningSession, validate_pfds

_BACKENDS = available_backends()
_SCHEMA = ("zip", "city", "state")
_ZIPS = ["90001", "90002", "90011", "10001", "10002", "abc", ""]
_CITIES = ["Los Angeles", "New York", "Chicago", ""]
_STATES = ["CA", "NY", "IL", ""]
_VALUES = {"zip": _ZIPS, "city": _CITIES, "state": _STATES}

_PFDS = [
    # A variable row next to a constant row of the same PFD.
    make_pfd(
        "zip",
        "city",
        [
            {"zip": r"{{\D{3}}}\D{2}", "city": "⊥"},
            {"zip": r"{{100}}\D{2}", "city": "New\\ York"},
        ],
    ),
    # Two RHS attributes: one violation per attribute of a class.
    make_pfd("zip", ("city", "state"), [{"zip": r"{{\D{2}}}\D{3}", "city": "⊥", "state": "⊥"}]),
    make_pfd(
        "zip",
        "state",
        [{"zip": r"{{900}}\D{2}", "state": "CA"}, {"zip": r"{{100}}\D{2}", "state": "NY"}],
    ),
    # Two LHS attributes grouped by whole values; an RHS with a pattern.
    make_pfd(("city", "state"), "zip", [{"city": "⊥", "state": "⊥", "zip": r"{{\D{3}}}\D{2}"}]),
]

_row = st.tuples(*(st.sampled_from(_VALUES[name]) for name in _SCHEMA))
_write = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(_SCHEMA),
        st.integers(min_value=0, max_value=6),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("append"), st.lists(_row, min_size=1, max_size=3)),
)
_step = st.one_of(
    st.tuples(st.just("write"), st.lists(_write, min_size=1, max_size=4)),
    st.tuples(st.just("detect"), st.sampled_from([1, 2])),
    st.tuples(st.just("validate")),
    st.tuples(st.just("detect_changed"), st.sampled_from([1, 2])),
)


def _batch(row_count: int, writes) -> MutationBatch | None:
    ops = []
    for write in writes:
        if write[0] == "append":
            ops.append(UpsertOp([list(row) for row in write[1]]))
        elif row_count and write[0] == "update":
            _, row_id, attribute, value = write
            values = _VALUES[attribute]
            ops.append(UpdateOp(row_id % row_count, ((attribute, values[value % len(values)]),)))
        elif row_count:
            ops.append(DeleteOp([write[1] % row_count]))
    return MutationBatch(ops) if ops else None


def _cold(pfds: list[PFD], relation: Relation, min_evidence: int, changed_rows=None):
    return ErrorDetector(pfds, min_evidence=min_evidence, evaluator=PatternEvaluator()).detect(
        relation.copy(), changed_rows=changed_rows
    )


def _assert_same_report(actual, expected) -> None:
    assert actual.errors == expected.errors
    assert actual.violations == expected.violations


@pytest.mark.parametrize("backend", _BACKENDS)
@settings(max_examples=40, deadline=None)
@given(base=st.lists(_row, min_size=0, max_size=14), steps=st.lists(_step, max_size=10))
def test_maintained_reports_equal_cold_detection(backend, base, steps):
    relation = Relation.from_rows(_SCHEMA, base, name="R", backend=backend)
    session = CleaningSession(relation, workers=1)
    _assert_same_report(session.detect(_PFDS), _cold(_PFDS, relation, 1))
    pending: set[int] = set()
    for step in steps:
        if step[0] == "write":
            batch = _batch(relation.row_count, step[1])
            if batch is not None:
                pending.update(session.apply(batch).changed_rows)
        elif step[0] == "detect":
            _assert_same_report(
                session.detect(_PFDS, min_evidence=step[1]), _cold(_PFDS, relation, step[1])
            )
        elif step[0] == "validate":
            assert (
                session.validate(_PFDS).entries
                == validate_pfds(relation.copy(), _PFDS, evaluator=PatternEvaluator()).entries
            )
        elif pending:
            _assert_same_report(
                session.detect_changed(_PFDS, min_evidence=step[1]),
                _cold(_PFDS, relation, step[1], changed_rows=sorted(pending)),
            )
            pending = set()
    _assert_same_report(session.detect(_PFDS), _cold(_PFDS, relation, 1))


# -- what a detect after a write searches ---------------------------------------


def _zip_table(backend: str) -> Relation:
    rows = [(f"900{i % 4:02d}", "Los Angeles", "CA") for i in range(40)]
    rows += [(f"100{i % 4:02d}", "New York", "NY") for i in range(10)]
    rows[7] = ("90003", "Las Angeles", "CA")  # a pre-existing minority cell
    return Relation.from_rows(_SCHEMA, rows, name="R", backend=backend)


class _Searches:
    """Records the row scope of every constant- and variable-row search."""

    def __init__(self, monkeypatch):
        self.constant: list = []
        self.variable: list = []
        constant, variable = PFD._constant_violations, PFD._variable_row_violations

        def constant_search(pfd, relation, evaluator, changed_rows=None):
            self.constant.append(changed_rows)
            return constant(pfd, relation, evaluator, changed_rows)

        def variable_search(pfd, relation, row, evaluator, changed_rows=None):
            self.variable.append(changed_rows)
            return variable(pfd, relation, row, evaluator, changed_rows)

        monkeypatch.setattr(PFD, "_constant_violations", constant_search)
        monkeypatch.setattr(PFD, "_variable_row_violations", variable_search)

    def clear(self) -> None:
        self.constant.clear()
        self.variable.clear()


@pytest.mark.parametrize("backend", _BACKENDS)
def test_detect_after_a_one_row_update_searches_that_row(backend, monkeypatch):
    relation = _zip_table(backend)
    session = CleaningSession(relation, workers=1)
    searches = _Searches(monkeypatch)
    session.detect(_PFDS)
    assert searches.constant and None in searches.constant  # the cold build

    searches.clear()
    session.update([(12, "city", "Chicago")])
    report = session.detect(_PFDS)
    # One row-scoped pass per PFD; the variable rows search the classes
    # holding row 12, then the classes of the violations they retracted.
    assert searches.constant == [(12,)] * len(_PFDS)
    variable_rows = sum(len(pfd.variable_rows()) for pfd in _PFDS)
    assert searches.variable[:variable_rows] == [(12,)] * variable_rows
    assert None not in searches.variable
    _assert_same_report(report, _cold(_PFDS, relation, 1))


@pytest.mark.parametrize("backend", _BACKENDS)
def test_detect_reuses_the_search_of_detect_changed(backend, monkeypatch):
    relation = _zip_table(backend)
    session = CleaningSession(relation, workers=1)
    session.detect(_PFDS)
    session.update([(3, "city", "Chicago")])
    searches = _Searches(monkeypatch)
    session.detect_changed(_PFDS)
    assert searches.constant == [(3,)] * len(_PFDS)

    searches.clear()
    report = session.detect(_PFDS)
    assert searches.constant == []  # the changed row is not searched again
    assert None not in searches.variable
    _assert_same_report(report, _cold(_PFDS, relation, 1))
    # validate reads the spliced view: no search at all.
    searches.clear()
    validation = session.validate(_PFDS)
    assert searches.constant == searches.variable == []
    assert validation.entries == validate_pfds(relation.copy(), _PFDS).entries


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_failed_splice_leaves_a_cold_view(backend, monkeypatch):
    relation = _zip_table(backend)
    session = CleaningSession(relation, workers=1)
    session.detect(_PFDS)
    session.update([(20, "zip", "10003"), (21, "city", "")])
    variable = PFD._variable_row_violations

    def failing(*args, **kwargs):
        raise RuntimeError("search failed")

    monkeypatch.setattr(PFD, "_variable_row_violations", failing)
    with pytest.raises(RuntimeError):
        session.detect(_PFDS)
    monkeypatch.setattr(PFD, "_variable_row_violations", variable)
    _assert_same_report(session.detect(_PFDS), _cold(_PFDS, relation, 1))


def test_a_scoped_view_holds_the_scoped_report():
    relation = _zip_table("numpy")
    evaluator = PatternEvaluator()
    view = DetectionView(_PFDS, evaluator)
    view.splice(relation, (7, 45))
    scoped = ErrorDetector(_PFDS, evaluator=evaluator).detect(relation, changed_rows=[45, 7, 7])
    _assert_same_report(view.report(relation), scoped)
    assert [error.cell for error in scoped.errors] == [CellRef(7, "city")]


@pytest.mark.parametrize("backend", _BACKENDS)
def test_detect_after_writes_with_separate_detect_changed_splices_them_all(backend):
    # Each write's delta is consumed by its own detect_changed, so the second
    # scoped search covers fewer rows than the view has dirty: the view must
    # search the first write's rows itself.
    relation = _zip_table(backend)
    session = CleaningSession(relation, workers=1)
    session.detect(_PFDS)
    session.update([(45, "city", "Boston")])
    session.detect_changed(_PFDS)
    session.update([(3, "state", "NY")])
    session.detect_changed(_PFDS)
    report = session.detect(_PFDS)
    _assert_same_report(report, _cold(_PFDS, relation, 1))
    assert {(error.cell.row_id, error.cell.attribute) for error in report.errors} >= {
        (45, "city"),
        (3, "state"),
    }
