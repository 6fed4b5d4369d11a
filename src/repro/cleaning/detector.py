"""Error detection with PFDs (Section 5.3).

Given a relation and a set of (validated) PFDs, the detector collects every
violation, maps it to the suspect cells, and aggregates the per-cell evidence
into an error report.  When several PFDs disagree about a cell, the cell is
still reported (any violation is evidence of *some* error in the violating
tuple pair), but the proposed repair comes from the constraint with the
strongest support.

The report is built as a :class:`DetectionView`, which can also be kept
across writes: a :class:`~repro.session.CleaningSession` marks each write's
changed rows in it and splices only what they can affect into the last
report, instead of re-detecting the whole table.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import os
from collections import defaultdict
from typing import Iterable, Optional, Sequence

import numpy as np

from ..constraints.base import CellRef, Violation
from ..core.pfd import PFD, prime_for_pfds, prime_partitions_for_pfds
from ..dataset.relation import Relation
from ..engine.evaluator import PatternEvaluator


@dataclasses.dataclass(frozen=True)
class DetectedError:
    """One suspected erroneous cell with its evidence."""

    cell: CellRef
    current_value: str
    suggested_value: Optional[str]
    evidence_count: int
    constraints: tuple[str, ...]


@dataclasses.dataclass
class DetectionReport:
    """All errors detected on one relation by one set of PFDs."""

    relation_name: str
    errors: list[DetectedError]
    violations: list[Violation]
    #: Engine backend the evaluation ran on (``"numpy"``/``"sql"``); both
    #: produce bit-identical reports — recorded for benchmarks/telemetry.
    backend: str = "numpy"
    #: The :attr:`DetectionView.version` the report was read at (None when
    #: it came from no view); not part of report equality.
    version: Optional[str] = dataclasses.field(default=None, compare=False)

    @property
    def error_cells(self) -> set[CellRef]:
        return {error.cell for error in self.errors}

    def errors_in(self, attribute: str) -> list[DetectedError]:
        return [error for error in self.errors if error.cell.attribute == attribute]

    def __len__(self) -> int:
        return len(self.errors)

    def summary(self) -> str:
        lines = [f"{len(self.errors)} suspected errors in {self.relation_name!r}"]
        for error in self.errors[:25]:
            suggestion = (
                f" -> {error.suggested_value!r}" if error.suggested_value is not None else ""
            )
            lines.append(
                f"  {error.cell} = {error.current_value!r}{suggestion} "
                f"({error.evidence_count} violation(s))"
            )
        if len(self.errors) > 25:
            lines.append(f"  ... and {len(self.errors) - 25} more")
        return "\n".join(lines)


#: A suspect cell's evidence key: ``(row_id, attribute)``, the order
#: ``CellRef`` sorts by, without its dataclass ``__lt__``.
_Cell = tuple[int, str]


class DetectionView:
    """The detection report of one PFD set, kept as a view of a relation.

    Violations are held per *segment* — one tableau row of one PFD, in
    PFD-then-position order — and within a segment per *entry*: the
    violations of one tuple for a constant row, keyed by its row id, or of
    one equivalence class for a variable row, keyed by the class's smallest
    member (the order partitions list their classes in).  Every suspect cell
    maps to the violations naming it, tagged ``(segment, entry, index)``,
    which sorts in the report's violation order.  Segments are numbered
    off the PFDs' compiled tableau plans (:attr:`PFD.plan`); when a
    tableau gains a row, its plan is replaced and the view empties itself.

    :meth:`mark` records the rows a write changed, and :meth:`refresh`
    propagates them into the view with :meth:`splice` (Polynesia-style
    update propagation, with the report as the analytical replica of the
    table):

    * the changed rows are searched as a scoped detection searches them:
      constant rows check those tuples, variable rows the classes now
      holding one;
    * a constant row's entries of the changed rows are retracted; a variable
      row's entries are retracted when their class rows meet a changed row
      or a class that search found (a changed row entered that class, which
      therefore still violates);
    * the classes now holding a row of a retracted class are searched too:
      they cover the classes a changed row left;
    * evidence, suggestion, current value and constraint order are
      recomputed only for the cells a retracted or added violation names.

    Only the segments a splice can change are visited: those with found
    violations, the variable ones holding entries, and the constant ones
    with an entry at a changed row (see :meth:`_affected`).

    A class with no changed row that met no found class is the same class
    with the same values as before, so its entry stands.  A new view is
    empty with every row dirty, so its first refresh is a cold detection;
    splicing given rows into a new view leaves the scoped report of those
    rows (see :meth:`ErrorDetector.detect`).  All three run the same splice.

    The report's state is named by :attr:`version`, ``"<nonce>.<n>"``: a
    splice that touches cells bumps ``n`` and logs each touched cell, so
    :meth:`changed_since` answers what changed after an earlier version in
    O(delta) — the replica's changes, not the replica.  The nonce is drawn
    anew after the view is emptied, when the version is first read, so a
    version handed out by an earlier view (an evicted or restarted tenant,
    a rediscovered PFD set, a splice that failed) never names this one's
    state; until a version is read, splices log nothing.
    """

    def __init__(self, pfds: Sequence[PFD], evaluator: PatternEvaluator):
        self.pfds = list(pfds)
        self.evaluator = evaluator
        self._compile()
        self._clear()

    def _compile(self) -> None:
        """Read the PFDs' compiled plans: segment ``bases[i] + position``
        is tableau row ``position`` of PFD ``i``."""
        self._plans = [pfd.plan for pfd in self.pfds]
        self._bases = list(itertools.accumulate((len(plan.rows) for plan in self._plans), initial=0))
        self._variable_segments = [
            base + position
            for plan, base in zip(self._plans, self._bases)
            for position in plan.variable_positions
        ]
        #: The attributes a constant row's suspect cells can name.
        self._rhs_attributes = tuple(dict.fromkeys(a for pfd in self.pfds for a in pfd.rhs))

    def _locate(self, segment: int) -> tuple[int, int]:
        """The ``(pfd index, tableau position)`` of a segment."""
        index = bisect.bisect_right(self._bases, segment) - 1
        return index, segment - self._bases[index]

    def _recompile_if_stale(self) -> None:
        """Empty the view when a PFD's tableau gained a row since the plans
        were read: its segments no longer number the rows."""
        for pfd, plan in zip(self.pfds, self._plans):
            if pfd.plan is not plan:
                self._compile()
                self._clear()
                return

    def _clear(self) -> None:
        """Empty the view and mark every row dirty."""
        #: The dirty rows as a mask by row id, grown on demand (rows past
        #: its end are clean); None marks every row dirty.
        self._dirty: Optional[np.ndarray] = None
        self._entries: dict[int, dict[int, list[Violation]]] = {}
        #: Per segment, its violations in entry order (dropped on change).
        self._ordered: dict[int, list[Violation]] = {}
        #: Per variable segment, its classes' rows and owning entry keys.
        self._class_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Per suspect cell, its first ``CellRef`` and its tagged violations.
        self._evidence: dict[_Cell, tuple[CellRef, dict[tuple[int, int, int], Violation]]] = {}
        self._errors: dict[_Cell, DetectedError] = {}
        self._violations: Optional[list[Violation]] = None
        #: Per PFD, its number of violations.
        self._counts = [0] * len(self.pfds)
        #: ``(rows, violations per segment)`` of the last search.
        self._searched: Optional[tuple[Optional[tuple[int, ...]], dict]] = None
        #: Drawn when :attr:`version` is first read.  Until then no one holds
        #: a version of this view, so its splices log nothing: a throwaway
        #: cold or scoped view never logs.
        self._nonce: Optional[str] = None
        self._n = 0
        #: Per touched cell, the last ``n`` a splice touched it at, oldest
        #: first; versions below ``_floor`` predate the log.
        self._log: dict[_Cell, int] = {}
        self._floor = 0

    # -- writes ----------------------------------------------------------------

    def mark(self, rows: Sequence[int]) -> None:
        """Record rows a write changed (appended, updated or deleted); the
        next :meth:`refresh` splices them in.  O(rows), amortized."""
        self._searched = None
        if self._dirty is None or not len(rows):
            return
        rows = np.asarray(rows, dtype=np.int64)
        size = int(rows.max()) + 1
        if size > len(self._dirty):
            grown = np.zeros(max(size, 2 * len(self._dirty)), dtype=bool)
            grown[: len(self._dirty)] = self._dirty
            self._dirty = grown
        self._dirty[rows] = True

    def adopt(self, other: "DetectionView") -> None:
        """Reuse ``other``'s last search for the next :meth:`refresh` when
        it covered exactly this view's dirty rows, for the same PFDs — a
        scoped detection of the pending writes is that very search."""
        self._recompile_if_stale()
        searched, dirty = other._searched, self._dirty
        if searched is None or searched[0] is None or dirty is None:
            return
        rows = np.asarray(searched[0], dtype=np.int64)
        if (
            np.count_nonzero(dirty) == len(rows)
            and (not len(rows) or (rows[-1] < len(dirty) and dirty[rows].all()))
            and other.pfds == self.pfds
            and all(mine is theirs for mine, theirs in zip(self._plans, other._plans))
        ):
            self._searched = searched

    def refresh(self, relation: Relation) -> None:
        """Splice the dirty rows into the view (a no-op when none are)."""
        self._recompile_if_stale()
        dirty = self._dirty
        self.splice(relation, None if dirty is None else tuple(np.flatnonzero(dirty).tolist()))
        if dirty is None:
            self._dirty = np.zeros(0, dtype=bool)
        else:
            dirty[:] = False

    def splice(self, relation: Relation, rows: Optional[tuple[int, ...]]) -> None:
        """Propagate the changes of ``rows`` (unique and ascending; None for
        every row) into the view.  Dirty marks are left to :meth:`refresh`."""
        self._recompile_if_stale()
        for pfd in self.pfds:
            relation.schema.validate_attributes(pfd.attributes())
        if rows == ():
            return
        if self._searched is None or self._searched[0] != rows:
            self._searched = (rows, self._search(relation, rows))
        try:
            self._splice(relation, rows, self._searched[1])
        except BaseException:
            self._clear()  # a half-spliced view is rebuilt cold
            raise

    # -- reads -----------------------------------------------------------------

    @property
    def version(self) -> str:
        """The report's state: ``"<nonce>.<n>"``."""
        if self._nonce is None:
            # os.urandom, not secrets: that imports hmac and with it OpenSSL.
            self._nonce = os.urandom(8).hex()
            self._floor = self._n
        return f"{self._nonce}.{self._n}"

    def report(self, relation: Relation, min_evidence: int = 1) -> DetectionReport:
        """The view's report (call :meth:`refresh` first)."""
        return DetectionReport(
            relation_name=relation.name,
            errors=[
                error for error in self._errors.values() if error.evidence_count >= min_evidence
            ],
            violations=list(self.violations()),
            backend=relation.backend,
            version=self.version,
        )

    def changed_since(
        self, version: str, min_evidence: int = 1
    ) -> Optional[tuple[list[DetectedError], list[_Cell]]]:
        """The report's changes after ``version``: the errors, by cell, of
        the cells touched since that the report holds at ``min_evidence``,
        and the touched cells it no longer holds.  O(delta); None when
        ``version`` is not this view's or predates its log."""
        nonce, _, n = version.rpartition(".")
        if nonce != self._nonce or not (n.isascii() and n.isdigit()):
            return None
        since = int(n)
        if not self._floor <= since <= self._n:
            return None
        log, cells = self._log, []
        for at in reversed(log):
            if log[at] <= since:
                break
            cells.append(at)
        errors: list[DetectedError] = []
        removed: list[_Cell] = []
        for at in sorted(cells):
            error = self._errors.get(at)
            if error is not None and error.evidence_count >= min_evidence:
                errors.append(error)
            else:
                removed.append(at)
        return errors, removed

    def violations(self) -> list[Violation]:
        """Every violation, by PFD, tableau position, then row or class."""
        if self._violations is None:
            self._violations = [
                violation for segment in sorted(self._entries) for violation in self._segment(segment)
            ]
        return self._violations

    def violation_counts(self) -> list[int]:
        """The number of violations of each PFD, in PFD order."""
        return list(self._counts)

    def _segment(self, segment: int) -> list[Violation]:
        ordered = self._ordered.get(segment)
        if ordered is None:
            entries = self._entries[segment]
            ordered = [violation for key in sorted(entries) for violation in entries[key]]
            self._ordered[segment] = ordered
        return ordered

    # -- the splice ------------------------------------------------------------

    def _search(
        self, relation: Relation, scope: Optional[tuple[int, ...]]
    ) -> dict[int, list[Violation]]:
        """The violations per segment of the rows in ``scope`` (all rows for
        None): prime once for every PFD, then one pass per PFD over its
        constant rows and one per variable row.  Only an unscoped search
        builds partition leaves; a scoped one finds its classes from the
        leaves' grouping states."""
        prime_for_pfds(relation, self.pfds, self.evaluator)
        if scope is None:
            prime_partitions_for_pfds(relation, self.pfds, self.evaluator)
        found: dict[int, list[Violation]] = {}
        for pfd, plan, base in zip(self.pfds, self._plans, self._bases):
            constant = pfd._constant_violations(relation, self.evaluator, scope)
            for position, violations in constant.items():
                found[base + position] = violations
            for position in plan.variable_positions:
                violations = pfd._variable_row_violations(
                    relation, plan.rows[position], self.evaluator, scope
                )
                if violations:
                    found[base + position] = violations
        return found

    def _splice(
        self,
        relation: Relation,
        scope: Optional[tuple[int, ...]],
        found: dict[int, list[Violation]],
    ) -> None:
        touched: set[_Cell] = set()
        scope_rows = None if scope is None else np.asarray(scope, dtype=np.int64)
        scope_set: Optional[set[int]] = None
        for segment in sorted(self._affected(scope, found)):
            index, position = self._locate(segment)
            pfd, plan = self.pfds[index], self._plans[index]
            is_constant = bool(plan.constant[position])
            entries = self._entries.get(segment)
            added = _entries_of(found.get(segment, ()), is_constant)
            if not entries and not added:
                continue
            if entries is None:
                entries = self._entries[segment] = {}
            probe = None
            if not entries:
                retracted = []
            elif scope is None:
                retracted = list(entries)
            elif is_constant:
                if len(entries) < len(scope):
                    scope_set = scope_set or set(scope)
                    retracted = [key for key in entries if key in scope_set]
                else:
                    retracted = [key for key in scope if key in entries]
            else:
                probe = np.concatenate(
                    [scope_rows] + [violations[0].cells.rows for _, violations in added]
                )
                retracted = self._meeting(segment, probe)
            gone = [(key, entries.pop(key)) for key in retracted]
            for key, violations in gone:
                self._unlink(segment, key, violations, touched)
                self._counts[index] -= len(violations)
            if gone and probe is not None:
                # The classes a changed row left: search the classes now
                # holding a row of a retracted class that no class searched
                # above holds.
                rows = np.setdiff1d(
                    np.concatenate([violations[0].cells.rows for _, violations in gone]),
                    probe,
                )
                if len(rows):
                    added += _entries_of(
                        pfd._variable_row_violations(
                            relation, plan.rows[position], self.evaluator, tuple(rows.tolist())
                        ),
                        False,
                    )
            for key, violations in added:
                entries[key] = violations
                self._link(segment, key, violations, touched)
                self._counts[index] += len(violations)
            if gone or added:
                self._ordered.pop(segment, None)
                self._class_rows.pop(segment, None)
                self._violations = None
            if not entries:
                del self._entries[segment]
        self._aggregate(relation, touched)

    def _affected(
        self, scope: Optional[tuple[int, ...]], found: dict[int, list[Violation]]
    ) -> set[int]:
        """The segments a splice of ``scope`` may change: those with found
        violations, and those with entries the scope can retract.  Every
        variable segment with entries qualifies (a changed row may have
        left one of its classes); a constant segment does when it has an
        entry at a scope row, which then names a suspect cell ``(row, rhs
        attribute)`` in the evidence.  So a small scope costs O(scope),
        not O(segments with entries)."""
        entries = self._entries
        if scope is None or len(scope) * len(self._rhs_attributes) >= len(entries):
            return entries.keys() | found.keys()
        segments = found.keys() | {s for s in self._variable_segments if s in entries}
        evidence_of = self._evidence
        for row in scope:
            for attribute in self._rhs_attributes:
                evidence = evidence_of.get((row, attribute))
                if evidence is not None:
                    segments.update(tag[0] for tag in evidence[1] if tag[1] == row)
        return segments

    def _meeting(self, segment: int, rows: np.ndarray) -> list[int]:
        """The keys of a variable segment's entries whose class rows meet
        ``rows``."""
        class_rows = self._class_rows.get(segment)
        if class_rows is None:
            entries = self._entries[segment]
            first = [violations[0].cells.rows for violations in entries.values()]
            class_rows = (
                np.concatenate(first),
                np.repeat(
                    np.fromiter(entries, dtype=np.int64, count=len(entries)),
                    [len(rows) for rows in first],
                ),
            )
            self._class_rows[segment] = class_rows
        members, owners = class_rows
        return np.unique(owners[np.isin(members, rows)]).tolist()

    def _link(self, segment: int, key: int, violations: list[Violation], touched: set) -> None:
        evidence_of = self._evidence
        for index, violation in enumerate(violations):
            tag = (segment, key, index)
            for cell in violation.suspect_cells:
                at = (cell.row_id, cell.attribute)
                evidence = evidence_of.get(at)
                if evidence is None:
                    evidence_of[at] = (cell, {tag: violation})
                else:
                    evidence[1][tag] = violation
                touched.add(at)

    def _unlink(self, segment: int, key: int, violations: list[Violation], touched: set) -> None:
        for index, violation in enumerate(violations):
            tag = (segment, key, index)
            for cell in violation.suspect_cells:
                at = (cell.row_id, cell.attribute)
                del self._evidence[at][1][tag]
                touched.add(at)

    def _aggregate(self, relation: Relation, touched: set[_Cell]) -> None:
        """Recompute the errors of the touched cells, keeping the errors
        sorted by cell, under a new version."""
        if not touched:
            return
        self._n += 1
        errors = self._errors
        last = next(reversed(errors), None)
        unordered = False
        ordered = sorted(touched)
        for at in ordered:
            cell, evidence = self._evidence[at]
            if not evidence:
                del self._evidence[at]
                errors.pop(at, None)
                continue
            if len(evidence) == 1:
                (violation,) = evidence.values()
                violations = [violation]
                suggestion = violation.expected_value
            else:
                violations = [evidence[tag] for tag in sorted(evidence)]
                suggestion = _best_suggestion(violations)
            if at not in errors:
                if last is not None and at < last:
                    unordered = True
                else:
                    last = at
            errors[at] = DetectedError(
                cell=cell,
                current_value=relation.cell(*at),
                suggested_value=suggestion,
                evidence_count=len(violations),
                constraints=tuple(dict.fromkeys(v.constraint_repr for v in violations)),
            )
        if unordered:
            self._errors = {at: errors[at] for at in sorted(errors)}
        if self._nonce is not None:
            self._log_touched(ordered)

    def _log_touched(self, cells: list[_Cell]) -> None:
        """Log ``cells`` under the current version, and drop the oldest
        entries once the log holds more cells than twice the report: a
        delta that long costs more than the report."""
        log, n = self._log, self._n
        for at in cells:
            log.pop(at, None)
            log[at] = n
        excess = len(log) - 2 * len(self._errors)
        if excess > 0:
            oldest = list(itertools.islice(log, excess))
            self._floor = log[oldest[-1]]
            for at in oldest:
                del log[at]


def _entries_of(
    violations: Iterable[Violation], is_constant: bool
) -> list[tuple[int, list[Violation]]]:
    """Consecutive violations of one tuple (constant rows) or one class
    (variable rows) grouped under its entry key."""
    entries: list[tuple[int, list[Violation]]] = []
    for violation in violations:
        if is_constant:
            key = violation.suspect_cells[0].row_id
        else:
            key = int(violation.cells.rows[0])
        if entries and entries[-1][0] == key:
            entries[-1][1].append(violation)
        else:
            entries.append((key, [violation]))
    return entries


def _best_suggestion(violations: Iterable[Violation]) -> Optional[str]:
    """Majority vote over the expected values proposed by the violations."""
    counts: dict[str, int] = defaultdict(int)
    for violation in violations:
        if violation.expected_value is not None:
            counts[violation.expected_value] += 1
    if not counts:
        return None
    value, _ = max(counts.items(), key=lambda item: (item[1], item[0]))
    return value


class ErrorDetector:
    """Detect cell-level errors by evaluating PFD violations.

    Parameters
    ----------
    pfds:
        The constraints to evaluate (typically validated discovery output).
    min_evidence:
        Minimum number of violations that must implicate a cell before it is
        reported (1 keeps every suspect; higher values trade recall for
        precision when many overlapping PFDs are supplied).
    evaluator:
        Optional shared :class:`PatternEvaluator`; pass the one used during
        discovery so detection reuses its per-distinct-value match cache.

    Detection always runs in this process, whatever ``workers`` a session
    or ``REPRO_WORKERS`` asks for: on a warm relation the search takes
    milliseconds, less than re-broadcasting the relation to a process pool
    and rebuilding its partitions there (``workers`` shards discovery only).
    """

    def __init__(
        self,
        pfds: Sequence[PFD],
        min_evidence: int = 1,
        evaluator: Optional[PatternEvaluator] = None,
    ):
        self.pfds = list(pfds)
        self.min_evidence = min_evidence
        # Scoped per detector unless the caller shares one (e.g. discovery's).
        self.evaluator = evaluator or PatternEvaluator()

    def detect(
        self,
        relation: Relation,
        changed_rows: Optional[Iterable[int]] = None,
        view: Optional[DetectionView] = None,
    ) -> DetectionReport:
        """Evaluate every PFD and aggregate suspect cells into a report.

        Evaluation is set-at-a-time across the *whole* PFD set: the tableau
        patterns of every PFD touching one column are matched in a single
        shared-DFA batch up front, so sibling PFDs on the same attribute share
        one scan per distinct value instead of one scan each.  The violating
        groups themselves come from the relation's stripped-partition cache,
        primed here once for all tableau rows: two PFDs whose rows share an
        (attribute, pattern) pair locate their groups in the same cached
        equivalence classes.

        ``changed_rows`` scopes detection to the delta of a mutation batch
        (see :meth:`repro.core.pfd.PFD.violations`): an explicit row-id set
        (typically :attr:`~repro.dataset.mutations.MutationResult.changed_rows`;
        for an append, ``range(start, relation.row_count)``) restricts the
        search to those tuples (constant rows) and the equivalence classes
        currently containing them (variable rows).  Suspect cells of a
        scoped report may still reference untouched rows: a changed tuple
        can turn an old cell into the minority of its class, and a class a
        changed row joined is re-examined as a whole.  An empty set yields
        an empty report.

        ``view`` is a :class:`DetectionView` of this detector's PFDs that
        the caller keeps across writes (a
        :class:`~repro.session.CleaningSession` does): its dirty rows, or
        the ``changed_rows`` when given, are spliced in and the report comes
        from it.  Without one, detection is the same splice over a new,
        empty view.
        """
        view = view or DetectionView(self.pfds, self.evaluator)
        if changed_rows is None:
            view.refresh(relation)
        else:
            view.splice(relation, tuple(sorted({int(row_id) for row_id in changed_rows})))
        return view.report(relation, self.min_evidence)


def detect_errors(
    relation: Relation,
    pfds: Sequence[PFD],
    min_evidence: int = 1,
    evaluator: Optional[PatternEvaluator] = None,
) -> DetectionReport:
    """Convenience wrapper: detection through a throwaway
    :class:`~repro.session.CleaningSession`.

    Callers running more than one pipeline stage on the same relation
    should hold a session instead, so discovery, detection, and repair
    share one evaluator and one partition cache.
    """
    from ..session import CleaningSession  # local import: session sits above

    return CleaningSession(relation, evaluator=evaluator).detect(
        pfds, min_evidence=min_evidence
    )
