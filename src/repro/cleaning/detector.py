"""Error detection with PFDs (Section 5.3).

Given a relation and a set of (validated) PFDs, the detector collects every
violation, maps it to the suspect cells, and aggregates the per-cell evidence
into an error report.  When several PFDs disagree about a cell, the cell is
still reported (any violation is evidence of *some* error in the violating
tuple pair), but the proposed repair comes from the constraint with the
strongest support.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Iterable, Optional, Sequence

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
        """
        if changed_rows is not None:
            changed_rows = tuple(sorted({int(row_id) for row_id in changed_rows}))
        all_violations = self._collect_violations(relation, changed_rows)
        # Evidence is keyed by plain ``(row_id, attribute)`` tuples — the
        # order ``CellRef`` sorts by, without its dataclass ``__lt__`` — and
        # keeps the first suspect ``CellRef`` seen as the error's cell.
        evidence: dict[tuple[int, str], tuple[CellRef, list[Violation]]] = {}
        for violation in all_violations:
            for cell in violation.suspect_cells:
                key = (cell.row_id, cell.attribute)
                entry = evidence.get(key)
                if entry is None:
                    evidence[key] = (cell, [violation])
                else:
                    entry[1].append(violation)

        errors: list[DetectedError] = []
        for key in sorted(evidence):
            cell, cell_violations = evidence[key]
            if len(cell_violations) < self.min_evidence:
                continue
            suggestion = self._best_suggestion(cell_violations)
            errors.append(
                DetectedError(
                    cell=cell,
                    current_value=relation.cell(*key),
                    suggested_value=suggestion,
                    evidence_count=len(cell_violations),
                    constraints=tuple(
                        dict.fromkeys(v.constraint_repr for v in cell_violations)
                    ),
                )
            )
        return DetectionReport(
            relation_name=relation.name,
            errors=errors,
            violations=all_violations,
            backend=relation.backend,
        )

    def _collect_violations(
        self,
        relation: Relation,
        changed_rows: Optional[tuple[int, ...]] = None,
    ) -> list[Violation]:
        """The violation search: prime once, then one pass per PFD."""
        prime_for_pfds(relation, self.pfds, self.evaluator)
        prime_partitions_for_pfds(relation, self.pfds, self.evaluator)
        all_violations: list[Violation] = []
        for pfd in self.pfds:
            all_violations.extend(pfd.primed_violations(relation, self.evaluator, changed_rows))
        return all_violations

    @staticmethod
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
