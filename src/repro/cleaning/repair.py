"""Explainable repair of detected errors.

Section 4.5 of the paper motivates PFDs with *automatic and explainable
repairs*: each repair is justified by the violated PFD row, so a human can
audit it.  The repairer applies the suggestions produced by the detector
(majority / constant-RHS values) and records, for every change, which
constraint demanded it — the "ETL rule"-style explanation the paper asks for.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..constraints.base import CellRef
from ..core.pfd import PFD
from ..dataset.mutations import MutationBatch
from ..dataset.relation import Relation
from ..engine.evaluator import PatternEvaluator
from .detector import DetectionReport, ErrorDetector


@dataclasses.dataclass(frozen=True)
class Repair:
    """One applied (or proposed) repair with its justification."""

    cell: CellRef
    old_value: str
    new_value: str
    justification: tuple[str, ...]


@dataclasses.dataclass
class RepairResult:
    """The repaired relation and the log of changes."""

    relation: Relation
    repairs: list[Repair]
    unresolved: list[CellRef]
    #: Suspect cells still flagged after re-detection (``verify=True`` only).
    remaining_error_cells: Optional[frozenset[CellRef]] = None

    @property
    def repaired_cells(self) -> set[CellRef]:
        return {repair.cell for repair in self.repairs}

    def summary(self) -> str:
        lines = [
            f"{len(self.repairs)} repairs applied, {len(self.unresolved)} cells "
            "flagged without a confident repair"
        ]
        for repair in self.repairs[:25]:
            lines.append(
                f"  {repair.cell}: {repair.old_value!r} -> {repair.new_value!r} "
                f"(by {repair.justification[0]})"
            )
        if len(self.repairs) > 25:
            lines.append(f"  ... and {len(self.repairs) - 25} more")
        return "\n".join(lines)


class Repairer:
    """Apply PFD-derived repairs to a relation.

    Parameters
    ----------
    pfds:
        Constraints to enforce.
    min_evidence:
        Forwarded to :class:`~repro.cleaning.detector.ErrorDetector`.
    dry_run:
        When True the input relation is left untouched and the proposed
        repairs are only reported.
    verify:
        When True (and not a dry run), the repaired relation is re-detected
        and the still-flagged suspect cells are reported in
        :attr:`RepairResult.remaining_error_cells`.  Repairs are written
        into a fresh copy of the relation, so the re-detection builds its
        partitions cold over the repaired rows.

    Both detection passes (the report, unless one is supplied, and the
    verification) run serially in this process, like every
    :class:`ErrorDetector`.
    """

    def __init__(
        self,
        pfds: Sequence[PFD],
        min_evidence: int = 1,
        dry_run: bool = False,
        evaluator: Optional[PatternEvaluator] = None,
        verify: bool = False,
    ):
        self.pfds = list(pfds)
        self.min_evidence = min_evidence
        self.dry_run = dry_run
        self.evaluator = evaluator
        self.verify = verify

    def repair(
        self, relation: Relation, report: Optional[DetectionReport] = None
    ) -> RepairResult:
        """Detect (unless a report is supplied) and apply repairs."""
        if report is None:
            report = ErrorDetector(
                self.pfds, min_evidence=self.min_evidence, evaluator=self.evaluator
            ).detect(relation)
        target = relation if self.dry_run else relation.copy()
        repairs: list[Repair] = []
        unresolved: list[CellRef] = []
        for error in report.errors:
            if error.suggested_value is None or error.suggested_value == error.current_value:
                unresolved.append(error.cell)
                continue
            repairs.append(
                Repair(
                    cell=error.cell,
                    old_value=error.current_value,
                    new_value=error.suggested_value,
                    justification=error.constraints,
                )
            )
        if repairs and not self.dry_run:
            # One batch: the report names each cell once, so the cells'
            # order does not matter.
            target.apply(
                MutationBatch.update_cells(
                    (repair.cell.row_id, repair.cell.attribute, repair.new_value)
                    for repair in repairs
                )
            )
        remaining: Optional[frozenset[CellRef]] = None
        if self.verify and not self.dry_run:
            verification = ErrorDetector(
                self.pfds, min_evidence=self.min_evidence, evaluator=self.evaluator
            ).detect(target)
            remaining = frozenset(verification.error_cells)
        return RepairResult(
            relation=target,
            repairs=repairs,
            unresolved=unresolved,
            remaining_error_cells=remaining,
        )


def repair_errors(
    relation: Relation,
    pfds: Sequence[PFD],
    min_evidence: int = 1,
    evaluator: Optional[PatternEvaluator] = None,
    verify: bool = False,
) -> RepairResult:
    """Convenience wrapper: repair through a throwaway
    :class:`~repro.session.CleaningSession`.

    ``verify`` defaults to False here for backwards compatibility; the
    session's :meth:`~repro.session.CleaningSession.repair` defaults to
    True.  Callers running more than one pipeline stage on the same
    relation should hold a session instead.
    """
    from ..session import CleaningSession  # local import: session sits above

    return CleaningSession(relation, evaluator=evaluator).repair(
        pfds, min_evidence=min_evidence, verify=verify
    )
