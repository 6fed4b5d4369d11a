"""Shared building blocks for integrity constraints (FDs, CFDs, PFDs).

All constraint classes expose the same small surface:

* ``lhs`` / ``rhs`` — the attribute sets of the embedded dependency,
* ``holds_on(relation)`` — does the relation satisfy the constraint,
* ``violations(relation)`` — the list of :class:`Violation` objects, each of
  which points at the concrete cells involved.

A :class:`CellRef` identifies a single cell ``(row_id, attribute)``; it is the
unit of error reporting used throughout the cleaning package.  A violation
spanning a whole equivalence class carries its cells as a :class:`ClassCells`
view instead, which builds a ``CellRef`` only for the cells actually read.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Sequence as SequenceABC
from typing import Iterator, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..dataset.relation import Relation


def _cell_text(row_id: int, attribute: str) -> str:
    return f"t{row_id}[{attribute}]"


@dataclasses.dataclass(frozen=True, order=True)
class CellRef:
    """A reference to one cell of a relation."""

    row_id: int
    attribute: str

    def value(self, relation: Relation) -> str:
        """The current value of the referenced cell."""
        return relation.cell(self.row_id, self.attribute)

    def __str__(self) -> str:
        return _cell_text(self.row_id, self.attribute)


class ClassCells(SequenceABC):
    """The cells ``rows × attributes`` of one class, as a read-only sequence.

    The order is row-major — for each row id, every attribute — exactly as
    the eager ``tuple(CellRef(r, a) for r in rows for a in attributes)``,
    and so are equality and hashing, in both directions: a view equals (and
    hashes like) the tuple holding the same cells.  ``len`` is O(1); a
    ``CellRef`` is built only for a cell that is indexed or iterated, so a
    violation over a large class costs its row array, not one object per
    cell.  ``rows`` is an int64 array the view owns (never a slice of a
    partition snapshot), and the view pickles as that array.
    """

    __slots__ = ("rows", "attributes", "_hash")

    def __init__(self, rows: np.ndarray, attributes: Sequence[str]):
        self.rows = rows
        self.attributes = tuple(attributes)
        self._hash: Optional[int] = None

    def __len__(self) -> int:
        return len(self.rows) * len(self.attributes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        position = operator.index(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("cell index out of range")
        row, column = divmod(position, len(self.attributes))
        return CellRef(int(self.rows[row]), self.attributes[column])

    def __iter__(self) -> Iterator[CellRef]:
        attributes = self.attributes
        for row_id in self.rows.tolist():
            for attribute in attributes:
                yield CellRef(row_id, attribute)

    def row_ids(self) -> tuple[int, ...]:
        """The distinct row ids, ascending."""
        return tuple(np.unique(self.rows).tolist())

    def text(self) -> str:
        """The cells rendered as ``CellRef.__str__`` would, comma-separated."""
        attributes = self.attributes
        return ", ".join(
            _cell_text(row_id, attribute)
            for row_id in self.rows.tolist()
            for attribute in attributes
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClassCells):
            return self.attributes == other.attributes and np.array_equal(
                self.rows, other.rows
            )
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self))
        return self._hash

    def __reduce__(self):
        return (ClassCells, (self.rows, self.attributes))

    def __repr__(self) -> str:
        return f"ClassCells(rows={self.rows.tolist()!r}, attributes={self.attributes!r})"


@dataclasses.dataclass(frozen=True)
class Violation:
    """A witnessed violation of a constraint.

    Attributes
    ----------
    constraint_kind:
        ``"FD"``, ``"CFD"`` or ``"PFD"``.
    constraint_repr:
        Human-readable form of the violated constraint (and tableau row).
    cells:
        The cells participating in the violation.  For single-tuple
        violations this is the cells of one tuple; for pair violations it is
        the four (or more) cells of both tuples, as in Example 2 of the
        paper.  A variable PFD row's violation covers a whole equivalence
        class and carries a lazy :class:`ClassCells` view (``len`` is O(1),
        equality and hashing match the eager tuple); every other violation
        carries a plain tuple.
    suspect_cells:
        The subset of ``cells`` the detector believes to be erroneous (for a
        constant PFD: the RHS cell of the violating tuple; for a variable
        PFD: the RHS cells holding the minority value of the group).
    expected_value:
        The repair the constraint suggests for the suspect cells, when one
        can be derived (constant RHS pattern, or the group's majority value).
    """

    constraint_kind: str
    constraint_repr: str
    cells: Sequence[CellRef]
    suspect_cells: tuple[CellRef, ...] = ()
    expected_value: Optional[str] = None

    def rows(self) -> tuple[int, ...]:
        """The distinct row ids touched by this violation."""
        if isinstance(self.cells, ClassCells):
            return self.cells.row_ids()
        return tuple(sorted({cell.row_id for cell in self.cells}))

    def __str__(self) -> str:
        if isinstance(self.cells, ClassCells):
            cell_text = self.cells.text()
        else:
            cell_text = ", ".join(str(cell) for cell in self.cells)
        return f"{self.constraint_kind} violation of {self.constraint_repr} on [{cell_text}]"


@runtime_checkable
class Constraint(Protocol):
    """Structural protocol satisfied by FD, CFD and PFD."""

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def holds_on(self, relation: Relation) -> bool:  # pragma: no cover - protocol
        ...

    def violations(self, relation: Relation) -> list[Violation]:  # pragma: no cover
        ...


def embedded_dependency_key(lhs: Sequence[str], rhs: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Canonical key for an embedded dependency ``X -> Y``.

    The evaluation of the paper counts *embedded dependencies* rather than
    individual FDs/CFDs/PFDs (Section 5.1); this key is what the experiment
    harness groups by.
    """
    return (tuple(sorted(lhs)), tuple(sorted(rhs)))
