"""Pattern tableaux for PFDs.

A PFD ``R(X -> Y, Tp)`` carries a tableau ``Tp``; each tableau tuple assigns,
to every attribute in ``X`` and ``Y``, either

* a *constrained pattern* (:class:`~repro.patterns.ast.Pattern`), or
* the unnamed wildcard ``⊥``.

The wildcard imposes no format restriction and — exactly like the ``_``
wildcard of CFDs — requires plain equality of the whole value when two tuples
are compared.  Internally it is therefore treated as the constrained pattern
``{{\\A*}}`` (match anything, constrain everything), which makes the
satisfaction check uniform.

A tableau is compiled once per embedded FD into a :class:`TableauPlan`
(:meth:`PatternTableau.plan`): the row classification and the distinct
patterns per attribute that evaluation reads, so a search does not walk
the rows to rebuild them.  Adding a row drops the plans.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..engine.evaluator import PatternList
from ..exceptions import TableauError
from ..patterns.ast import ConstrainedGroup, Pattern, Repeat, ClassAtom
from ..patterns.alphabet import CharClass
from ..patterns.containment import is_restriction_of
from ..patterns.matcher import CompiledPattern, compile_pattern
from ..patterns.parser import parse_pattern


class Wildcard:
    """The unnamed variable ``⊥`` of PFD tableaux (singleton)."""

    _instance: Optional["Wildcard"] = None

    def __new__(cls) -> "Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __str__(self) -> str:
        return "⊥"


#: The singleton wildcard value.
WILDCARD = Wildcard()

#: A tableau cell: a pattern, the wildcard, or (for convenience in literals)
#: a pattern string that will be parsed.
CellSpec = Union[Pattern, Wildcard, str]


def _wildcard_pattern() -> Pattern:
    """The pattern ``{{\\A*}}`` that encodes the wildcard's semantics."""
    star = Repeat(ClassAtom(CharClass.ANY), 0, None)
    return Pattern((ConstrainedGroup((star,)),))


_WILDCARD_PATTERN = _wildcard_pattern()


def effective_pattern(cell: Union[Pattern, Wildcard]) -> Pattern:
    """The pattern that implements a tableau cell's semantics.

    The wildcard ``⊥`` behaves exactly like ``{{\\A*}}``: it matches every
    value and, when two tuples are compared, requires their whole values to
    be identical.
    """
    if isinstance(cell, Wildcard):
        return _WILDCARD_PATTERN
    return cell


def cell_is_restriction(
    specific: Union[Pattern, Wildcard], general: Union[Pattern, Wildcard]
) -> bool:
    """The restriction relation ``specific ⊑ general`` lifted to tableau cells.

    Both cells are mapped to their effective patterns (⊥ becomes
    ``{{\\A*}}``) and compared with
    :func:`repro.patterns.containment.is_restriction_of`.
    """
    return is_restriction_of(effective_pattern(specific), effective_pattern(general))


def resolve_cell(cell: CellSpec) -> Union[Pattern, Wildcard]:
    """Normalize a cell specification: parse strings, keep patterns/wildcard."""
    if isinstance(cell, Wildcard):
        return WILDCARD
    if isinstance(cell, Pattern):
        return cell
    if isinstance(cell, str):
        if cell in ("⊥", "_", ""):
            return WILDCARD
        return parse_pattern(cell)
    raise TableauError(f"invalid tableau cell {cell!r}")


@dataclasses.dataclass(frozen=True)
class PatternTuple:
    """One row of a pattern tableau.

    ``cells`` maps attribute names to patterns or the wildcard.  The mapping
    is stored as a sorted tuple so the row is hashable.
    """

    cells: tuple[tuple[str, Union[Pattern, Wildcard]], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, CellSpec]) -> "PatternTuple":
        resolved = {name: resolve_cell(cell) for name, cell in mapping.items()}
        return cls(tuple(sorted(resolved.items(), key=lambda item: item[0])))

    # -- access --------------------------------------------------------------

    def attributes(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.cells)

    def as_dict(self) -> dict[str, Union[Pattern, Wildcard]]:
        return dict(self.cells)

    def cell(self, attribute: str) -> Union[Pattern, Wildcard]:
        for name, value in self.cells:
            if name == attribute:
                return value
        raise TableauError(f"tableau row has no cell for attribute {attribute!r}")

    def is_wildcard(self, attribute: str) -> bool:
        return isinstance(self.cell(attribute), Wildcard)

    def pattern(self, attribute: str) -> Pattern:
        """The effective pattern of a cell (wildcard becomes ``{{\\A*}}``)."""
        value = self.cell(attribute)
        if isinstance(value, Wildcard):
            return _WILDCARD_PATTERN
        return value

    def compiled(self, attribute: str) -> CompiledPattern:
        return compile_pattern(self.pattern(attribute))

    # -- classification ------------------------------------------------------

    def constrains_constant(self, attribute: str) -> bool:
        """True if the cell's constrained part is a constant string.

        Cells whose constrained part is constant can be checked on a single
        tuple (Section 2.2): matching the pattern already fixes the
        constrained value, so no second tuple is needed to witness equality.
        """
        value = self.cell(attribute)
        if isinstance(value, Wildcard):
            return False
        group = value.constrained_subpattern()
        if group is None:
            # No constrained part: matching alone is the whole requirement.
            return True
        return group.is_constant()

    def is_constant_row(self, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """True if this row can be applied to single tuples: every LHS cell
        has a constant constrained part and every RHS cell is a constant
        pattern (so the expected value is determined).  Evaluation reads
        the answer off the tableau's compiled plan (:class:`TableauPlan`).
        """
        if not all(self.constrains_constant(attr) for attr in lhs):
            return False
        for attr in rhs:
            value = self.cell(attr)
            if isinstance(value, Wildcard) or not value.is_constant():
                return False
        return True

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict[str, str]:
        """JSON-serializable form: attribute → pattern string (``"⊥"`` for
        the wildcard).  Inverse of :meth:`from_json_dict`."""
        return {
            name: "⊥" if isinstance(value, Wildcard) else value.to_pattern_string()
            for name, value in self.cells
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "PatternTuple":
        """Rebuild a row from :meth:`to_json_dict` output.

        Unlike the lenient :func:`resolve_cell` (which also accepts ``"_"``
        and ``""`` as wildcard aliases for hand-written literals), only the
        exact ``"⊥"`` marker deserializes to the wildcard here — a stored
        pattern string such as the literal ``"_"`` must round-trip to the
        pattern that matches only ``"_"``, not to match-anything.
        """
        resolved: dict[str, Union[Pattern, Wildcard]] = {}
        for name, text in data.items():
            if text == "⊥":
                resolved[name] = WILDCARD
            else:
                resolved[name] = parse_pattern(text)
        return cls(tuple(sorted(resolved.items(), key=lambda item: item[0])))

    # -- display ---------------------------------------------------------------

    def render(self, lhs: Sequence[str], rhs: Sequence[str]) -> str:
        """Render in the paper's ``(lhs-patterns || rhs-patterns)`` style."""
        left = ", ".join(self._render_cell(attr) for attr in lhs)
        right = ", ".join(self._render_cell(attr) for attr in rhs)
        return f"({left} || {right})"

    def _render_cell(self, attribute: str) -> str:
        value = self.cell(attribute)
        if isinstance(value, Wildcard):
            return f"{attribute}=⊥"
        return f"{attribute}={value.to_pattern_string()}"

    def __str__(self) -> str:
        return "(" + ", ".join(self._render_cell(name) for name, _ in self.cells) + ")"


class TableauPlan:
    """A tableau compiled for one embedded FD ``lhs -> rhs``.

    Built once from the rows (:meth:`PatternTableau.plan`) and never
    changed; adding a row to the tableau drops it.  It holds what
    evaluation would otherwise re-derive row by row:

    * ``constant`` — per row, whether it applies to single tuples
      (:meth:`PatternTuple.is_constant_row`), and the positions of the
      constant rows (also as ``constant_array``) and of the variable rows;
    * per LHS attribute, ``lhs_patterns`` (the distinct cell patterns in
      row order, the wildcard's ``{{\\A*}}`` included), ``lhs_masks`` (the
      distinct non-wildcard ones as a :class:`~repro.engine.evaluator.
      PatternList`, whose stacked masks the evaluator keeps) and
      ``lhs_index`` (per row, its pattern's index in ``lhs_masks``; ``-1``
      for the wildcard, which matches every value);
    * per RHS attribute, ``rhs_patterns``: the distinct patterns of the
      variable rows (constant rows check their RHS by equality);
    * per constant row, ``expected``: its RHS constants; their codes in a
      relation come from :meth:`expected_codes`.
    """

    def __init__(self, rows: Sequence[PatternTuple], lhs: Sequence[str], rhs: Sequence[str]):
        self.rows = tuple(rows)
        self.lhs, self.rhs = tuple(lhs), tuple(rhs)
        constant = [row.is_constant_row(self.lhs, self.rhs) for row in self.rows]
        self.constant = np.array(constant, dtype=bool)
        self.constant_array = np.flatnonzero(self.constant)
        self.constant_positions = tuple(self.constant_array.tolist())
        self.variable_positions = tuple(np.flatnonzero(~self.constant).tolist())
        self.lhs_patterns: list[tuple[Pattern, ...]] = []
        self.lhs_masks: list[PatternList] = []
        self.lhs_index: list[np.ndarray] = []
        for attribute in self.lhs:
            patterns = [row.pattern(attribute) for row in self.rows]
            masked = {p: None for p in patterns if p != _WILDCARD_PATTERN}
            position = {p: index for index, p in enumerate(masked)}
            self.lhs_patterns.append(tuple(dict.fromkeys(patterns)))
            self.lhs_masks.append(PatternList(masked))
            self.lhs_index.append(
                np.array([position.get(p, -1) for p in patterns], dtype=np.int64)
            )
        self.rhs_patterns = [
            tuple(dict.fromkeys(self.rows[p].pattern(attribute) for p in self.variable_positions))
            for attribute in self.rhs
        ]
        self.expected = [
            tuple(self.rows[p].pattern(attribute).constant_value() for attribute in self.rhs)
            for p in self.constant_positions
        ]
        self._position_of = {row: position for position, row in enumerate(self.rows)}
        self._compiled: dict[PatternTuple, tuple[tuple[CompiledPattern, ...], ...]] = {}
        #: Per RHS attribute, per column (weakly): ``(distinct count, codes)``.
        self._expected_codes = [weakref.WeakKeyDictionary() for _ in self.rhs]

    def position(self, row: PatternTuple) -> Optional[int]:
        """The position of ``row`` in the tableau (None when absent)."""
        return self._position_of.get(row)

    def compiled_cells(
        self, row: PatternTuple
    ) -> tuple[tuple[CompiledPattern, ...], tuple[CompiledPattern, ...]]:
        """The compiled LHS and RHS cell patterns of ``row`` (memoized for
        the tableau's own rows)."""
        cells = self._compiled.get(row)
        if cells is None:
            cells = (
                tuple(row.compiled(attribute) for attribute in self.lhs),
                tuple(row.compiled(attribute) for attribute in self.rhs),
            )
            if row in self._position_of:
                self._compiled[row] = cells
        return cells

    def expected_codes(self, columns: Sequence) -> np.ndarray:
        """The constant rows' expected RHS codes in ``columns`` (the RHS
        dictionaries, in RHS order), ``constant rows x rhs``; ``-1`` where
        the column does not hold the constant.  Memoized per column, and
        looked up again only for the missing constants when the column
        gained values."""
        codes = []
        for index, column in enumerate(columns):
            memo = self._expected_codes[index]
            cached = memo.get(column)
            if cached is None or cached[0] != column.distinct_count:
                if cached is None:
                    found = np.full(len(self.expected), -1, dtype=np.int64)
                else:
                    found = cached[1].copy()
                for k in np.flatnonzero(found < 0).tolist():
                    code = column.code_of(self.expected[k][index])
                    found[k] = -1 if code is None else code
                cached = memo[column] = (column.distinct_count, found)
            codes.append(cached[1])
        return codes[0][:, None] if len(codes) == 1 else np.column_stack(codes)


class PatternTableau:
    """An ordered collection of :class:`PatternTuple` rows."""

    def __init__(self, rows: Iterable[Union[PatternTuple, Mapping[str, CellSpec]]] = ()):
        resolved: list[PatternTuple] = []
        for row in rows:
            if isinstance(row, PatternTuple):
                resolved.append(row)
            else:
                resolved.append(PatternTuple.from_mapping(row))
        self._rows: list[PatternTuple] = resolved
        self._plans: dict[tuple[tuple[str, ...], tuple[str, ...]], TableauPlan] = {}

    # -- container behaviour ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[PatternTuple]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> PatternTuple:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternTableau):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(tuple(self._rows))

    def __getstate__(self) -> dict:
        # Plans hold weak memos; a copy compiles its own.
        return {"_rows": self._rows}

    def __setstate__(self, state: dict) -> None:
        self._rows = state["_rows"]
        self._plans = {}

    @property
    def rows(self) -> tuple[PatternTuple, ...]:
        return tuple(self._rows)

    def plan(self, lhs: Sequence[str], rhs: Sequence[str]) -> TableauPlan:
        """The tableau compiled for ``lhs -> rhs`` (built once; a new plan
        object after every :meth:`add` that adds a row)."""
        key = (tuple(lhs), tuple(rhs))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = TableauPlan(self._rows, *key)
        return plan

    # -- mutation ----------------------------------------------------------------

    def add(self, row: Union[PatternTuple, Mapping[str, CellSpec]]) -> None:
        """Append a row (deduplicated: identical rows are added only once).
        Adding a row drops the compiled plans."""
        if not isinstance(row, PatternTuple):
            row = PatternTuple.from_mapping(row)
        if row not in self._rows:
            self._rows.append(row)
            self._plans = {}

    def extend(self, rows: Iterable[Union[PatternTuple, Mapping[str, CellSpec]]]) -> None:
        for row in rows:
            self.add(row)

    # -- serialization -----------------------------------------------------------

    def to_json_rows(self) -> list[dict[str, str]]:
        """JSON-serializable form: one attribute → pattern-string dict per
        row.  Inverse of :meth:`from_json_rows`."""
        return [row.to_json_dict() for row in self._rows]

    @classmethod
    def from_json_rows(cls, rows: Iterable[Mapping[str, str]]) -> "PatternTableau":
        """Rebuild a tableau from :meth:`to_json_rows` output."""
        return cls(PatternTuple.from_json_dict(row) for row in rows)

    # -- validation ---------------------------------------------------------------

    def validate(self, lhs: Sequence[str], rhs: Sequence[str]) -> None:
        """Ensure every row covers every attribute of the embedded FD."""
        required = (*lhs, *rhs)
        for row in self._rows:
            for attribute in required:
                row.cell(attribute)  # raises TableauError when missing

    # -- display -------------------------------------------------------------------

    def render(self, lhs: Sequence[str], rhs: Sequence[str]) -> str:
        return "\n".join(row.render(lhs, rhs) for row in self._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PatternTableau(rows={len(self._rows)})"
