"""Pattern functional dependencies — the paper's central object.

A PFD ``ψ : R(X -> Y, Tp)`` consists of

* an embedded FD ``X -> Y`` over the schema of ``R``, and
* a pattern tableau ``Tp`` whose cells are constrained patterns or the
  wildcard ``⊥`` (see :mod:`repro.core.tableau`).

Satisfaction (Section 2.2): for every tableau row ``tp``, whenever two data
tuples both match every LHS pattern and are pairwise equivalent on the
constrained LHS parts, they must also match every RHS pattern and be
equivalent on the constrained RHS parts.  Rows whose constrained parts are
constants additionally apply to *single* tuples: any tuple matching the LHS
must match the RHS.

Variable rows need pairs of tuples, so they group the tuples by their
extracted constrained LHS values, which keeps the check linear in the table
size (instead of quadratic over tuple pairs).  The grouping is served by the
relation's stripped-partition cache
(:meth:`~repro.dataset.relation.Relation.partitions`): a variable row's LHS
is an intersection of per-(attribute, pattern) partitions, built once and
shared by violations, discovery validation, and error detection.  A search
scoped to the rows a write changed builds no partition: it reads the
classes of those rows off the leaves' code → key maps and the dictionary
codes (:meth:`~repro.engine.partitions.PartitionManager.scoped_classes`).
Every per-tuple question — constant-row violations, support, coverage,
matching rows — is answered in distinct-code-tuple space instead
(:func:`covered_tuples`): a tableau row covers a code tuple when each LHS
code is non-empty and set in the evaluator's per-code match mask, so these
checks read no partition at all.  The masks of a tableau's distinct LHS
patterns on one column are one stacked matrix in the evaluator
(:meth:`~repro.engine.evaluator.PatternEvaluator.mask_stack`), and the
tableau's compiled plan (:attr:`PFD.plan`) maps each row to its pattern's
index in it, so the hit matrix of a scope is a numpy gather:
a search over a few changed tuples does no Python work per tableau row.

Pattern matching itself is vectorized through :mod:`repro.engine`: every
tableau cell is matched once per *distinct* column value (via the memoized
:class:`~repro.engine.evaluator.PatternEvaluator`) and the per-distinct
results are broadcast to rows through the relation's dictionary-encoded
columns.  All evaluation entry points accept an optional ``evaluator`` so
discovery, validation, and detection can share one match cache; when omitted
the process-wide default evaluator is used.

On top of that, evaluation is *set-at-a-time*: before a tableau is
evaluated, :func:`prime_for_pfds` hands all of its patterns per attribute
to :meth:`~repro.engine.evaluator.PatternEvaluator.match_column_many`, which
compiles them into one shared DFA and scans each distinct column value once
for the whole set.  The masks and per-pattern results read afterwards are
seeded from that scan, so a K-row tableau costs one scan — not K — per
distinct value (plus constrained-part extraction on the values that
matched).  Priming is done once per (plan, column) on an evaluator: a later
call that finds every plan already primed returns after O(PFDs x
attributes) lookups, and the distinct values a write adds are matched when
a mask or result is next read.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..constraints.base import CellRef, ClassCells, Violation, embedded_dependency_key
from ..constraints.fd import FD
from ..dataset.relation import Relation
from ..engine.dictionary import DictionaryColumn
from ..engine.evaluator import PatternEvaluator, default_evaluator
from ..engine.partitions import PartitionKey, PartitionManager, StrippedPartition, _spans
from ..exceptions import ConstraintError
from ..patterns.ast import Pattern
from ..patterns.matcher import CompiledPattern
from ..storage.partitions import SqlPartitionManager, SqlStrippedPartition
from .tableau import CellSpec, PatternTableau, PatternTuple, TableauPlan, Wildcard


def gather_tableau_patterns(pfds: Iterable["PFD"]) -> dict[str, list[Pattern]]:
    """Per attribute, the patterns that evaluating ``pfds`` will match.

    Collects the LHS patterns of every tableau row plus the RHS patterns of
    the *variable* rows (constant rows check their RHS by plain equality, so
    their RHS patterns are never matched).  Order is preserved and duplicates
    are dropped, making the result directly usable as a
    ``match_column_many`` batch per attribute.  Read off each PFD's
    compiled plan, so the cost is per distinct pattern, not per row.

    RHS patterns are included only when an attribute accumulates at least two
    distinct ones (a real batch): variable-row RHS matching is conditional —
    ``_variable_row_violations`` skips it entirely when no LHS group has two
    members — so a lone RHS pattern is left to that lazy path instead of
    being evaluated eagerly here.
    """
    lhs_by_attribute: dict[str, dict[Pattern, None]] = defaultdict(dict)
    rhs_by_attribute: dict[str, dict[Pattern, None]] = defaultdict(dict)
    for pfd in pfds:
        plan = pfd.plan
        for attribute, patterns in zip(plan.lhs, plan.lhs_patterns):
            lhs_by_attribute[attribute].update(dict.fromkeys(patterns))
        for attribute, patterns in zip(plan.rhs, plan.rhs_patterns):
            rhs_by_attribute[attribute].update(dict.fromkeys(patterns))
    gathered = {
        attribute: dict(patterns) for attribute, patterns in lhs_by_attribute.items()
    }
    for attribute, patterns in rhs_by_attribute.items():
        if len(patterns) >= 2:
            gathered.setdefault(attribute, {}).update(patterns)
    return {attribute: list(patterns) for attribute, patterns in gathered.items()}


def prime_for_pfds(
    relation: Relation,
    pfds: Iterable["PFD"],
    evaluator: Optional[PatternEvaluator] = None,
) -> PatternEvaluator:
    """Seed ``evaluator`` set-at-a-time for evaluating ``pfds`` on ``relation``.

    All tableau patterns that touch one column — across every row of every
    supplied PFD — are matched in a single
    :meth:`~repro.engine.evaluator.PatternEvaluator.match_column_many` batch
    (one shared-DFA scan per distinct value), so the per-row evaluation that
    follows is answered from the memoized masks.  Attributes missing from the
    relation's schema are skipped here; the per-PFD evaluation reports them.
    Single-pattern attributes are left to the per-pattern path.

    Priming is needed once per (plan, column) on an evaluator: the
    evaluator records the plans it primed
    (:meth:`~repro.engine.evaluator.PatternEvaluator.mark_primed`), and a
    call whose plans were all primed on these columns returns after
    O(PFDs x attributes) lookups.  Codes a column gains later are matched
    when a mask is read.
    """
    evaluator = evaluator or default_evaluator()
    pfds = list(pfds)
    known = relation.attribute_names
    fresh = False
    for pfd in pfds:
        plan = pfd.plan
        for attribute in pfd.attributes():
            if attribute in known and evaluator.mark_primed(plan, relation.dictionary(attribute)):
                fresh = True
    if fresh:
        for attribute, patterns in gather_tableau_patterns(pfds).items():
            if attribute in known and len(patterns) >= 2:
                evaluator.match_column_many(patterns, relation.dictionary(attribute))
    return evaluator


def prime_partitions_for_pfds(
    relation: Relation,
    pfds: Iterable["PFD"],
    evaluator: Optional[PatternEvaluator] = None,
) -> PartitionManager:
    """Build the leaf partitions that an unscoped evaluation of ``pfds``
    will group by.

    Every distinct (attribute, LHS pattern) pair across the *variable*
    tableau rows of all supplied PFDs maps to one stripped partition in the
    relation's cache (constant rows are checked per tuple and read none);
    building them here — after :func:`prime_for_pfds` has batched the
    pattern matching — means sibling PFDs sharing a pattern share one
    grouping pass, and the subsequent per-row evaluation only intersects
    cached classes.  A search scoped to changed rows reads no partition, so
    it does not call this.  Attributes missing from the schema are skipped
    (the per-PFD evaluation reports them).
    """
    manager = relation.partitions()
    known = set(relation.attribute_names)
    keys: dict[tuple[str, CompiledPattern], None] = {}
    for pfd in pfds:
        plan = pfd.plan
        for position in plan.variable_positions:
            lhs_patterns, _ = plan.compiled_cells(plan.rows[position])
            keys.update(dict.fromkeys(zip(plan.lhs, lhs_patterns)))
    for attribute, pattern in keys:
        if attribute in known:
            manager.pattern_partition(attribute, pattern, evaluator=evaluator)
    return manager


def covered_tuples(
    relation: Relation,
    plan: TableauPlan,
    lhs_codes: np.ndarray,
    evaluator: PatternEvaluator,
    positions: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(tuple, row)`` index pairs, sorted by tuple then row, where
    tableau row ``positions[k]`` (``k`` when ``positions`` is None: every
    row) covers the code tuple ``lhs_codes[t]``: each LHS code is non-empty
    and set in the row's pattern mask (the wildcard matches every value).

    Per attribute, the masks of the plan's distinct patterns are one
    stacked matrix (:meth:`~repro.engine.evaluator.PatternEvaluator.
    mask_stack`); reading it at the distinct codes the tuples hold and the
    rows' pattern indices gives a codes x rows hit matrix in two numpy
    gathers.  The first attribute expands each tuple into its code's
    hitting rows, every further one keeps the pairs whose row hits the
    tuple's code there.  No Python work is done per tableau row; beyond the
    hit matrices the work is O(tuples + covered pairs).
    """
    tuple_ids: Optional[np.ndarray] = None
    for position, attribute in enumerate(plan.lhs):
        column = relation.dictionary(attribute)
        codes, inverse = np.unique(lhs_codes[:, position], return_inverse=True)
        index = plan.lhs_index[position]
        if positions is not None:
            index = index[positions]
        patterns = plan.lhs_masks[position]
        if len(patterns):
            # A wildcard row's index (-1) reads some mask; it is reset below.
            hits = evaluator.mask_stack(patterns, column)[codes][:, index]
            hits[:, index < 0] = True
        else:
            hits = np.ones((len(codes), len(index)), dtype=bool)
        hits &= (codes != column.code_of(""))[:, None]  # all True when no cell is empty
        if tuple_ids is None:
            # Hitting rows grouped by code, ascending within each code.
            code_ids, hitting = np.divmod(np.flatnonzero(hits), len(index))
            counts = np.bincount(code_ids, minlength=len(codes))
            starts = (np.cumsum(counts) - counts)[inverse]
            stops = starts + counts[inverse]
            tuple_ids = np.repeat(np.arange(len(lhs_codes), dtype=np.int64), stops - starts)
            row_ids = hitting[_spans(starts, stops)]
        else:
            keep = hits[inverse[tuple_ids], row_ids]
            tuple_ids, row_ids = tuple_ids[keep], row_ids[keep]
    return tuple_ids, row_ids


@dataclasses.dataclass(frozen=True)
class RhsBuckets:
    """The RHS buckets of one variable tableau cell over one column.

    Two tuples of an LHS class agree on the RHS iff they fall in the same
    bucket: a value matching the cell's pattern is bucketed by its
    extracted constrained part ``(True, part)``, a non-matching value by
    itself ``(False, value)``.  ``ids`` interns the bucket key of every
    dictionary code to a small integer (first-seen order) and ``keys`` maps
    the ids back; ``values`` decodes codes to cell values.
    """

    attribute: str
    ids: np.ndarray
    keys: tuple[tuple[bool, str], ...]
    values: Sequence[str]

    @classmethod
    def of(cls, attribute: str, column: DictionaryColumn, match) -> "RhsBuckets":
        id_of: dict[tuple[bool, str], int] = {}
        ids = np.fromiter(
            (
                id_of.setdefault(
                    (True, result.constrained_value or "")
                    if result.matched
                    else (False, value),
                    len(id_of),
                )
                for value, result in zip(column.values, match.results)
            ),
            dtype=np.int64,
        )
        return cls(attribute, ids, tuple(id_of), column.values)


def variable_class_violations(
    constraint_repr: str,
    lhs: Sequence[str],
    rowids: np.ndarray,
    offsets: np.ndarray,
    rhs: Sequence[tuple[RhsBuckets, np.ndarray]],
) -> list[Violation]:
    """The violations of one variable tableau row over its LHS classes.

    ``rowids[offsets[i]:offsets[i + 1]]`` is class ``i`` (ascending row
    ids); ``rhs`` pairs each RHS attribute's buckets with the RHS codes of
    ``rowids``, position for position.  A class whose tuples all share one
    bucket on an attribute has no matching partner to falsify the pairwise
    implication, so only classes spanning >= 2 buckets violate; they are
    found with one all-equal-within-class reduction per attribute (compare
    each row's bucket with its class's first).  A scoped search passes
    only the classes in scope.

    Violations come out class by class, RHS attribute by attribute.  Each
    covers its class's cells ``rows × (*lhs, attribute)`` as a lazy
    :class:`~repro.constraints.base.ClassCells`; only the suspects — every
    row outside the majority bucket — become ``CellRef``s.
    """
    sizes = np.diff(offsets)
    class_count = len(sizes)
    if class_count == 0:
        return []
    class_ids = None
    found: list[tuple[int, int, Violation]] = []
    for position, (buckets, codes) in enumerate(rhs):
        row_buckets = buckets.ids[codes]
        disagree = row_buckets != np.repeat(row_buckets[offsets[:-1]], sizes)
        if not disagree.any():
            continue
        if class_ids is None:
            class_ids = np.repeat(np.arange(class_count, dtype=np.int64), sizes)
        violating = np.zeros(class_count, dtype=bool)
        violating[class_ids[disagree]] = True
        classes = np.flatnonzero(violating)
        if classes.size:
            emitted = _bucket_violations(
                constraint_repr, lhs, buckets, rowids, offsets, codes, row_buckets, classes
            )
            found.extend(
                (class_index, position, violation)
                for class_index, violation in zip(classes.tolist(), emitted)
            )
    if len(rhs) > 1:
        # Attribute-major emission back to class-major order.
        found.sort(key=lambda item: item[:2])
    return [violation for _, _, violation in found]


def _bucket_violations(
    constraint_repr: str,
    lhs: Sequence[str],
    buckets: RhsBuckets,
    rowids: np.ndarray,
    offsets: np.ndarray,
    codes: np.ndarray,
    row_buckets: np.ndarray,
    classes: np.ndarray,
) -> list[Violation]:
    """One violation per class in ``classes`` (each spans >= 2 buckets).

    All classes are handled in one vectorized pass.  Their rows are
    gathered into one array (which the violations' cell views slice, so
    nothing pins the partition's arrays) and grouped by ``(class, bucket)``
    with one ``np.unique``.  Per class, the majority bucket is the one with
    the most rows, ties going to the larger ``(matched, text)`` key; every
    other row is a suspect, listed by its bucket's first appearance in the
    class, then by row order.  The expected value is the majority bucket's
    first row's value when that bucket matched the pattern.
    """
    starts = offsets[classes]
    sizes = offsets[classes + 1] - starts
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    gather = np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], sizes)
    rows = rowids[gather]
    member = np.repeat(np.arange(len(classes), dtype=np.int64), sizes)
    bucket = row_buckets[gather]
    width = int(bucket.max()) + 1
    groups, first, group_of, counts = np.unique(
        member * width + bucket,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    group_class, group_bucket = np.divmod(groups, width)
    # Rank the bucket keys present, so the tie-break is an integer sort key.
    present = np.unique(group_bucket).tolist()
    rank = np.zeros(width, dtype=np.int64)
    rank[sorted(present, key=buckets.keys.__getitem__)] = np.arange(len(present))
    order = np.lexsort((rank[group_bucket], counts, group_class))
    last_of_class = np.append(group_class[order][1:] != group_class[order][:-1], True)
    majority = order[last_of_class]
    suspects = np.flatnonzero(group_of != majority[member])
    suspects = suspects[np.argsort(first[group_of[suspects]], kind="stable")]
    suspect_bounds = np.searchsorted(
        member[suspects], np.arange(len(classes) + 1)
    ).tolist()
    attribute = buckets.attribute
    suspect_cells = [CellRef(row_id, attribute) for row_id in rows[suspects].tolist()]
    attributes = (*lhs, attribute)
    keys, values = buckets.keys, buckets.values
    majority_codes = codes[gather[first[majority]]].tolist()
    bounds = bounds.tolist()
    return [
        Violation(
            constraint_kind="PFD",
            constraint_repr=constraint_repr,
            cells=ClassCells(rows[bounds[k]:bounds[k + 1]], attributes),
            suspect_cells=tuple(suspect_cells[suspect_bounds[k]:suspect_bounds[k + 1]]),
            expected_value=values[code] if keys[bucket_id][0] else None,
        )
        for k, (bucket_id, code) in enumerate(
            zip(group_bucket[majority].tolist(), majority_codes)
        )
    ]


@dataclasses.dataclass(frozen=True)
class RowStatistics:
    """Support / violation statistics of one tableau row on one relation."""

    row: PatternTuple
    support: int
    violating_tuples: int

    @property
    def violation_ratio(self) -> float:
        if self.support == 0:
            return 0.0
        return self.violating_tuples / self.support


class PFD:
    """A pattern functional dependency ``R(X -> Y, Tp)``.

    Parameters
    ----------
    lhs / rhs:
        Attribute names (a single string is promoted to a one-element tuple).
    tableau:
        A :class:`PatternTableau`, or an iterable of row mappings
        ``{attribute: pattern-or-"⊥"}`` where patterns may be given as
        textual pattern strings.
    relation_name:
        Name used when printing the PFD (``Zip([zip] -> [city], ...)``).
    """

    def __init__(
        self,
        lhs: Union[Sequence[str], str],
        rhs: Union[Sequence[str], str],
        tableau: Union[PatternTableau, Iterable[Mapping[str, CellSpec]]],
        relation_name: str = "R",
    ):
        self.lhs: tuple[str, ...] = (lhs,) if isinstance(lhs, str) else tuple(lhs)
        self.rhs: tuple[str, ...] = (rhs,) if isinstance(rhs, str) else tuple(rhs)
        if not self.lhs or not self.rhs:
            raise ConstraintError("a PFD needs at least one LHS and one RHS attribute")
        if not isinstance(tableau, PatternTableau):
            tableau = PatternTableau(tableau)
        if len(tableau) == 0:
            raise ConstraintError("a PFD needs at least one tableau row")
        tableau.validate(self.lhs, self.rhs)
        self.tableau = tableau
        self.relation_name = relation_name

    # -- structure -----------------------------------------------------------

    @property
    def embedded_fd(self) -> FD:
        """The embedded (standard) FD ``X -> Y``."""
        return FD(self.lhs, self.rhs, self.relation_name)

    @property
    def is_trivial(self) -> bool:
        """Trivial PFDs (RHS contained in LHS) are ignored by discovery."""
        return set(self.rhs) <= set(self.lhs)

    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.lhs + self.rhs))

    def dependency_key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Canonical key of the embedded dependency (used by the evaluation,
        which counts embedded dependencies rather than individual PFDs)."""
        return embedded_dependency_key(self.lhs, self.rhs)

    def normalized(self) -> list["PFD"]:
        """Normal form: one PFD per RHS attribute (Section 2.2)."""
        if len(self.rhs) == 1:
            return [self]
        result = []
        for attr in self.rhs:
            rows = []
            for row in self.tableau:
                cells = {a: row.cell(a) for a in (*self.lhs, attr)}
                rows.append(PatternTuple.from_mapping(cells))
            result.append(PFD(self.lhs, (attr,), PatternTableau(rows), self.relation_name))
        return result

    @property
    def plan(self) -> TableauPlan:
        """The tableau compiled for this PFD's ``lhs -> rhs`` (see
        :meth:`PatternTableau.plan`)."""
        return self.tableau.plan(self.lhs, self.rhs)

    def constant_rows(self) -> list[PatternTuple]:
        """Rows applicable to single tuples (constant constrained parts)."""
        plan = self.plan
        return [plan.rows[position] for position in plan.constant_positions]

    def variable_rows(self) -> list[PatternTuple]:
        """Rows that require a pair of tuples to witness a violation."""
        plan = self.plan
        return [plan.rows[position] for position in plan.variable_positions]

    @property
    def is_constant(self) -> bool:
        return not self.plan.variable_positions

    @property
    def is_variable(self) -> bool:
        return bool(self.plan.variable_positions)

    # -- matching helpers ------------------------------------------------------

    def _row_keys(
        self, manager: PartitionManager, lhs_patterns: Sequence[CompiledPattern]
    ) -> list[PartitionKey]:
        """The partition keys of a variable tableau row's LHS leaves, from
        its compiled LHS patterns (:meth:`TableauPlan.compiled_cells`)."""
        return [
            manager.key(attribute, pattern) for attribute, pattern in zip(self.lhs, lhs_patterns)
        ]

    def _row_partition(
        self,
        relation: Relation,
        row: PatternTuple,
        evaluator: PatternEvaluator,
    ) -> StrippedPartition:
        """The stripped partition of a variable tableau row's LHS: classes
        group the tuples matching every LHS pattern (with non-empty cells)
        by the tuple of extracted constrained parts.

        Served from the relation's partition cache: single-attribute rows
        read one (attribute, pattern) leaf, multi-attribute rows intersect
        the cached leaves via the probe-table product — nothing re-groups
        the relation row by row.
        """
        manager = relation.partitions()
        lhs_patterns, _ = self.plan.compiled_cells(row)
        return manager.intersection(self._row_keys(manager, lhs_patterns), evaluator)

    def matching_rows(
        self,
        relation: Relation,
        row: PatternTuple,
        evaluator: Optional[PatternEvaluator] = None,
    ) -> list[int]:
        """Tuple ids matching every LHS pattern of ``row`` (its support set), ascending."""
        evaluator = evaluator or default_evaluator()
        plan = self.plan
        position = plan.position(row)
        if position is None:
            plan, position = TableauPlan([row], self.lhs, self.rhs), 0
        tuples, _ = relation.code_cooccurrence(self.lhs)
        tuple_ids, _ = covered_tuples(
            relation, plan, tuples, evaluator, np.array([position], dtype=np.int64)
        )
        return relation.rows_with_code_tuples(self.lhs, tuples[tuple_ids])[0].tolist()

    # -- satisfaction / violations ---------------------------------------------

    def holds_on(
        self, relation: Relation, evaluator: Optional[PatternEvaluator] = None
    ) -> bool:
        """``T |= ψ``: no tableau row is violated."""
        return not self.violations(relation, evaluator=evaluator)

    def violations(
        self,
        relation: Relation,
        evaluator: Optional[PatternEvaluator] = None,
        changed_rows: Optional[Sequence[int]] = None,
    ) -> list[Violation]:
        """All violations of the PFD on ``relation``.

        Constant rows yield one violation per offending tuple; variable rows
        yield one violation per offending group (with the minority cells
        marked as suspects, as used by the error-detection experiments).
        A group's violation carries its cells as a lazy
        :class:`~repro.constraints.base.ClassCells` view over the class's
        row ids, and only its suspects become ``CellRef`` objects, so
        emission costs O(suspects + violating classes) in Python work, not
        O(class size) (see :func:`variable_class_violations`).

        ``changed_rows`` scopes the search to the delta of a mutation
        batch (:attr:`~repro.dataset.mutations.MutationResult.changed_rows`,
        whether the rows were appended, updated or deleted): only the
        listed tuples (constant rows) and the classes *currently
        containing* one of them (variable rows) are examined.  A row that
        left a class — its cell now carries a different value — takes that
        class out of scope.  The classes come from the leaves' grouping
        states and the dictionary codes, never from a partition built for
        the purpose, and the scoped report equals the full report on the
        final state restricted to the changed tuples and their classes; for an append
        (``changed_rows=range(start, relation.row_count)``) that is every
        violation with a cell in the appended rows.  A touched class is
        re-examined as a whole, so on a base that was not fully clean the
        scoped report can (re-)flag pre-existing suspect cells whose class
        the delta joined.  An empty set reports nothing.
        """
        if changed_rows is not None:
            changed_rows = tuple(sorted({int(row_id) for row_id in changed_rows}))
        evaluator = prime_for_pfds(relation, (self,), evaluator)
        relation.schema.validate_attributes(self.attributes())
        if changed_rows is not None and not changed_rows:
            return []
        constant = self._constant_violations(relation, evaluator, changed_rows)
        plan = self.plan
        found: list[Violation] = []
        for position in sorted((*constant, *plan.variable_positions)):
            if plan.constant[position]:
                found.extend(constant[position])
            else:
                found.extend(
                    self._variable_row_violations(
                        relation, plan.rows[position], evaluator, changed_rows
                    )
                )
        return found

    def _constant_violations(
        self,
        relation: Relation,
        evaluator: PatternEvaluator,
        changed_rows: Optional[tuple[int, ...]] = None,
    ) -> dict[int, list[Violation]]:
        """The violations of every constant tableau row, by tableau position.

        Constant rows apply to single tuples, so all of them are checked in
        one pass over the distinct ``(*lhs, *rhs)`` code tuples of the scope
        (``changed_rows``, or all rows): a covered tuple (see
        :func:`covered_tuples`) violates on each RHS attribute whose code is
        not the expected constant's.  Only the violating tuples' rows are
        fetched; each row's violations come by row id, then RHS attribute.
        The constant rows, their patterns and expected constants come from
        the compiled plan, so no Python work is done per tableau row.
        """
        plan = self.plan
        positions = plan.constant_positions
        if not positions:
            return {}
        names = self.lhs + self.rhs
        width = len(self.lhs)
        tuples, _ = relation.code_cooccurrence(names, changed_rows)
        tuple_ids, row_ids = covered_tuples(
            relation, plan, tuples[:, :width], evaluator, plan.constant_array
        )
        expected_codes = plan.expected_codes(
            [relation.dictionary(attribute) for attribute in self.rhs]
        )
        bad = tuples[tuple_ids, width:] != expected_codes[row_ids]
        violating = bad.any(axis=1)
        tuple_ids, row_ids, bad = tuple_ids[violating], row_ids[violating], bad[violating]
        if not len(tuple_ids):
            return {}
        # Pairs stay sorted by tuple: each holder of a violating tuple (they
        # come ascending) takes that tuple's span of violating pairs, so
        # every tableau row's list fills in row id order.
        wanted = np.unique(tuple_ids)
        holders, held = relation.rows_with_code_tuples(names, tuples[wanted], changed_rows)
        starts = np.searchsorted(tuple_ids, wanted)[held]
        stops = np.searchsorted(tuple_ids, wanted, side="right")[held]
        pairs = _spans(starts, stops)
        reprs: dict[int, str] = {}
        found: dict[int, list[Violation]] = {}
        for k, row_id, flags in zip(
            row_ids[pairs].tolist(),
            np.repeat(holders, stops - starts).tolist(),
            bad[pairs].tolist(),
        ):
            if k not in reprs:
                reprs[k] = self._row_repr(plan.rows[positions[k]])
            emitted = found.setdefault(positions[k], [])
            for attribute, value, flag in zip(self.rhs, plan.expected[k], flags):
                if flag:
                    emitted.append(
                        Violation(
                            constraint_kind="PFD",
                            constraint_repr=reprs[k],
                            cells=tuple(CellRef(row_id, a) for a in (*self.lhs, attribute)),
                            suspect_cells=(CellRef(row_id, attribute),),
                            expected_value=value,
                        )
                    )
        return found

    def _variable_row_violations(
        self,
        relation: Relation,
        row: PatternTuple,
        evaluator: PatternEvaluator,
        changed_rows: Optional[tuple[int, ...]] = None,
    ) -> list[Violation]:
        # Variable rows need a pair of LHS-equivalent tuples to witness a
        # violation — which is exactly what the stripped classes are: the
        # singletons are already gone, so the RHS work below scales with the
        # surviving classes, not with the relation.  Both backends hand their
        # class arrays and per-row RHS codes to ``variable_class_violations``,
        # which finds the disagreeing classes and emits their violations.
        # A ``changed_rows`` scope reads only the classes holding a changed
        # row, found from the leaves' grouping states and the dictionary
        # codes (``PartitionManager.scoped_classes``) without building a
        # partition; the sql backend pushes a one-leaf scope down instead.
        manager = relation.partitions()
        lhs_patterns, rhs_patterns = self.plan.compiled_cells(row)
        keys = self._row_keys(manager, lhs_patterns)
        if changed_rows is None:
            partition = manager.intersection(keys, evaluator)
        elif isinstance(manager, SqlPartitionManager) and len(keys) == 1:
            partition = manager.leaf_spec(keys[0], evaluator)
        else:
            partition = None
        if isinstance(partition, SqlStrippedPartition):
            return self._variable_row_violations_sql(
                relation, row, evaluator, partition, changed_rows
            )
        if partition is None:
            rowids, offsets = manager.scoped_classes(keys, changed_rows, evaluator)
        else:
            rowids, offsets = partition.class_arrays()
        if len(offsets) <= 1:
            return []
        rhs = []
        for attribute, pattern in zip(self.rhs, rhs_patterns):
            column = relation.dictionary(attribute)
            buckets = RhsBuckets.of(attribute, column, evaluator.match_column(pattern, column))
            rhs.append((buckets, column.codes[rowids]))
        return variable_class_violations(
            self._row_repr(row), self.lhs, rowids, offsets, rhs
        )

    def _row_repr(self, row: PatternTuple) -> str:
        """``constraint_repr`` of the violations of one tableau row."""
        return f"{self} @ {row.render(self.lhs, self.rhs)}"

    def _variable_row_violations_sql(
        self,
        relation: Relation,
        row: PatternTuple,
        evaluator: PatternEvaluator,
        partition: SqlStrippedPartition,
        changed_rows: Optional[tuple[int, ...]] = None,
    ) -> list[Violation]:
        """Pushed-down variable-row check.

        Per RHS attribute the interned bucket ids (see :class:`RhsBuckets`)
        are shipped as a ``(code, bucket)`` scratch table; one grouped query
        then returns only the classes spanning >= 2 buckets on some
        attribute and touching the delta.  One point fetch of those classes'
        RHS codes — never a column scan — feeds the same emission as the
        in-memory path, so the violations are identical, order included."""
        store = relation.store
        rhs_cols: list[int] = []
        bucket_tables: list[str] = []
        rhs_buckets: list[RhsBuckets] = []
        _, rhs_patterns = self.plan.compiled_cells(row)
        try:
            for attribute, pattern in zip(self.rhs, rhs_patterns):
                column = relation.dictionary(attribute)
                buckets = RhsBuckets.of(attribute, column, evaluator.match_column(pattern, column))
                rhs_buckets.append(buckets)
                rhs_cols.append(column._col_index)
                bucket_tables.append(store.int_map_table(enumerate(buckets.ids.tolist())))
            violating = partition.variable_violation_classes(
                rhs_cols, bucket_tables, changed_rows
            )
        finally:
            for table in bucket_tables:
                store.drop_table(table)
        if not violating:
            return []
        row_ids = [row_id for class_rows in violating for row_id in class_rows]
        offsets = np.cumsum([0] + [len(class_rows) for class_rows in violating])
        columns = ", ".join(f"c{col}" for col in rhs_cols)
        in_sql, scratch = store.code_set_sql("rid", row_ids)
        try:
            codes_of = {
                fetched[0]: fetched[1:]
                for fetched in store.execute(
                    f"SELECT rid, {columns} FROM rows WHERE {in_sql}"
                )
            }
        finally:
            for table in scratch:
                store.drop_table(table)
        rhs = [
            (
                buckets,
                np.fromiter(
                    (codes_of[row_id][index] for row_id in row_ids),
                    dtype=np.int64,
                    count=len(row_ids),
                ),
            )
            for index, buckets in enumerate(rhs_buckets)
        ]
        return variable_class_violations(
            self._row_repr(row),
            self.lhs,
            np.asarray(row_ids, dtype=np.int64),
            offsets,
            rhs,
        )

    # -- statistics -------------------------------------------------------------

    def row_statistics(
        self, relation: Relation, evaluator: Optional[PatternEvaluator] = None
    ) -> list[RowStatistics]:
        """Support and violation counts per tableau row."""
        evaluator = prime_for_pfds(relation, (self,), evaluator)
        constant = self._constant_violations(relation, evaluator)
        plan = self.plan
        tuples, counts = relation.code_cooccurrence(self.lhs)
        tuple_ids, row_ids = covered_tuples(relation, plan, tuples, evaluator)
        supports = np.bincount(
            row_ids, weights=counts[tuple_ids], minlength=len(plan.rows)
        ).astype(np.int64)
        statistics: list[RowStatistics] = []
        for position, row in enumerate(plan.rows):
            if plan.constant[position]:
                violations = constant.get(position, ())
            else:
                violations = self._variable_row_violations(relation, row, evaluator)
            statistics.append(
                RowStatistics(
                    row=row,
                    support=int(supports[position]),
                    violating_tuples=len(
                        {cell.row_id for v in violations for cell in v.suspect_cells}
                    ),
                )
            )
        return statistics

    def support(
        self, relation: Relation, evaluator: Optional[PatternEvaluator] = None
    ) -> int:
        """Number of tuples matched by at least one tableau row's LHS."""
        evaluator = prime_for_pfds(relation, (self,), evaluator)
        tuples, counts = relation.code_cooccurrence(self.lhs)
        tuple_ids, _ = covered_tuples(relation, self.plan, tuples, evaluator)
        return int(counts[np.unique(tuple_ids)].sum())

    def coverage(
        self, relation: Relation, evaluator: Optional[PatternEvaluator] = None
    ) -> float:
        """Fraction of tuples matched by at least one tableau row's LHS
        (the *coverage* of restriction (ii) in Section 4.2)."""
        if relation.row_count == 0:
            return 0.0
        return self.support(relation, evaluator=evaluator) / relation.row_count

    def violation_ratio(
        self, relation: Relation, evaluator: Optional[PatternEvaluator] = None
    ) -> float:
        """Fraction of supporting tuples flagged as suspects (the δ of
        restriction (iii))."""
        evaluator = evaluator or default_evaluator()
        support = self.support(relation, evaluator=evaluator)
        if support == 0:
            return 0.0
        suspects: set[int] = set()
        for violation in self.violations(relation, evaluator=evaluator):
            suspects.update(cell.row_id for cell in violation.suspect_cells)
        return len(suspects) / support

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-serializable form of the PFD (inverse of :meth:`from_json_dict`).

        Tableau cells are stored as textual pattern strings (``"⊥"`` for the
        wildcard), so the file is human-readable and diff-friendly.
        """
        return {
            "relation": self.relation_name,
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "tableau": self.tableau.to_json_rows(),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PFD":
        """Rebuild a PFD from :meth:`to_json_dict` output.

        ``lhs``/``rhs`` are passed through unchanged so a hand-written
        document may use a plain string for a single attribute (promoted by
        the constructor) as well as a list.
        """
        return cls(
            data["lhs"],
            data["rhs"],
            PatternTableau.from_json_rows(data["tableau"]),
            relation_name=data.get("relation", "R"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        import json

        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PFD":
        """Deserialize from a JSON string produced by :meth:`to_json`."""
        import json

        return cls.from_json_dict(json.loads(text))

    # -- display ------------------------------------------------------------------

    def __str__(self) -> str:
        lhs = ", ".join(self.lhs)
        rhs = ", ".join(self.rhs)
        return f"{self.relation_name}([{lhs}] -> [{rhs}], |Tp|={len(self.tableau)})"

    def describe(self) -> str:
        """Multi-line rendering: the embedded FD plus every tableau row."""
        header = str(self)
        rows = "\n".join("  " + row.render(self.lhs, self.rhs) for row in self.tableau)
        return f"{header}\n{rows}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PFD({self.lhs} -> {self.rhs}, rows={len(self.tableau)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PFD):
            return NotImplemented
        return (
            self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.tableau == other.tableau
            and self.relation_name == other.relation_name
        )

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs, self.tableau, self.relation_name))


def make_pfd(
    lhs: Union[Sequence[str], str],
    rhs: Union[Sequence[str], str],
    rows: Iterable[Mapping[str, CellSpec]],
    relation_name: str = "R",
) -> PFD:
    """Convenience constructor from plain mappings of pattern strings.

    Example
    -------
    >>> pfd = make_pfd(
    ...     "zip", "city",
    ...     [{"zip": r"{{900}}\\D{2}", "city": "Los\\ Angeles"}],
    ...     relation_name="Zip",
    ... )
    """
    return PFD(lhs, rhs, PatternTableau(rows), relation_name=relation_name)


def wildcard() -> Wildcard:
    """The tableau wildcard ``⊥`` (re-exported for convenience)."""
    from .tableau import WILDCARD

    return WILDCARD
