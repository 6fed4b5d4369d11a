"""Stripped partitions (position list indexes) over dictionary-encoded columns.

A *partition* of a relation groups tuple ids into equivalence classes: two
rows belong to the same class when they agree on the grouping key.  TANE
(Huhtala et al.) made two observations that this module adopts wholesale:

* classes of size one can never witness a violation of a functional
  dependency, so they are **stripped** — dropped from the representation;
* the partition of a multi-attribute set ``{A, B}`` is the *product* of the
  single-attribute partitions, computable from the stripped classes alone —
  it never has to be re-grouped from the raw rows.

The pattern twist of this library adds a third kind of grouping key: the
*extracted constrained part* of a tableau pattern.  A pattern-projected
partition groups the rows whose value matches the pattern by that part, and
is seeded from the engine's memoized per-distinct-value matches
(:meth:`~repro.engine.evaluator.PatternEvaluator.match_column`, itself fed by
the shared-DFA :class:`~repro.engine.evaluator.ColumnMatchSet` masks), so
building one costs no pattern matching beyond what the evaluator already
cached.

Class arrays
------------

A :class:`StrippedPartition` stores its classes as a ``(sorted_rowids,
class_offsets)`` pair of ``int64`` ndarrays: ``rowids[offsets[i]:offsets[i+1]]``
is class ``i``, rows ascending within a class, classes ordered by their
smallest member.  The partition algebra —
:meth:`~StrippedPartition.intersect` (sort/group over packed class-pair
keys), :meth:`~StrippedPartition.refines`,
:meth:`~StrippedPartition.refines_codes`,
:meth:`~StrippedPartition.minority_rows`, ``error`` — runs vectorized on
these arrays; the tuple-of-tuples :attr:`~StrippedPartition.classes` view is
materialized lazily for consumers that walk classes one by one.

Three partition sources, one cache
----------------------------------

:class:`PartitionManager` — created lazily per relation via
:meth:`repro.dataset.relation.Relation.partitions` — memoizes:

(a) **attribute partitions**, grouped straight off the dictionary codes;
(b) **pattern-projected partitions**, keyed by ``(attribute, pattern)``;
(c) **multi-attribute/pattern intersections**, keyed by the frozen set of
    leaf keys and built by peeling one leaf off a memoized level-``(n-1)``
    prefix — the lattice-descent shape of level-wise discovery, where every
    level-``n`` candidate shares its first ``n-1`` attributes with a
    previously validated candidate.

Everything downstream — ``PFD.violations``, FD checking, the discovery
baselines, error detection and repair — asks this manager for classes
instead of re-grouping the relation row by row, which makes per-candidate
work scale with the number (and size) of surviving equivalence classes
rather than with the raw row count.

A partition object is an immutable snapshot: like a ``DictionaryColumn``, it
keeps meaning after the relation mutates, but the manager will no longer
hand it out.

Writes and scoped searches
--------------------------

A write drops the cached partition *objects* it can change: an append
(:meth:`PartitionManager.extend`) every leaf, an overwrite or delete
(:meth:`PartitionManager.apply_update`) the leaves of the attributes it
touched, and both every memoized intersection over a dropped leaf.  The next
unscoped read rebuilds them cold.  What survives a write is each leaf's
*grouping state*: the map from a dictionary code to its group key (the code
itself for an attribute leaf, a stable constrained-component id for a
pattern leaf).  Dictionary codes never renumber, so a pattern leaf's map
only has to match the distinct values first seen since it was last read.

The only reader of a partition right after a write is the detection view's
scoped search, which needs just the classes holding the rows that changed.
:meth:`PartitionManager.scoped_classes` finds them from the grouping states
and the code vectors without building a partition: the changed rows' keys
name the codes of their classes, one pass over each LHS column's codes
finds the rows carrying those codes, and a sort/group over those rows
yields exactly the classes a cold build would list for them, in its order.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..patterns.alphabet import CharClass
from ..patterns.ast import ClassAtom, ConstrainedGroup, Pattern, Repeat
from ..patterns.matcher import CompiledPattern, compile_pattern
from .backend import stable_order
from .dictionary import DictionaryColumn, DictionaryDelta, DictionaryUpdate
from .evaluator import PatternEvaluator, default_evaluator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset -> engine)
    from ..dataset.relation import Relation

PatternLike = Union[Pattern, str, CompiledPattern]

#: The tableau wildcard's pattern ``{{\A*}}`` matches every non-empty value
#: and constrains the whole value — its projected partition is exactly the
#: attribute partition, so keys carrying it are canonicalized to plain
#: attribute keys (one shared cache entry instead of two).
_WILDCARD_PATTERN = Pattern(
    (ConstrainedGroup((Repeat(ClassAtom(CharClass.ANY), 0, None),)),)
)


def _empty_arrays() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)


def _group_runs(
    keys: np.ndarray,
    rows: np.ndarray,
    sort_keys: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``rows`` into runs of equal ``keys``.

    Returns ``(sorted_keys, sorted_rows, starts, sizes)``: run ``i`` is
    ``sorted_rows[starts[i]:starts[i] + sizes[i]]``, runs ordered by key.
    Precondition (see :func:`_group_stripped`): within each run of equal
    keys, ``rows`` are already ascending in input order — a stable key-only
    argsort then keeps every run ascending, so ``sorted_rows[starts]`` are
    the runs' smallest members.
    """
    order = stable_order(keys if sort_keys is None else sort_keys)
    sorted_keys = keys[order]
    sorted_rows = rows[order]
    boundary = np.empty(len(sorted_keys), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, len(sorted_keys)))
    return sorted_keys, sorted_rows, starts, sizes


def _strip_runs(
    sorted_rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Class arrays of the runs of size >= 2, ordered by smallest member."""
    keep = sizes >= 2
    starts = starts[keep]
    sizes = sizes[keep]
    if len(starts) == 0:
        return _empty_arrays()
    # Reorder groups by their first (= smallest) member.
    group_order = np.argsort(sorted_rows[starts], kind="stable")
    starts = starts[group_order]
    sizes = sizes[group_order]
    offsets = _offsets_of(sizes)
    take = np.arange(offsets[-1], dtype=np.int64) + np.repeat(starts - offsets[:-1], sizes)
    return sorted_rows[take], offsets


def _group_stripped(
    keys: np.ndarray,
    rows: np.ndarray,
    sort_keys: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Group ``rows`` by ``keys`` into stripped class arrays.

    Returns a ``(rowids, offsets)`` pair holding only the groups of size
    >= 2, rows ascending within a group, groups ordered by their smallest
    member — the canonical class order every construction path agrees on.

    Precondition: within each run of equal keys, ``rows`` must already be
    ascending in input order (true for every caller: grouping over row-order
    vectors is globally ascending, and an intersection gathers each product
    class from a single class of one parent, whose rows are ascending).
    A stable key-only argsort — radix sort for small integer keys,
    measurably faster than ``lexsort`` — then preserves that order within
    groups.

    ``sort_keys``, when given, is a coarser ordinal per element whose stable
    order already makes equal ``keys`` contiguous (an intersection sorts by
    its left class only: the input arrives grouped by right class, so each
    left run keeps that grouping).  Sorting the coarser key keeps the domain
    small enough for the radix path.
    """
    if len(rows) == 0:
        return _empty_arrays()
    _, sorted_rows, starts, sizes = _group_runs(keys, rows, sort_keys)
    return _strip_runs(sorted_rows, starts, sizes)


def _offsets_of(sizes: np.ndarray) -> np.ndarray:
    offsets = np.empty(len(sizes) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``[starts[i], stops[i])``."""
    sizes = stops - starts
    heads = _offsets_of(sizes)
    return np.arange(heads[-1], dtype=np.int64) + np.repeat(starts - heads[:-1], sizes)


class StrippedPartition:
    """Equivalence classes of size >= 2 over row ids.

    Attributes
    ----------
    classes:
        The stripped classes: tuples of row ids, each ascending, ordered by
        their smallest member (which equals first-seen order of the grouping
        keys — consumers that used to iterate insertion-ordered dicts see
        the same sequence).  Materialized lazily from the class arrays;
        vectorized consumers should use :meth:`class_arrays` instead.
    row_count:
        Total rows of the underlying relation (for error/coverage ratios).

    The *covered* rows — every row the grouping key is defined on, including
    the stripped singletons — are kept alongside for discovery's coverage
    pruning and the FD baselines (PFD support counts code tuples instead).
    For intersections they are derived lazily from the parent partitions,
    so candidates rejected on classes alone never pay for them.
    """

    __slots__ = (
        "row_count",
        "_classes",
        "_rowids",
        "_offsets",
        "_covered",
        "_covered_array",
        "_parents",
        "_probe",
        "_probe_array",
    )

    def __init__(
        self,
        classes: Sequence[Sequence[int]],
        row_count: int,
        covered: Optional[Iterable[int]] = None,
        parents: Optional[tuple["StrippedPartition", "StrippedPartition"]] = None,
    ):
        sizes = np.fromiter((len(rows) for rows in classes), dtype=np.int64, count=len(classes))
        offsets = np.zeros(len(classes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        rowids = np.fromiter(
            (row for rows in classes for row in rows), dtype=np.int64, count=int(offsets[-1])
        )
        if covered is not None:
            covered = np.fromiter(covered, dtype=np.int64)
        self._init(rowids, offsets, row_count, covered, parents)

    def _init(self, rowids, offsets, row_count, covered, parents) -> None:
        self.row_count = row_count
        self._classes: Optional[tuple[tuple[int, ...], ...]] = None
        self._rowids: Optional[np.ndarray] = rowids
        self._offsets: Optional[np.ndarray] = offsets
        self._covered: Optional[tuple[int, ...]] = None
        self._covered_array: Optional[np.ndarray] = covered
        self._parents = parents
        self._probe: Optional[dict[int, int]] = None
        self._probe_array: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        rowids: np.ndarray,
        offsets: np.ndarray,
        row_count: int,
        covered: Optional[np.ndarray] = None,
        parents: Optional[tuple["StrippedPartition", "StrippedPartition"]] = None,
    ) -> "StrippedPartition":
        """Build a partition directly from class arrays."""
        partition = cls.__new__(cls)
        partition._init(
            np.ascontiguousarray(rowids, dtype=np.int64),
            np.ascontiguousarray(offsets, dtype=np.int64),
            row_count,
            np.ascontiguousarray(covered, dtype=np.int64) if covered is not None else None,
            parents,
        )
        return partition

    # -- representations -----------------------------------------------------

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The stripped classes as a tuple of row-id tuples (lazy view)."""
        if self._classes is None:
            rowids, offsets = self.class_arrays()
            rows = rowids.tolist()
            bounds = offsets.tolist()
            self._classes = tuple(
                tuple(rows[bounds[i]:bounds[i + 1]]) for i in range(len(bounds) - 1)
            )
        return self._classes

    def class_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(sorted_rowids, class_offsets)`` pair:
        ``rowids[offsets[i]:offsets[i+1]]`` is class ``i``."""
        return self._rowids, self._offsets

    # -- size ----------------------------------------------------------------

    @property
    def class_count(self) -> int:
        """Number of stripped (size >= 2) classes."""
        return len(self.class_arrays()[1]) - 1

    @property
    def stripped_row_count(self) -> int:
        """Total rows inside the stripped classes (TANE's ``||π||``)."""
        return len(self.class_arrays()[0])

    @property
    def covered(self) -> tuple[int, ...]:
        """All rows the grouping key is defined on (singletons included)."""
        if self._covered is None:
            self._covered = tuple(self.covered_array().tolist())
        return self._covered

    def covered_array(self) -> np.ndarray:
        """The covered rows as an ascending int64 ndarray."""
        if self._covered_array is None:
            if self._parents is None:
                raise ValueError("partition was built without covered rows")
            left, right = self._parents
            self._covered_array = np.intersect1d(
                left.covered_array(), right.covered_array(), assume_unique=True
            )
        return self._covered_array

    @property
    def covered_count(self) -> int:
        return len(self.covered_array())

    @property
    def error(self) -> float:
        """TANE's partition error ``e``: the fraction of rows that must be
        removed before the grouping key identifies tuples uniquely."""
        if not self.row_count:
            return 0.0
        return (self.stripped_row_count - self.class_count) / self.row_count

    # -- algebra -------------------------------------------------------------

    def probe_table(self) -> dict[int, int]:
        """Row id -> index of its stripped class (singletons absent)."""
        if self._probe is None:
            rowids, offsets = self.class_arrays()
            indices = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
            self._probe = dict(zip(rowids.tolist(), indices.tolist()))
        return self._probe

    def probe_array(self) -> np.ndarray:
        """Row id -> stripped class index as an ndarray (``-1`` = singleton),
        used by the partition product and refinement checks."""
        if self._probe_array is None:
            rowids, offsets = self.class_arrays()
            probe = np.full(self.row_count, -1, dtype=np.int64)
            if len(rowids):
                probe[rowids] = np.repeat(
                    np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
                )
            self._probe_array = probe
        return self._probe_array

    def intersect(self, other: "StrippedPartition") -> "StrippedPartition":
        """The product partition (rows equivalent under *both* keys).

        A sort/group over packed ``(self class, other class)`` code pairs —
        one stable radix argsort plus a handful of vectorized reductions.
        Only the stripped classes are visited, so the cost is near
        ``O(||self|| + ||other||)`` — independent of the relation's row
        count.
        """
        if self.class_count == 0 or other.class_count == 0:
            rowids, offsets = _empty_arrays()
            return StrippedPartition.from_arrays(
                rowids, offsets, self.row_count, parents=(self, other)
            )
        probe = self.probe_array()
        rows, offsets = other.class_arrays()
        other_class = np.repeat(
            np.arange(other.class_count, dtype=np.int64), np.diff(offsets)
        )
        left_class = probe[rows]
        keep = left_class >= 0
        rows = rows[keep]
        left_kept = left_class[keep]
        # Pack the (left class, right class) pair into one int64 key; both
        # factors are class counts, so the product cannot overflow 63 bits
        # for any relation that fits in memory.  Sorting by the left class
        # alone suffices (the gather above is grouped by right class), which
        # keeps the sort domain at class_count rather than the pair product.
        key = left_kept * np.int64(other.class_count) + other_class[keep]
        rowids, offsets = _group_stripped(key, rows, sort_keys=left_kept)
        return StrippedPartition.from_arrays(
            rowids, offsets, self.row_count, parents=(self, other)
        )

    def refines(self, other: "StrippedPartition") -> bool:
        """True when every class of ``self`` sits inside one class of
        ``other`` (the TANE validity check for exact dependencies)."""
        rowids, offsets = self.class_arrays()
        if not len(rowids):
            return True
        probe = other.probe_array()[rowids]
        if (probe < 0).any():
            return False
        first = np.repeat(probe[offsets[:-1]], np.diff(offsets))
        return bool(np.array_equal(probe, first))

    def refines_codes(self, codes: Sequence[int]) -> bool:
        """True when every class agrees on ``codes`` (a per-row code array,
        e.g. a RHS column's dictionary codes — empty values included, which
        is exactly the textbook FD comparison semantics)."""
        rowids, offsets = self.class_arrays()
        if not len(rowids):
            return True
        class_codes = np.asarray(codes)[rowids]
        first = np.repeat(class_codes[offsets[:-1]], np.diff(offsets))
        return bool(np.array_equal(class_codes, first))

    def minority_rows(self, codes: Sequence[int]) -> list[int]:
        """Rows outside the majority ``codes`` bucket of their class, in
        ascending row-id order.

        The per-class majority is the bucket with the most rows (ties broken
        toward the smaller code, matching first-seen value order); the
        returned suspects drive approximate-dependency ratios without
        materializing violation objects.
        """
        rowids, offsets = self.class_arrays()
        if not len(rowids):
            return []
        class_codes = np.asarray(codes, dtype=np.int64)[rowids]
        sizes = np.diff(offsets)
        class_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        # Bucket = (class, code); count members per bucket.
        order = np.lexsort((class_codes, class_ids))
        sorted_codes = class_codes[order]
        sorted_ids = class_ids[order]
        boundary = np.empty(len(order), dtype=bool)
        boundary[0] = True
        boundary[1:] = (sorted_codes[1:] != sorted_codes[:-1]) | (
            sorted_ids[1:] != sorted_ids[:-1]
        )
        starts = np.flatnonzero(boundary)
        bucket_sizes = np.diff(np.append(starts, len(order)))
        bucket_class = sorted_ids[starts]
        bucket_code = sorted_codes[starts]
        # Majority per class: max by (size, -code) == last bucket per class
        # after sorting by (class, size, -code).
        selection = np.lexsort((-bucket_code, bucket_sizes, bucket_class))
        selected_class = bucket_class[selection]
        last = np.empty(len(selection), dtype=bool)
        last[:-1] = selected_class[1:] != selected_class[:-1]
        last[-1] = True
        majority = np.empty(len(sizes), dtype=np.int64)
        majority[selected_class[last]] = bucket_code[selection][last]
        suspects = rowids[class_codes != majority[class_ids]]
        suspects.sort()
        return suspects.tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StrippedPartition(classes={self.class_count}, "
            f"stripped_rows={self.stripped_row_count}, rows={self.row_count})"
        )


@dataclasses.dataclass(frozen=True)
class PartitionKey:
    """Cache key of one leaf partition: an attribute, optionally projected
    through a tableau pattern (``pattern is None`` = plain attribute)."""

    attribute: str
    pattern: Optional[CompiledPattern] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.pattern is None:
            return f"PartitionKey({self.attribute!r})"
        return f"PartitionKey({self.attribute!r}, {self.pattern.pattern.to_pattern_string()!r})"


@dataclasses.dataclass
class PartitionStats:
    """Cache-effectiveness counters of one :class:`PartitionManager`.

    A miss is a cold build.  A scoped search
    (:meth:`PartitionManager.scoped_classes`) reads no partition and counts
    as neither.
    """

    attribute_hits: int = 0
    attribute_misses: int = 0
    pattern_hits: int = 0
    pattern_misses: int = 0
    intersection_hits: int = 0
    intersection_misses: int = 0

    @property
    def hits(self) -> int:
        return self.attribute_hits + self.pattern_hits + self.intersection_hits

    @property
    def misses(self) -> int:
        return self.attribute_misses + self.pattern_misses + self.intersection_misses

    def summary(self) -> str:
        return (
            f"partition cache: {self.hits} hits / {self.misses} misses "
            f"(attribute {self.attribute_hits}/{self.attribute_misses}, "
            f"pattern {self.pattern_hits}/{self.pattern_misses}, "
            f"intersection {self.intersection_hits}/{self.intersection_misses})"
        )


class _LeafGroups:
    """Grouping state of one leaf: an integer *key* per dictionary code
    (:meth:`row_keys`; ``-1`` = uncovered).  It outlives the leaf's
    partition objects: a write drops those, never the state."""

    __slots__ = ()

    def row_keys(self, column: DictionaryColumn, codes: np.ndarray) -> np.ndarray:
        """The group key of each code in ``codes`` (``-1`` stays ``-1``)."""
        raise NotImplementedError

    def key_mask(self, column: DictionaryColumn, keys: np.ndarray) -> np.ndarray:
        """Per code, whether its group key is one of ``keys`` (all ``>= 0``)."""
        raise NotImplementedError

    def build(self, column: DictionaryColumn) -> StrippedPartition:
        """Cold build: one sort/group pass over the whole code vector."""
        keys = self.row_keys(column, column.codes)
        covered = np.flatnonzero(keys >= 0).astype(np.int64)
        rowids, offsets = _group_stripped(keys[covered], covered)
        return StrippedPartition.from_arrays(
            rowids, offsets, column.row_count, covered=covered
        )


class _AttributeGroups(_LeafGroups):
    """Grouping state of a plain attribute partition: the key is the code
    itself, the empty value's code excluded."""

    __slots__ = ()

    def row_keys(self, column: DictionaryColumn, codes: np.ndarray) -> np.ndarray:
        keys = codes.astype(np.int64)
        empty_code = column.code_of("")
        if empty_code is not None:
            keys[keys == empty_code] = -1
        return keys

    def key_mask(self, column: DictionaryColumn, keys: np.ndarray) -> np.ndarray:
        mask = np.zeros(column.distinct_count, dtype=bool)
        mask[keys] = True
        return mask

    def build(self, column: DictionaryColumn) -> StrippedPartition:
        """Codes are already group keys in first-seen (= smallest-member)
        order, so one stable argsort over the code vector yields the classes
        directly.  After updates broke that ordering, the general sort/group
        pass (which orders classes by their smallest member explicitly)
        takes over."""
        if column.has_updates:
            return super().build(column)
        codes = column.codes
        empty_code = column.code_of("")
        counts = column.counts_array().copy()
        order = stable_order(codes)
        if empty_code is not None:
            covered = np.flatnonzero(codes != empty_code).astype(np.int64)
            counts[empty_code] = 0
        else:
            covered = np.arange(column.row_count, dtype=np.int64)
        keep_code = counts >= 2
        rowids = order[keep_code[codes[order]]].astype(np.int64)
        return StrippedPartition.from_arrays(
            rowids, _offsets_of(counts[keep_code]), column.row_count, covered=covered
        )


class _PatternGroups(_LeafGroups):
    """Grouping state of one pattern-projected partition.

    The key of a code is the id of its distinct value's extracted
    constrained part (``-1`` = uncovered), in ``component_ids``; ids are
    handed out in first-seen order and never renumber.  Dictionary codes
    never renumber either, so after a write :meth:`sync` only matches the
    values first seen since the last one.
    """

    __slots__ = ("component_of", "component_ids")

    def __init__(self) -> None:
        self.component_of: dict[str, int] = {}
        self.component_ids = np.zeros(0, dtype=np.int64)

    def add_values(self, values: Sequence[str], results: Sequence) -> None:
        """Record the grouping component of the next distinct values: ``-1``
        excludes their rows (empty value or failed match); a match without a
        constrained part contributes a constant component — matching is then
        the only requirement."""
        ids = []
        for value, result in zip(values, results):
            if not value or not result.matched:
                ids.append(-1)
                continue
            component = result.constrained_value
            if component is None:
                component = ""
            ids.append(self.component_of.setdefault(component, len(self.component_of)))
        if ids:
            self.component_ids = np.concatenate(
                (self.component_ids, np.asarray(ids, dtype=np.int64))
            )

    def sync(self, column: DictionaryColumn, compiled: CompiledPattern) -> None:
        """Match the distinct values ``column`` gained since the last sync.

        Matched directly rather than through an evaluator: the manager does
        not know which evaluator built the entry, the work is bounded by the
        new distinct values, and :meth:`CompiledPattern.match` is the same
        deterministic function every evaluator path bottoms out in.
        """
        values = column.values[len(self.component_ids):]
        self.add_values(values, [compiled.match(value) if value else None for value in values])

    def row_keys(self, column: DictionaryColumn, codes: np.ndarray) -> np.ndarray:
        if not len(self.component_ids):
            return np.full(len(codes), -1, dtype=np.int64)
        return np.where(codes >= 0, self.component_ids[codes], -1)

    def key_mask(self, column: DictionaryColumn, keys: np.ndarray) -> np.ndarray:
        # One slot past the last component: the uncovered codes' ``-1``.
        hit = np.zeros(len(self.component_of) + 1, dtype=bool)
        hit[keys] = True
        return hit[self.component_ids]


class PartitionManager:
    """Build, cache, and intersect stripped partitions for one relation.

    Obtained via :meth:`repro.dataset.relation.Relation.partitions`.  The
    relation reports every write to it — batch ingestion through
    :meth:`extend`, cell overwrites and deletes through
    :meth:`apply_update` — and the manager drops the cached partitions the
    write can change, so a served partition always reflects the current
    rows.  The leaves' grouping states survive, which is what
    :meth:`scoped_classes` reads.  Counters in :attr:`stats` describe the
    manager's whole lifetime.
    """

    def __init__(self, relation: "Relation"):
        self._relation = relation
        self._leaves: dict[PartitionKey, StrippedPartition] = {}
        self._states: dict[PartitionKey, _LeafGroups] = {}
        self._intersections: dict[frozenset[PartitionKey], StrippedPartition] = {}
        #: Per key tuple, the last :meth:`scoped_classes` answer: every
        #: variable tableau row over the same leaves asks for the same scope
        #: of one write.
        self._scoped: dict[tuple[PartitionKey, ...], tuple[tuple[int, ...], tuple]] = {}
        self.stats = PartitionStats()

    # -- keys ----------------------------------------------------------------

    def key(self, attribute: str, pattern: Optional[PatternLike] = None) -> PartitionKey:
        """The canonical cache key for ``attribute`` (optionally projected
        through ``pattern``; the wildcard pattern canonicalizes away)."""
        if pattern is None:
            return PartitionKey(attribute)
        compiled = pattern if isinstance(pattern, CompiledPattern) else compile_pattern(pattern)
        if compiled.pattern == _WILDCARD_PATTERN:
            return PartitionKey(attribute)
        return PartitionKey(attribute, compiled)

    # -- leaf partitions -----------------------------------------------------

    def attribute_partition(self, attribute: str) -> StrippedPartition:
        """Equivalence classes of whole attribute values (empty cells are
        uncovered, mirroring the grouping semantics of FD/PFD evaluation)."""
        return self.partition_for(PartitionKey(attribute))

    def pattern_partition(
        self,
        attribute: str,
        pattern: PatternLike,
        evaluator: Optional[PatternEvaluator] = None,
    ) -> StrippedPartition:
        """Rows matching ``pattern``, grouped by extracted constrained part.

        Matching runs through the evaluator's memoized per-distinct-value
        results (seeded from any prior set-at-a-time batch), so only the
        row-id grouping itself is new work — and it happens once per
        (attribute, pattern), no matter how many tableau rows, candidates,
        or detection passes ask again.
        """
        return self.partition_for(self.key(attribute, pattern), evaluator)

    def partition_for(
        self, key: PartitionKey, evaluator: Optional[PatternEvaluator] = None
    ) -> StrippedPartition:
        """The leaf partition of one canonical key."""
        is_attribute = key.pattern is None
        cached = self._leaves.get(key)
        if cached is not None:
            if is_attribute:
                self.stats.attribute_hits += 1
            else:
                self.stats.pattern_hits += 1
            return cached
        if is_attribute:
            self.stats.attribute_misses += 1
        else:
            self.stats.pattern_misses += 1
        column = self._relation.dictionary(key.attribute)
        partition = self._state(key, column, evaluator).build(column)
        self._leaves[key] = partition
        return partition

    # Leaf state factories: the sql backend swaps in spec-building states.
    def _new_attribute_state(self, column: DictionaryColumn) -> _AttributeGroups:
        return _AttributeGroups()

    def _new_pattern_state(self, column: DictionaryColumn) -> _PatternGroups:
        return _PatternGroups()

    def _state(
        self,
        key: PartitionKey,
        column: DictionaryColumn,
        evaluator: Optional[PatternEvaluator],
    ) -> _LeafGroups:
        """The grouping state of ``key``, current for ``column``'s values."""
        state = self._states.get(key)
        if key.pattern is None:
            if state is None:
                state = self._states[key] = self._new_attribute_state(column)
        elif state is None:
            match = (evaluator or default_evaluator()).match_column(key.pattern, column)
            state = self._states[key] = self._new_pattern_state(column)
            state.add_values(column.values, match.results)
        else:
            state.sync(column, key.pattern)
        return state

    # -- scoped classes ------------------------------------------------------

    def scoped_classes(
        self,
        keys: Sequence[PartitionKey],
        rows: Sequence[int],
        evaluator: Optional[PatternEvaluator] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The class arrays of the classes of the product of the leaves
        ``keys`` that hold one of ``rows``, in class order — the classes a
        cold build of that partition lists for them.

        Read from the grouping states and the code vectors; no partition is
        built or read.  Per leaf, the changed rows' keys name the codes of
        their classes and one pass over the column's codes marks the rows
        carrying them.  The rows marked on every leaf agree with some
        changed row on each key; grouped by their combined key, the groups
        holding a changed row are the classes.
        """
        keys, rows = tuple(keys), tuple(rows)
        last = self._scoped.get(keys)
        if last is not None and last[0] == rows:
            return last[1]
        scoped = self._scope(keys, rows, evaluator)
        self._scoped[keys] = (rows, scoped)
        return scoped

    def _scope(
        self,
        keys: tuple[PartitionKey, ...],
        rows: tuple[int, ...],
        evaluator: Optional[PatternEvaluator],
    ) -> tuple[np.ndarray, np.ndarray]:
        relation = self._relation
        changed = np.asarray(rows, dtype=np.int64)
        changed = changed[changed < relation.row_count]
        marked = None
        leaves = []
        for key in keys:
            column = relation.dictionary(key.attribute)
            state = self._state(key, column, evaluator)
            codes = column.codes
            changed_keys = state.row_keys(column, codes[changed])
            mask = state.key_mask(column, changed_keys[changed_keys >= 0])
            wanted = np.flatnonzero(mask)
            if len(wanted) == 1:
                hit = codes == int(wanted[0])
                if len(keys) == 1:
                    # One code on one leaf: its rows are the one class.
                    rowids = np.flatnonzero(hit)
                    if len(rowids) < 2:
                        return _empty_arrays()
                    return rowids, np.array([0, len(rowids)], dtype=np.int64)
            else:
                hit = np.take(mask, codes)
            marked = hit if marked is None else marked & hit
            leaves.append((state, column, codes))
        members = np.flatnonzero(marked)
        if not len(members):
            return _empty_arrays()
        group = None
        for state, column, codes in leaves:
            leaf_keys = state.row_keys(column, codes[members])
            if group is None:
                group = leaf_keys
            else:
                group = np.unique(
                    group * (int(leaf_keys.max()) + 1) + leaf_keys, return_inverse=True
                )[1]
        if len(leaves) > 1:
            at = np.minimum(np.searchsorted(members, changed), len(members) - 1)
            held = group[at[members[at] == changed]]
            keep = np.isin(group, held)
            members, group = members[keep], group[keep]
        return _group_stripped(group, members)

    # -- intersections -------------------------------------------------------

    def intersection(
        self,
        keys: Iterable[PartitionKey],
        evaluator: Optional[PatternEvaluator] = None,
    ) -> StrippedPartition:
        """The product of the leaf partitions of ``keys``, memoized.

        A level-``n`` request peels one leaf off the canonically ordered key
        set and intersects it into the memoized level-``(n-1)`` prefix, so a
        lattice descent reuses every previously intersected prefix instead
        of rebuilding from the rows.
        """
        key_set = frozenset(keys)
        if not key_set:
            raise ValueError("intersection() needs at least one partition key")
        if len(key_set) == 1:
            return self.partition_for(next(iter(key_set)), evaluator)
        cached = self._intersections.get(key_set)
        if cached is not None:
            self.stats.intersection_hits += 1
            return cached
        self.stats.intersection_misses += 1
        ordered = sorted(key_set, key=_key_order)
        last = ordered[-1]
        prefix = self.intersection(ordered[:-1], evaluator)
        leaf = self.partition_for(last, evaluator)
        partition = prefix.intersect(leaf)
        self._intersections[key_set] = partition
        return partition

    def attribute_set_partition(self, attributes: Sequence[str]) -> StrippedPartition:
        """The (possibly multi-) attribute partition of plain values — the
        grouping every FD-style consumer used to rebuild per candidate."""
        return self.intersection(PartitionKey(attribute) for attribute in attributes)

    # -- writes --------------------------------------------------------------

    def extend(self, deltas: Mapping[str, DictionaryDelta]) -> None:
        """Drop every cached partition: an append (one
        :class:`~repro.engine.dictionary.DictionaryDelta` per attribute)
        touches every attribute.  Partitions handed out earlier keep
        describing the old rows."""
        self._drop(set(self._relation.attribute_names))

    def apply_update(self, updates: Mapping[str, DictionaryUpdate]) -> None:
        """Drop the cached partitions over the attributes a batch of cell
        overwrites or deletes changed (the attributes whose
        :class:`~repro.engine.dictionary.DictionaryUpdate` is not empty).
        Partitions of untouched attributes, and intersections avoiding
        them, stay cached."""
        self._drop({name for name, update in updates.items() if update})

    def _drop(self, touched: set[str]) -> None:
        """Drop the leaves of the ``touched`` attributes and every
        intersection or scope over one (grouping states stay)."""
        if not touched:
            return
        self._leaves = {
            key: partition
            for key, partition in self._leaves.items()
            if key.attribute not in touched
        }
        self._intersections = {
            key_set: partition
            for key_set, partition in self._intersections.items()
            if all(key.attribute not in touched for key in key_set)
        }
        self._scoped = {
            keys: scoped
            for keys, scoped in self._scoped.items()
            if all(key.attribute not in touched for key in keys)
        }

    def cached_partition_count(self) -> int:
        return len(self._leaves) + len(self._intersections)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionManager(cached={self.cached_partition_count()}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


def _key_order(key: PartitionKey) -> tuple[str, str]:
    """Canonical leaf order inside an intersection (attribute, then pattern
    string), so equal key sets always peel the same prefix."""
    if key.pattern is None:
        return (key.attribute, "")
    return (key.attribute, key.pattern.pattern.to_pattern_string())
