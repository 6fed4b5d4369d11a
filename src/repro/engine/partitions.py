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
:meth:`repro.dataset.relation.Relation.partitions` and invalidated on
mutation exactly like the dictionary cache — memoizes:

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

Delta maintenance
-----------------

Mutations do not invalidate this cache — they *queue* patches on it.  Batch
ingestion (:meth:`repro.dataset.relation.Relation.append_rows`) routes the
per-column :class:`~repro.engine.dictionary.DictionaryDelta` records through
:meth:`PartitionManager.extend`, and cell overwrites / deletes
(:meth:`repro.dataset.relation.Relation.apply`) route their
:class:`~repro.engine.dictionary.DictionaryUpdate` records through
:meth:`PartitionManager.apply_update`.  Both then

* queue the delta's ``(row, old code, new code)`` triples on every cached
  leaf of a touched attribute, and nothing more.  Once the queued triples
  outnumber twice the largest queued delta, the queue composes into one
  block — per row the first old code and the last new code — so it holds
  ``O(distinct queued rows)`` triples and queueing costs amortized
  ``O(delta log pending)``.  A leaf whose distinct queued rows reach the
  relation's row count is dropped instead: its cold rebuild costs no more
  than the patch;
* patch a leaf on its first read afterwards (inside
  :meth:`~PartitionManager.attribute_partition` /
  :meth:`~PartitionManager.pattern_partition`): the queue composes into one
  net change per row and the cached classes take it in one positional
  patch, so a leaf nobody reads between mutations costs no patch at all.
  Each leaf keeps, next to its ``(rowids, offsets)`` snapshot, a per-key row
  count and smallest member (the key is the code for an attribute leaf, a
  stable constrained-component id for a pattern leaf, whose state first
  matches only the distinct values seen since its last patch).  The net
  changes become key moves: a moved row is deleted from its old class — a
  class left with one row dissolves — and inserted at its sorted position
  in its new class; a former singleton and an incoming row form a new class
  placed by its smallest member, and a class whose smallest member changed
  is re-seated.  The edits land in one batched ``np.delete``/``np.insert``
  per array (class rows, class sizes, covered rows); a probe array built on
  the old snapshot is carried over by shifting its class indices in one
  pass and rewriting the moved rows.  A patch therefore costs
  ``O(delta log rows)`` index work plus one copy of the arrays — the full
  regroup runs only as the cold build;
* mark every memoized **intersection** over a touched leaf as *stale*: the
  next request refreshes it by re-running the product over the patched
  leaf classes (cost ``O(||π||)``, never a regroup of raw rows), so
  mutations themselves stay O(touched leaves) and entries a workload
  stopped reading cost nothing; entries it cannot refresh (no delta
  available for the column) are dropped and rebuilt cold on demand.

Every patch yields fresh arrays, so partitions handed out earlier stay
valid snapshots.  The patched partitions are bit-identical — classes, class
order, covered rows, row counts and probe arrays — to what a from-scratch
rebuild would produce, which the incremental-append, CRUD and deferral
property tests pin.
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


def _class_positions(
    rowids: np.ndarray, offsets: np.ndarray, classes: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Per element, the index in ``rowids`` of the first member of class
    ``classes[i]`` that is ``>= rows[i]`` (the class end when none).

    A row above the class's largest member (every appended row) goes to
    the class end; the rest — a removed member is never above it — take one
    ``searchsorted`` per touched class over that class's ascending slice,
    reading ``O(log class size)`` entries per row instead of gathering whole
    classes.
    """
    positions = offsets[classes + 1]
    inside = np.flatnonzero(rows <= rowids[positions - 1])
    order = inside[stable_order(classes[inside])]
    grouped = classes[order]
    bounds = (np.flatnonzero(np.diff(grouped)) + 1).tolist()
    for start, stop in zip([0, *bounds], [*bounds, len(order)] if len(order) else []):
        members = order[start:stop]
        lo, hi = offsets[grouped[start]], offsets[grouped[start] + 1]
        positions[members] = lo + np.searchsorted(rowids[lo:hi], rows[members])
    return positions


def _splice(
    array: np.ndarray, remove: np.ndarray, insert_at: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``array`` without the elements at the ascending positions ``remove``
    and with ``values`` inserted before the original positions
    ``insert_at`` (equal positions keep the order of ``values``).

    Returns a fresh array (or ``array`` itself when nothing changes) —
    the input is never written, so snapshots sharing it stay intact.
    """
    if len(remove):
        insert_at = insert_at - np.searchsorted(remove, insert_at)
        array = np.delete(array, remove)
    if len(values):
        array = np.insert(array, insert_at, values)
    return array


class _ChangeQueue:
    """Code changes queued on one cached leaf until its next read.

    Changes arrive as ``(3, n)`` int64 blocks stacking ``(rows, old_codes,
    new_codes)``, rows ascending and unique within a block.  The queue keeps
    a composed *base* block — one net change per row, rows ascending — plus
    a *tail* buffer that blocks are copied into in mutation order (grown
    geometrically, so queueing allocates no object per block).  Once the
    tail holds more rows than the base and more than one block, both are
    composed into a new base (:meth:`compose`).  The queue therefore never
    holds more than twice its distinct rows, and a queued row is re-sorted
    an amortized ``O(log pending)`` times.
    """

    __slots__ = ("base", "tail", "tail_rows", "tail_blocks")

    def __init__(self) -> None:
        self.base = np.empty((3, 0), dtype=np.int64)
        self.tail = np.empty((3, 0), dtype=np.int64)
        self.tail_rows = 0
        self.tail_blocks = 0

    @property
    def size(self) -> int:
        """Rows held (a row queued twice counts twice)."""
        return self.base.shape[1] + self.tail_rows

    def push(self, block: np.ndarray, row_count: int) -> bool:
        """Queue ``block``; False when the distinct queued rows reach
        ``row_count`` (patching then costs no less than a cold build)."""
        start, stop = self.tail_rows, self.tail_rows + block.shape[1]
        if stop > self.tail.shape[1]:
            grown = np.empty((3, max(stop, 2 * self.tail.shape[1])), dtype=np.int64)
            grown[:, :start] = self.tail[:, :start]
            self.tail = grown
        self.tail[:, start:stop] = block
        self.tail_rows = stop
        self.tail_blocks += 1
        if (self.tail_blocks > 1 and stop > self.base.shape[1]) or self.size >= row_count:
            self.base = self.compose()
            self.tail_rows = self.tail_blocks = 0
        return self.size < row_count

    def compose(self) -> np.ndarray:
        """The net change of every queued block: per row the old code of its
        first change and the new code of its last, rows ascending."""
        tail = self.tail[:, : self.tail_rows]
        if not self.tail_blocks:
            return self.base
        if not self.base.shape[1] and self.tail_blocks == 1:
            return tail.copy()
        stacked = np.concatenate((self.base, tail), axis=1)
        # Stable: equal rows stay in mutation order (the base is oldest).
        stacked = stacked[:, np.argsort(stacked[0], kind="stable")]
        rows = stacked[0]
        first = np.empty(len(rows), dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        last = np.empty(len(rows), dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        composed = stacked[:, first]
        composed[2] = stacked[2, last]
        return composed

    def __bool__(self) -> bool:
        return self.size > 0


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
        "_scope",
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
        self._scope: Optional[tuple[tuple[int, ...], tuple[np.ndarray, np.ndarray]]] = None

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

    def classes_containing(self, rows: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`class_arrays` restricted to the classes that contain one
        of ``rows`` (ascending), in class order.

        The last answer is memoized: every variable tableau row whose LHS
        shares this partition asks for the same scope of one mutation.
        """
        if self._scope is not None and self._scope[0] == rows:
            return self._scope[1]
        rowids, offsets = self.class_arrays()
        if len(offsets) <= 1:
            return rowids, offsets
        # Mark the changed rows, then keep the classes holding a mark.
        changed = np.asarray(rows, dtype=np.int64)
        marked = np.zeros(self.row_count, dtype=bool)
        marked[changed[changed < self.row_count]] = True
        touched = np.flatnonzero(np.logical_or.reduceat(marked[rowids], offsets[:-1]))
        # Gather the touched classes' rows in one pass: each output position
        # is its class's start shifted by its rank in the class.
        starts = offsets[touched]
        sizes = offsets[touched + 1] - starts
        scoped_offsets = np.concatenate(([0], np.cumsum(sizes)))
        scoped = (
            rowids[np.arange(scoped_offsets[-1]) + np.repeat(starts - scoped_offsets[:-1], sizes)],
            scoped_offsets,
        )
        self._scope = (rows, scoped)
        return scoped

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

    The ``*_extends`` / ``*_updates`` counters count deltas *absorbed* — one
    per cached leaf per mutation that queued it — not patches executed: a
    leaf read once after many mutations is patched once but counted once per
    mutation.
    """

    attribute_hits: int = 0
    attribute_misses: int = 0
    pattern_hits: int = 0
    pattern_misses: int = 0
    intersection_hits: int = 0
    intersection_misses: int = 0
    #: Cached leaves that queued an append delta in
    #: :meth:`PartitionManager.extend` (delta maintenance instead of a cache
    #: drop); ``intersection_refreshes`` counts stale products recomputed.
    attribute_extends: int = 0
    pattern_extends: int = 0
    intersection_refreshes: int = 0
    #: Cached leaves that queued a cell-overwrite / delete delta in
    #: :meth:`PartitionManager.apply_update` (instead of the old
    #: per-attribute cache drop).
    attribute_updates: int = 0
    pattern_updates: int = 0

    @property
    def hits(self) -> int:
        return self.attribute_hits + self.pattern_hits + self.intersection_hits

    @property
    def misses(self) -> int:
        return self.attribute_misses + self.pattern_misses + self.intersection_misses

    @property
    def extends(self) -> int:
        return (
            self.attribute_extends
            + self.pattern_extends
            + self.intersection_refreshes
            + self.attribute_updates
            + self.pattern_updates
        )

    def summary(self) -> str:
        return (
            f"partition cache: {self.hits} hits / {self.misses} misses "
            f"(attribute {self.attribute_hits}/{self.attribute_misses}, "
            f"pattern {self.pattern_hits}/{self.pattern_misses}, "
            f"intersection {self.intersection_hits}/{self.intersection_misses}), "
            f"{self.extends} delta extends"
        )


class _LeafGroups:
    """Per-key bookkeeping behind one cached in-memory leaf partition.

    A leaf groups the covered rows by an integer *key* per dictionary code
    (:meth:`row_keys`; ``-1`` = uncovered).  ``counts[k]`` is the number of
    covered rows carrying key ``k`` and ``first[k]`` the smallest of them
    (``-1`` when none), so a key with ``counts[k] >= 2`` owns the stripped
    class whose smallest member is ``first[k]`` and a key with
    ``counts[k] == 1`` is the singleton ``first[k]``.  The cold build
    (:meth:`build`) regroups the whole code vector; later mutations are
    queued in :attr:`pending` and applied as one positional patch of the
    class arrays on the next read (:meth:`flush`).
    """

    __slots__ = ("counts", "first", "pending")

    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)
        self.first = np.zeros(0, dtype=np.int64)
        self.pending = _ChangeQueue()

    def flush(self, partition: StrippedPartition, column: DictionaryColumn) -> StrippedPartition:
        """``partition`` patched for every queued change, as one net patch."""
        rows, old_codes, new_codes = self.pending.compose()
        self.pending = _ChangeQueue()
        return self.refresh(partition, column, rows, old_codes, new_codes)

    def row_keys(self, column: DictionaryColumn, codes: np.ndarray) -> np.ndarray:
        """The group key of each code in ``codes`` (``-1`` stays ``-1``)."""
        raise NotImplementedError

    def _reserve(self, key_count: int) -> None:
        size = len(self.counts)
        if key_count > size:
            grow = max(key_count, 2 * size) - size
            self.counts = np.concatenate((self.counts, np.zeros(grow, dtype=np.int64)))
            self.first = np.concatenate((self.first, np.full(grow, -1, dtype=np.int64)))

    def build(self, column: DictionaryColumn) -> StrippedPartition:
        """Cold build: one sort/group pass over the whole code vector (no
        per-row Python work), recording ``counts``/``first`` on the way."""
        keys = self.row_keys(column, column.codes)
        covered = np.flatnonzero(keys >= 0).astype(np.int64)
        if not len(covered):
            rowids, offsets = _empty_arrays()
        else:
            sorted_keys, sorted_rows, starts, sizes = _group_runs(keys[covered], covered)
            run_keys = sorted_keys[starts]
            self._reserve(int(run_keys[-1]) + 1)
            self.counts[run_keys] = sizes
            self.first[run_keys] = sorted_rows[starts]
            rowids, offsets = _strip_runs(sorted_rows, starts, sizes)
        return StrippedPartition.from_arrays(
            rowids, offsets, column.row_count, covered=covered
        )

    def refresh(
        self,
        partition: StrippedPartition,
        column: DictionaryColumn,
        rows: np.ndarray,
        old_codes: np.ndarray,
        new_codes: np.ndarray,
    ) -> StrippedPartition:
        """``partition`` patched for the net code changes of ``rows``
        (ascending)."""
        return self._patch(
            partition,
            rows,
            self.row_keys(column, old_codes),
            self.row_keys(column, new_codes),
            column.row_count,
        )

    def _patch(
        self,
        partition: StrippedPartition,
        rows: np.ndarray,
        old: np.ndarray,
        new: np.ndarray,
        row_count: int,
    ) -> StrippedPartition:
        """Move ``rows`` (ascending) from key ``old`` to key ``new``.

        A class that keeps >= 2 rows and its smallest member is edited in
        place: moved rows are deleted from it and inserted at their sorted
        position.  Every other touched key — a class that dissolves, one
        whose smallest member changed, a former singleton joined by moved
        rows, a key seen for the first time — is regrouped from its members
        and (re)seated at the position of its smallest member.  All edits
        land in one splice per array, so the cost is ``O(delta log rows)``
        index work plus one copy of the class arrays, never a sort of the
        code vector.  The input partition is never written.
        """
        moved = old != new
        rows, old, new = rows[moved], old[moved], new[moved]
        leaving = old >= 0
        entering = new >= 0
        # One event per row leaving a key, then one per row entering a key.
        event_rows = np.concatenate((rows[leaving], rows[entering]))
        joins = np.arange(len(event_rows)) >= np.count_nonzero(leaving)
        event_keys = np.concatenate((old[leaving], new[entering]))
        keys = np.unique(event_keys)
        if len(keys):
            self._reserve(int(keys[-1]) + 1)
        # Index of each event's key in ``keys``, through a key-space table.
        key_index = np.empty(len(self.counts), dtype=np.int64)
        key_index[keys] = np.arange(len(keys))
        event_key = key_index[event_keys]
        old_count = self.counts[keys]
        first = self.first[keys]
        new_count = old_count + np.bincount(
            event_key, weights=np.where(joins, 1, -1), minlength=len(keys)
        ).astype(np.int64)
        self.counts[keys] = new_count

        # A touched class stays in place unless it dissolves or its smallest
        # member changes; classes are found by their smallest member.
        rowids, offsets = partition.class_arrays()
        class_mins = rowids[offsets[:-1]]
        class_of = np.searchsorted(class_mins, first)
        event_first = first[event_key]
        reseat = np.zeros(len(keys), dtype=bool)
        moves_min = np.where(joins, event_rows < event_first, event_rows == event_first)
        reseat[event_key[moves_min]] = True
        in_place = (old_count >= 2) & (new_count >= 2) & ~reseat
        dropped = np.sort(class_of[(old_count >= 2) & ~in_place])

        stays = in_place[event_key]
        edit_rows = event_rows[stays]
        edit_class = class_of[event_key[stays]]
        edit_at = _class_positions(rowids, offsets, edit_class, edit_rows)
        edit_joins = joins[stays]
        joined, join_class = edit_rows[edit_joins], edit_class[edit_joins]

        # Every other key that keeps rows is regrouped from its members: the
        # old class (or singleton) minus the rows that left, plus arrivals.
        self.first[keys[new_count == 0]] = -1
        regroup = ~in_place & (new_count > 0)
        if regroup.any():
            gather = regroup & (old_count >= 2)
            span = _spans(offsets[class_of[gather]], offsets[class_of[gather] + 1])
            solo = regroup & (old_count == 1)
            member_rows = np.concatenate((rowids[span], first[solo]))
            member_keys = np.concatenate(
                (np.repeat(keys[gather], old_count[gather]), keys[solo])
            )
            left = event_rows[~joins]
            if len(left):
                # ``left`` is ascending: one searchsorted tests membership.
                hit = left[np.minimum(np.searchsorted(left, member_rows), len(left) - 1)]
                kept = hit != member_rows
                member_rows, member_keys = member_rows[kept], member_keys[kept]
            arrive = joins & regroup[event_key]
            seated, seated_offsets = self._seat(
                np.concatenate((member_rows, event_rows[arrive])),
                np.concatenate((member_keys, keys[event_key[arrive]])),
            )
        else:
            seated, seated_offsets = _empty_arrays()
        seated_sizes = np.diff(seated_offsets)
        seat = np.searchsorted(class_mins, seated[seated_offsets[:-1]])

        remove_at = edit_at[~edit_joins]
        if len(dropped):
            remove_at = np.concatenate((remove_at, _spans(offsets[dropped], offsets[dropped + 1])))
        patched_rowids = _splice(
            rowids,
            np.sort(remove_at),
            np.concatenate((edit_at[edit_joins], np.repeat(offsets[seat], seated_sizes))),
            np.concatenate((joined, seated)),
        )
        sizes = np.diff(offsets)
        sizes[class_of[in_place]] += (new_count - old_count)[in_place]
        patched_offsets = _offsets_of(_splice(sizes, dropped, seat, seated_sizes))
        covered = partition.covered_array()
        lost = rows[leaving & ~entering]
        gained = rows[entering & ~leaving]
        if len(lost) or len(gained):
            covered = _splice(
                covered, np.searchsorted(covered, lost), np.searchsorted(covered, gained), gained
            )
        patched = StrippedPartition.from_arrays(
            patched_rowids, patched_offsets, row_count, covered=covered
        )
        probe = partition._probe_array
        if probe is not None:
            # Shift class indices in one pass (dropped classes -> -1), then
            # write the rows whose class changed.
            renumber = np.arange(len(class_mins) + 1, dtype=np.int64)
            renumber[-1] = -1
            # Seated class ``i`` lands at its seat among the kept classes,
            # after the ``i`` seated before it.
            seat_after = seat - np.searchsorted(dropped, seat)
            if len(dropped) or len(seat):
                renumber[:-1] -= np.searchsorted(dropped, renumber[:-1])
                renumber[:-1] += np.searchsorted(seat_after, renumber[:-1], side="right")
                renumber[dropped] = -1
                probe = renumber[probe]
            else:
                probe = probe.copy()
            if row_count > len(probe):
                grown = np.full(row_count - len(probe), -1, dtype=np.int64)
                probe = np.concatenate((probe, grown))
            probe[rows[leaving]] = -1
            probe[joined] = renumber[join_class]
            probe[seated] = np.repeat(seat_after + np.arange(len(seat)), seated_sizes)
            patched._probe_array = probe
        return patched

    def _seat(self, rows: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class arrays of ``rows`` grouped by ``keys``, recording each
        key's smallest member."""
        order = np.argsort(rows)
        sorted_keys, sorted_rows, starts, sizes = _group_runs(keys[order], rows[order])
        self.first[sorted_keys[starts]] = sorted_rows[starts]
        return _strip_runs(sorted_rows, starts, sizes)


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
        # A code's run in ``order`` starts at the running total of the
        # smaller codes' counts; its first row is the code's smallest.
        self.first = np.full(len(counts), -1, dtype=np.int64)
        present = counts > 0
        self.first[present] = order[(np.cumsum(counts) - counts)[present]]
        if empty_code is not None:
            covered = np.flatnonzero(codes != empty_code).astype(np.int64)
            counts[empty_code] = 0
            self.first[empty_code] = -1
        else:
            covered = np.arange(column.row_count, dtype=np.int64)
        self.counts = counts
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
    never renumber either, so a flush only matches the values first seen
    since the last :meth:`sync` before patching the classes.
    """

    __slots__ = ("component_of", "component_ids")

    def __init__(self) -> None:
        super().__init__()
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


class PartitionManager:
    """Build, cache, and intersect stripped partitions for one relation.

    Obtained via :meth:`repro.dataset.relation.Relation.partitions`; the
    relation hands every mutation to it — batch ingestion routes the
    per-column dictionary deltas through :meth:`extend`, cell overwrites and
    deletes route their dictionary updates through :meth:`apply_update` —
    and each cached leaf queues them until its next read patches it, so a
    served partition always reflects the current rows.  Counters in
    :attr:`stats` survive invalidation — they describe the manager's whole
    lifetime.
    """

    def __init__(self, relation: "Relation"):
        self._relation = relation
        self._attribute: dict[str, StrippedPartition] = {}
        self._attribute_groups: dict[str, _LeafGroups] = {}
        self._pattern: dict[PartitionKey, StrippedPartition] = {}
        self._pattern_groups: dict[PartitionKey, _PatternGroups] = {}
        self._intersections: dict[frozenset[PartitionKey], StrippedPartition] = {}
        #: Intersections evicted by a mutation whose leaves were all
        #: refreshed: the next request recomputes them from the refreshed
        #: leaf classes and is counted as a refresh, not a cold build.
        self._stale_intersections: set[frozenset[PartitionKey]] = set()
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
        cached = self._attribute.get(attribute)
        if cached is not None:
            self.stats.attribute_hits += 1
            groups = self._attribute_groups[attribute]
            if groups.pending:
                cached = groups.flush(cached, self._relation.dictionary(attribute))
                self._attribute[attribute] = cached
            return cached
        self.stats.attribute_misses += 1
        column = self._relation.dictionary(attribute)
        groups = self._new_attribute_state(column)
        partition = groups.build(column)
        self._attribute[attribute] = partition
        self._attribute_groups[attribute] = groups
        return partition

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
        key = self.key(attribute, pattern)
        if key.pattern is None:
            return self.attribute_partition(attribute)
        return self._pattern_partition(key, evaluator)

    # Leaf state factories: the sql backend swaps in spec-building states.
    def _new_attribute_state(self, column: DictionaryColumn) -> _LeafGroups:
        return _AttributeGroups()

    def _new_pattern_state(self, column: DictionaryColumn) -> _PatternGroups:
        return _PatternGroups()

    def _pattern_partition(
        self, key: PartitionKey, evaluator: Optional[PatternEvaluator]
    ) -> StrippedPartition:
        cached = self._pattern.get(key)
        if cached is not None:
            self.stats.pattern_hits += 1
            state = self._pattern_groups[key]
            if state.pending:
                # Match the distinct values gained while queued, then patch.
                column = self._relation.dictionary(key.attribute)
                state.sync(column, key.pattern)
                cached = state.flush(cached, column)
                self._pattern[key] = cached
            return cached
        self.stats.pattern_misses += 1
        evaluator = evaluator or default_evaluator()
        column = self._relation.dictionary(key.attribute)
        match = evaluator.match_column(key.pattern, column)
        state = self._new_pattern_state(column)
        state.add_values(column.values, match.results)
        partition = state.build(column)
        self._pattern[key] = partition
        self._pattern_groups[key] = state
        return partition

    def partition_for(
        self, key: PartitionKey, evaluator: Optional[PatternEvaluator] = None
    ) -> StrippedPartition:
        """The leaf partition of one canonical key."""
        if key.pattern is None:
            return self.attribute_partition(key.attribute)
        return self._pattern_partition(key, evaluator)

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
        if key_set in self._stale_intersections:
            self._stale_intersections.discard(key_set)
            self.stats.intersection_refreshes += 1
        else:
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
        keys = [PartitionKey(attribute) for attribute in attributes]
        if len(keys) == 1:
            return self.attribute_partition(keys[0].attribute)
        return self.intersection(keys)

    # -- delta maintenance ---------------------------------------------------

    def extend(self, deltas: Mapping[str, DictionaryDelta]) -> None:
        """Queue a batch of appended rows on every cached partition.

        ``deltas`` maps attribute names to the
        :class:`~repro.engine.dictionary.DictionaryDelta` their dictionary
        returned from the in-place extend, one per attribute.  An append
        touches every attribute: each cached leaf queues
        its delta and is patched on its next read; memoized intersections
        are marked stale and refreshed on next request by the partition
        product over the patched leaf classes, reusing the level-wise prefix
        descent.  Partition *objects* are never mutated — each cache slot
        receives a fresh snapshot, so partitions handed out before the
        append keep describing the old rows.
        """
        attributes, patterns = self._absorb(deltas, set(self._relation.attribute_names))
        self.stats.attribute_extends += attributes
        self.stats.pattern_extends += patterns

    def apply_update(self, updates: Mapping[str, DictionaryUpdate]) -> None:
        """Queue a batch of cell overwrites on every cached partition.

        ``updates`` maps attribute names to the
        :class:`~repro.engine.dictionary.DictionaryUpdate` their dictionary
        returned from the in-place :meth:`DictionaryColumn.update_rows` —
        the counterpart of :meth:`extend` for
        :meth:`repro.dataset.relation.Relation.apply`.  Unlike an append
        (which touches every attribute), an update touches only the listed
        attributes, so partitions of untouched attributes — and every
        memoized intersection whose leaves all avoid the updated attributes
        — stay cached as-is.  Touched leaves queue the update; intersections
        touching an updated attribute go stale and refresh lazily from the
        patched leaves, exactly like an append.
        """
        touched = {name for name, update in updates.items() if update}
        if not touched:
            return
        attributes, patterns = self._absorb(updates, touched)
        self.stats.attribute_updates += attributes
        self.stats.pattern_updates += patterns

    def _absorb(
        self,
        records: Mapping[str, Union[DictionaryDelta, DictionaryUpdate]],
        touched: set[str],
    ) -> tuple[int, int]:
        """Queue each record's ``(3, n)`` code-change block (see
        :meth:`~repro.engine.dictionary.DictionaryUpdate.code_changes`) on
        the cached leaves of the ``touched`` attributes and mark the
        intersections over them stale.

        A block is built only for an attribute with a cached leaf.  A
        touched leaf without a record, or whose distinct queued rows reach
        the row count, is dropped.  Returns how many attribute and pattern
        leaves queued a change.
        """
        row_count = self._relation.row_count
        cached = set(self._attribute) | {key.attribute for key in self._pattern}
        changes = {
            name: record.code_changes() for name, record in records.items() if name in cached
        }

        def queued(state: _LeafGroups, attribute: str) -> bool:
            block = changes.get(attribute)
            return block is not None and state.pending.push(block, row_count)

        attributes = patterns = 0
        for attribute in [name for name in self._attribute if name in touched]:
            if queued(self._attribute_groups[attribute], attribute):
                attributes += 1
            else:
                self._drop_attribute(attribute)
        for key in [key for key in self._pattern if key.attribute in touched]:
            if queued(self._pattern_groups[key], key.attribute):
                patterns += 1
            else:
                self._drop_pattern(key)
        # Intersections go stale, not cold: entries whose leaves all survived
        # are recomputed lazily — the next request re-runs the partition
        # product over the patched leaf classes (the memoized prefix descent
        # refreshes stale prefixes on the way).  Mutating is therefore
        # O(touched leaves), never O(cached intersections), and entries a
        # workload stopped reading cost nothing.
        survivors: dict[frozenset[PartitionKey], StrippedPartition] = {}
        for key_set, partition in self._intersections.items():
            if any(key.attribute in touched for key in key_set):
                self._stale_intersections.add(key_set)
            else:
                survivors[key_set] = partition
        self._intersections = survivors
        self._stale_intersections = {
            key_set
            for key_set in self._stale_intersections
            if all(self._has_leaf(key) or key.attribute not in touched for key in key_set)
        }
        return attributes, patterns

    def _has_leaf(self, key: PartitionKey) -> bool:
        if key.pattern is None:
            return key.attribute in self._attribute
        return key in self._pattern

    # -- invalidation --------------------------------------------------------

    def _drop_attribute(self, attribute: str) -> None:
        self._attribute.pop(attribute, None)
        self._attribute_groups.pop(attribute, None)

    def _drop_pattern(self, key: PartitionKey) -> None:
        self._pattern.pop(key, None)
        self._pattern_groups.pop(key, None)

    def invalidate(self) -> None:
        """Drop every cached partition (counters are kept)."""
        self._attribute.clear()
        self._attribute_groups.clear()
        for key in list(self._pattern_groups):
            self._drop_pattern(key)
        self._intersections.clear()
        self._stale_intersections.clear()

    def cached_partition_count(self) -> int:
        return len(self._attribute) + len(self._pattern) + len(self._intersections)

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
