"""Memoized batch pattern matching over dictionary-encoded columns.

:meth:`PatternEvaluator.match_column` matches one pattern against every
*distinct* value of a :class:`~repro.engine.dictionary.DictionaryColumn` and
memoizes the resulting :class:`ColumnMatch`.  Consumers broadcast the
per-distinct results to rows through the column's codes, so a (pattern,
column) pair costs at most one :meth:`CompiledPattern.match` call per
distinct value, ever — no matter how many tableau rows, candidate
dependencies, or detection passes re-evaluate it.

:meth:`PatternEvaluator.match_column_many` goes one step further for the
many-patterns-one-column shape (K-row tableaux, K sibling candidates): the
whole pattern set is compiled into one shared DFA
(:func:`repro.patterns.multi.compile_pattern_set`) and each distinct value is
scanned **once**, yielding the bitmask of all matching patterns — a
:class:`ColumnMatchSet`.  The set is memoized weakly per column and grows
incrementally as new patterns join; a subsequent per-pattern
:meth:`match_column` call is seeded from the masks, so constrained-part
extraction (the only thing the DFA cannot answer) runs the per-pattern regex
on the *matching* distinct values only.  When the shared DFA cannot be built
within its state budget — or for single-pattern sets — the evaluator falls
back to the per-pattern path transparently.

The caches are keyed weakly by the ``DictionaryColumn`` object: relations
drop (and re-create) their cached dictionaries on cell overwrites, so a
stale entry can never be observed, and dictionaries of dead relations are
evicted automatically.

Batch ingestion (:meth:`repro.dataset.relation.Relation.append_rows`)
*extends* dictionaries in place instead of dropping them, so a cached
``ColumnMatch`` / ``ColumnMatchSet`` can be shorter than its column.  Both
entry points self-heal: before serving a cached entry they compare lengths
against ``column.distinct_count`` and match only the *newly introduced*
distinct values — through the shared DFA for the mask sets (the set
compilation is memoized globally, so repeated extends reuse it) and through
the per-pattern matcher for constrained-part results.  Because any evaluator
may hold masks for a column the relation just extended, healing happens at
read time per evaluator; no notification protocol is needed, and a stale
length can never be observed by consumers that go through the evaluator.

Per-tuple PFD checks read many patterns' masks at a few codes at once, so
the evaluator also keeps *stacked masks*: for a :class:`PatternList` (a
compiled tableau's distinct patterns on one attribute) and a column,
:meth:`PatternEvaluator.mask_stack` holds one boolean matrix, codes x
patterns, filled from the :class:`ColumnMatchSet` bits (or, for a one-pattern
list, the :class:`ColumnMatch` results).  Its lifetime is that of both keys:
it is memoized weakly per column and, within a column, weakly per
``PatternList``, so a throwaway candidate's stack goes with its tableau.  It
grows by the codes the column gained only, into spare capacity that doubles
when full, so appends cost amortized O(new codes) per pattern.  A
``match_column_many`` call handed an already registered ``PatternList`` on
a column that has not grown returns at once, without compiling or hashing
its patterns.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..patterns.ast import Pattern
from ..patterns.matcher import CompiledPattern, MatchResult, compile_pattern
from ..patterns.multi import DEFAULT_STATE_BUDGET, compile_pattern_set, is_dfa_friendly
from .dictionary import DictionaryColumn

PatternLike = Union[Pattern, str, CompiledPattern]

_FAILED = MatchResult(False)


class ColumnMatch:
    """Per-distinct-value match results of one pattern on one column.

    ``results[code]`` is the :class:`MatchResult` of the pattern on
    ``column.values[code]``.  The column is referenced weakly so that a
    cached ``ColumnMatch`` never pins its (possibly discarded) column — the
    evaluator's weak-keyed memo can evict entries of dead relations.
    """

    __slots__ = ("_column_ref", "compiled", "results", "_mask_array")

    def __init__(
        self,
        column: DictionaryColumn,
        compiled: CompiledPattern,
        results: tuple[MatchResult, ...],
    ):
        self._column_ref = weakref.ref(column)
        self.compiled = compiled
        self.results = results
        #: Cached boolean ndarray of ``matched_mask``; dropped whenever
        #: ``results`` grows.
        self._mask_array: Optional[np.ndarray] = None

    @property
    def column(self) -> DictionaryColumn:
        column = self._column_ref()
        if column is None:
            raise ReferenceError(
                "the DictionaryColumn of this ColumnMatch has been discarded"
            )
        return column

    def _extend(self, new_results: tuple[MatchResult, ...]) -> None:
        """Grow the per-code results in place (codes only ever append)."""
        self.results = self.results + new_results
        self._mask_array = None

    def result_for_row(self, row_id: int) -> MatchResult:
        return self.results[self.column.codes[row_id]]

    def matched_mask(self) -> list[bool]:
        """Per-code mask: does the distinct value match the pattern?"""
        return [result.matched for result in self.results]

    def matched_array(self) -> np.ndarray:
        """The per-code mask as a cached boolean ndarray."""
        if self._mask_array is None:
            self._mask_array = np.fromiter(
                (result.matched for result in self.results),
                dtype=bool,
                count=len(self.results),
            )
        return self._mask_array

    def matched_codes(self) -> list[int]:
        return [code for code, result in enumerate(self.results) if result.matched]

    def matching_rows(self) -> list[int]:
        """Row ids whose value matches, in ascending order: the per-code
        mask broadcast to rows with one fancy-indexing operation
        (``mask[codes]``)."""
        return np.flatnonzero(self.matched_array()[self.column.codes]).tolist()

    def match_count(self) -> int:
        """Number of *rows* (not distinct values) that match."""
        return int(self.column.counts_array()[self.matched_array()].sum())


class ColumnMatchSet:
    """Per-distinct-value match *bitmasks* of a set of patterns on one column.

    ``bits[code]`` has bit ``i`` set iff member pattern ``i`` generates
    ``column.values[code]``.  Members are registered in insertion order and
    the set grows incrementally: when new patterns join (another tableau, a
    new batch of sibling candidates), only the missing patterns are matched —
    set-at-a-time through one shared DFA when possible — and OR-ed into the
    existing masks.

    Like :class:`ColumnMatch`, the column is referenced weakly so a memoized
    set never pins a discarded column.  Unlike :class:`ColumnMatch` it holds
    booleans only; constrained-part extraction stays with the per-pattern
    :class:`CompiledPattern` (see :meth:`PatternEvaluator.match_column`,
    which seeds itself from these masks).
    """

    __slots__ = ("_column_ref", "_members", "_bit_of", "bits", "_mask_arrays", "lists")

    def __init__(self, column: DictionaryColumn):
        self._column_ref = weakref.ref(column)
        self._members: list[CompiledPattern] = []
        self._bit_of: dict[CompiledPattern, int] = {}
        self.bits: list[int] = [0] * column.distinct_count
        #: The :class:`PatternList` objects whose every pattern is a member.
        self.lists: "weakref.WeakSet[PatternList]" = weakref.WeakSet()
        #: Per-member cached boolean ndarrays of ``matched_mask``, keyed by
        #: bit and tagged with the bits length they were derived from (so a
        #: grown ``bits`` vector invalidates them lazily).
        self._mask_arrays: dict[int, tuple[int, np.ndarray]] = {}

    @property
    def column(self) -> DictionaryColumn:
        column = self._column_ref()
        if column is None:
            raise ReferenceError(
                "the DictionaryColumn of this ColumnMatchSet has been discarded"
            )
        return column

    # -- membership --------------------------------------------------------

    @property
    def patterns(self) -> tuple[CompiledPattern, ...]:
        """The member patterns, in registration (bit) order."""
        return tuple(self._members)

    @property
    def pattern_count(self) -> int:
        return len(self._members)

    def __contains__(self, pattern: object) -> bool:
        if isinstance(pattern, (CompiledPattern, Pattern, str)):
            return _compiled(pattern) in self._bit_of
        return False

    def _register(self, compiled: CompiledPattern) -> int:
        bit = self._bit_of.get(compiled)
        if bit is None:
            bit = len(self._members)
            self._bit_of[compiled] = bit
            self._members.append(compiled)
        return bit

    # -- queries -----------------------------------------------------------

    def matched(self, pattern: PatternLike, code: int) -> bool:
        """Does member ``pattern`` generate the distinct value at ``code``?"""
        return bool((self.bits[code] >> self._bit_of[_compiled(pattern)]) & 1)

    def matched_mask(self, pattern: PatternLike) -> list[bool]:
        """Per-code mask of one member pattern (cf. ``ColumnMatch``)."""
        bit = self._bit_of[_compiled(pattern)]
        return [bool((mask >> bit) & 1) for mask in self.bits]

    def matched_array(self, pattern: PatternLike) -> np.ndarray:
        """The per-code mask of one member as a cached boolean ndarray
        (re-derived lazily after the bits vector grows)."""
        bit = self._bit_of[_compiled(pattern)]
        cached = self._mask_arrays.get(bit)
        if cached is not None and cached[0] == len(self.bits):
            return cached[1]
        mask = np.fromiter(
            ((bits >> bit) & 1 for bits in self.bits),
            dtype=bool,
            count=len(self.bits),
        )
        self._mask_arrays[bit] = (len(self.bits), mask)
        return mask

    def matched_codes(self, pattern: PatternLike) -> list[int]:
        bit = self._bit_of[_compiled(pattern)]
        return [code for code, mask in enumerate(self.bits) if (mask >> bit) & 1]

    def matching_patterns(self, code: int) -> tuple[CompiledPattern, ...]:
        """All member patterns generating the distinct value at ``code``."""
        mask = self.bits[code]
        return tuple(
            compiled for bit, compiled in enumerate(self._members) if (mask >> bit) & 1
        )

    def match_count(self, pattern: PatternLike) -> int:
        """Number of *rows* (not distinct values) matching one member."""
        return int(self.column.counts_array()[self.matched_array(pattern)].sum())

    def matching_rows(self, pattern: PatternLike) -> list[int]:
        """Row ids whose value matches one member, ascending: the per-code
        mask broadcast to rows with one fancy-indexing operation."""
        return np.flatnonzero(
            self.matched_array(pattern)[self.column.codes]
        ).tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnMatchSet(patterns={len(self._members)}, "
            f"codes={len(self.bits)})"
        )


def _compiled(pattern: PatternLike) -> CompiledPattern:
    if isinstance(pattern, CompiledPattern):
        return pattern
    return compile_pattern(pattern)


class PatternList:
    """A fixed sequence of distinct compiled patterns with an identity.

    The evaluator memoizes per ``PatternList`` object, not per content:
    :meth:`PatternEvaluator.mask_stack` keeps one mask matrix per list and
    column, and :meth:`PatternEvaluator.match_column_many` recognizes a
    list it has registered without looking at its patterns.  Lists are
    weakly referenced by those memos, so their owner (a compiled tableau)
    decides how long the memoized work lives.
    """

    __slots__ = ("compiled", "__weakref__")

    def __init__(self, patterns: Iterable[PatternLike]):
        self.compiled: tuple[CompiledPattern, ...] = tuple(
            dict.fromkeys(_compiled(pattern) for pattern in patterns)
        )

    def __len__(self) -> int:
        return len(self.compiled)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PatternList(patterns={len(self.compiled)})"


class _MaskStack:
    """The stacked masks of one :class:`PatternList` on one column:
    ``matrix[code, i]`` is member ``i``'s match flag at ``code``, for codes
    below ``size``; rows past it are spare capacity.  ``bits`` holds
    the members' bits in the column's :class:`ColumnMatchSet` once read
    (a member's bit never changes)."""

    __slots__ = ("matrix", "size", "bits")

    def __init__(self, patterns: int, capacity: int):
        self.matrix = np.zeros((capacity, patterns), dtype=bool)
        self.size = 0
        self.bits: Optional[np.ndarray] = None


#: Codes unpacked per chunk when filling a stack from set bits.
_UNPACK_CHUNK = 1024


def _unpack_bits(words: Sequence[int], bits: np.ndarray, out: np.ndarray) -> None:
    """Write the flag of bit ``bits[i]`` of ``words[j]`` to ``out[j, i]``.
    Each word is cut to the bytes spanning the wanted bits and the bytes
    are unpacked with numpy, a chunk of words at a time, so the Python work
    is O(words) whatever the number of bits and the temporaries stay small."""
    if not len(words) or not len(bits):
        return
    low = int(bits.min()) & ~7
    width = (int(bits.max()) - low) // 8 + 1
    keep = (1 << (8 * width)) - 1
    columns = bits - low
    for start in range(0, len(words), _UNPACK_CHUNK):
        chunk = words[start:start + _UNPACK_CHUNK]
        raw = np.frombuffer(
            b"".join(((word >> low) & keep).to_bytes(width, "little") for word in chunk),
            dtype=np.uint8,
        ).reshape(len(chunk), width)
        flags = np.unpackbits(raw, axis=1, bitorder="little")
        out[start:start + len(chunk)] = flags[:, columns]


class PatternEvaluator:
    """A shared, memoized pattern-on-column matcher.

    One evaluator can (and should) be threaded through discovery, validation,
    and detection so that the same (pattern, column) pair is only ever
    evaluated once.  A module-level default instance is used when callers do
    not supply one; its cache is keyed weakly by column, so it never pins
    relations in memory.

    The per-column memo is deliberately uncapped (eviction happens per
    column, when the column's relation dies or is mutated): typical
    workloads evaluate a bounded set of tableau patterns per column.
    Callers driving very many throwaway candidate patterns against a
    long-lived relation should use a scoped ``PatternEvaluator`` (or call
    :meth:`clear`) rather than the process-wide default.

    Attributes
    ----------
    match_calls:
        Total per-distinct-value ``CompiledPattern.match`` invocations issued.
    cache_hits:
        Number of ``match_column`` calls answered from the memo.
    multi_scans:
        Total shared-DFA scans issued (one per distinct value per
        ``match_column_many`` batch, regardless of the pattern-set size).
    multi_fallbacks:
        Patterns evaluated through the per-pattern fallback inside
        ``match_column_many`` (single-pattern batches or a blown state
        budget).
    pattern_set_compilations:
        Shared-DFA builds requested by this evaluator (one per
        ``match_column_many`` batch with >= 2 new DFA-friendly patterns).
        The builds themselves are memoized globally per frozen pattern set,
        so this counts how often *this* evaluator had to ask — the number a
        :class:`~repro.session.CleaningSession` drives to zero by reusing
        one evaluator across pipeline stages.
    """

    #: Absolute state budget handed to :func:`compile_pattern_set` (the
    #: effective ceiling is also capped relative to the union-NFA size, see
    #: :func:`repro.patterns.multi.build_multi_automaton`); sets exceeding it
    #: fall back to per-pattern matching.
    state_budget = DEFAULT_STATE_BUDGET

    def __init__(self) -> None:
        self._cache: "weakref.WeakKeyDictionary[DictionaryColumn, dict[CompiledPattern, ColumnMatch]]" = (
            weakref.WeakKeyDictionary()
        )
        self._multi: "weakref.WeakKeyDictionary[DictionaryColumn, ColumnMatchSet]" = (
            weakref.WeakKeyDictionary()
        )
        self._stacks: "weakref.WeakKeyDictionary[DictionaryColumn, weakref.WeakKeyDictionary[PatternList, _MaskStack]]" = (
            weakref.WeakKeyDictionary()
        )
        self._primed: "weakref.WeakKeyDictionary[DictionaryColumn, weakref.WeakSet]" = (
            weakref.WeakKeyDictionary()
        )
        self.match_calls = 0
        self.cache_hits = 0
        self.multi_scans = 0
        self.multi_fallbacks = 0
        self.pattern_set_compilations = 0

    def match_column(self, pattern: PatternLike, column: DictionaryColumn) -> ColumnMatch:
        """Match ``pattern`` against every distinct value of ``column``.

        Results are memoized per (pattern, column); repeated calls are O(1).
        The memo is keyed by the :class:`CompiledPattern` (value-equal by
        AST, hash precomputed), so a cache hit costs a dict lookup, not an
        AST re-serialization.

        When the pattern's boolean mask is already known to the column's
        :class:`ColumnMatchSet` (a prior ``match_column_many`` batch), the
        per-pattern regex runs only on the *matching* distinct values for
        constrained-part extraction; non-matching values are filled with the
        failed result directly.
        """
        compiled = _compiled(pattern)
        per_column = self._cache.get(column)
        if per_column is None:
            per_column = {}
            self._cache[column] = per_column
        cached = per_column.get(compiled)
        if cached is not None:
            if len(cached.results) < column.distinct_count:
                self._heal_column_match(cached, column, compiled)
            self.cache_hits += 1
            return cached
        match = compiled.match
        match_set = self._multi.get(column)
        if match_set is not None and compiled in match_set._bit_of:
            self._sync_match_set(match_set, column)
            # Seeded from the set-at-a-time masks: extract only where matched.
            mask = match_set.matched_mask(compiled)
            results = tuple(
                match(value) if hit else _FAILED
                for hit, value in zip(mask, column.values)
            )
            self.match_calls += sum(mask)
        else:
            results = tuple(match(value) for value in column.values)
            self.match_calls += len(column.values)
        outcome = ColumnMatch(column=column, compiled=compiled, results=results)
        per_column[compiled] = outcome
        return outcome

    def match_column_many(
        self,
        patterns: Iterable[PatternLike],
        column: DictionaryColumn,
    ) -> ColumnMatchSet:
        """Match a whole pattern set against ``column``, set-at-a-time.

        All patterns missing from the column's memoized
        :class:`ColumnMatchSet` are compiled into one shared DFA and every
        distinct value is scanned **once**, no matter how many patterns
        joined; the resulting bitmasks are merged into the set.  Single
        missing patterns — and sets whose subset construction exceeds
        :attr:`state_budget` — fall back to the per-pattern path (whose
        results are shared with :meth:`match_column` either way).

        A :class:`PatternList` the set has registered before is answered
        without touching its patterns: only codes the column gained since
        the last scan are matched.
        """
        match_set = self._multi.get(column)
        if match_set is None:
            match_set = ColumnMatchSet(column)
            self._multi[column] = match_set
        else:
            self._sync_match_set(match_set, column)
        if isinstance(patterns, PatternList):
            if patterns in match_set.lists:
                return match_set
            requested = patterns.compiled
        else:
            requested = tuple(dict.fromkeys(_compiled(pattern) for pattern in patterns))
        missing = [c for c in requested if c not in match_set._bit_of]
        if missing:
            self._extend_match_set(match_set, column, missing)
        if isinstance(patterns, PatternList):
            match_set.lists.add(patterns)
        return match_set

    def mask_stack(self, patterns: PatternList, column: DictionaryColumn) -> np.ndarray:
        """The match masks of ``patterns`` on ``column`` as one bool matrix,
        ``codes x patterns`` (a view; do not write to it): a scope's few
        codes are a gather of contiguous rows.

        Memoized per (column, list), both weakly.  The first call fills it
        from the column's :class:`ColumnMatchSet` bits, registering the list
        through :meth:`match_column_many` (a one-pattern list reads its
        :meth:`match_column` results instead); later calls only fill the
        codes the column gained, into capacity that doubles when full.
        """
        stacks = self._stacks.get(column)
        if stacks is None:
            stacks = self._stacks[column] = weakref.WeakKeyDictionary()
        size = column.distinct_count
        stack = stacks.get(patterns)
        if stack is None:
            stack = stacks[patterns] = _MaskStack(len(patterns), size)
        if stack.size < size:
            self._grow_stack(stack, patterns, column)
        return stack.matrix[:size]

    def _grow_stack(
        self, stack: _MaskStack, patterns: PatternList, column: DictionaryColumn
    ) -> None:
        start, size = stack.size, column.distinct_count
        if size > len(stack.matrix):
            grown = np.zeros((max(size, 2 * len(stack.matrix)), len(patterns)), dtype=bool)
            grown[:start] = stack.matrix[:start]
            stack.matrix = grown
        if len(patterns) == 1:
            results = self.match_column(patterns.compiled[0], column).results[start:size]
            stack.matrix[start:size, 0] = np.fromiter(
                (result.matched for result in results), dtype=bool, count=size - start
            )
        elif len(patterns):
            match_set = self.match_column_many(patterns, column)
            if stack.bits is None:
                bit_of = match_set._bit_of
                stack.bits = np.fromiter(
                    (bit_of[compiled] for compiled in patterns.compiled),
                    dtype=np.int64,
                    count=len(patterns),
                )
            _unpack_bits(match_set.bits[start:size], stack.bits, stack.matrix[start:size])
        stack.size = size

    def mark_primed(self, token: object, column: DictionaryColumn) -> bool:
        """Record that ``token`` (any weakly referenceable object) was primed
        on ``column``; False when it had been already.  Lets a caller skip
        batching work it has done before, in O(1)."""
        primed = self._primed.get(column)
        if primed is None:
            primed = self._primed[column] = weakref.WeakSet()
        if token in primed:
            return False
        primed.add(token)
        return True

    def _heal_column_match(
        self,
        cached: ColumnMatch,
        column: DictionaryColumn,
        compiled: CompiledPattern,
    ) -> None:
        """Grow a memoized :class:`ColumnMatch` to cover codes the column
        gained since it was built (an in-place dictionary extend)."""
        match_set = self._multi.get(column)
        seeded = match_set is not None and compiled in match_set._bit_of
        if seeded:
            # May heal this very entry through its own tail loop; re-check.
            self._sync_match_set(match_set, column)
            if len(cached.results) >= column.distinct_count:
                return
        start = len(cached.results)
        new_values = column.values[start:]
        match = compiled.match
        if seeded:
            bit = match_set._bit_of[compiled]
            bits = match_set.bits
            hits = [(bits[start + offset] >> bit) & 1 for offset in range(len(new_values))]
            new_results = tuple(
                match(value) if hit else _FAILED
                for hit, value in zip(hits, new_values)
            )
            self.match_calls += sum(hits)
        else:
            new_results = tuple(match(value) for value in new_values)
            self.match_calls += len(new_values)
        cached._extend(new_results)

    def _sync_match_set(self, match_set: ColumnMatchSet, column: DictionaryColumn) -> None:
        """Grow a memoized :class:`ColumnMatchSet` to cover codes the column
        gained since the last scan (an in-place dictionary extend).

        Only the *new* distinct values are matched: the DFA-friendly members
        are rescanned set-at-a-time through :func:`compile_pattern_set`
        (memoized globally per frozen pattern set, so consecutive extends
        reuse one compiled automaton) and the rest fall back to per-pattern
        matching of the delta values.
        """
        start = len(match_set.bits)
        if start >= column.distinct_count:
            return
        new_values = column.values[start:]
        match_set.bits.extend(0 for _ in new_values)
        members = match_set.patterns
        if not members:
            return
        friendly = [c for c in members if is_dfa_friendly(c.pattern)]
        remaining = [c for c in members if not is_dfa_friendly(c.pattern)]
        automaton = None
        if len(friendly) >= 2:
            self.pattern_set_compilations += 1
            automaton = compile_pattern_set(
                [compiled.pattern for compiled in friendly],
                state_budget=self.state_budget,
            )
        if automaton is None:
            remaining = list(members)
        else:
            # Remap the automaton's canonical member order onto the set's
            # registration bits (they differ when members accumulated over
            # several batches).
            by_pattern = {compiled.pattern: compiled for compiled in friendly}
            target_bit = [
                match_set._bit_of[by_pattern[member]] for member in automaton.patterns
            ]
            scanned = automaton.match_bits_many(new_values)
            bits = match_set.bits
            for offset, value_bits in enumerate(scanned):
                if not value_bits:
                    continue
                mapped = 0
                source = 0
                while value_bits:
                    if value_bits & 1:
                        mapped |= 1 << target_bit[source]
                    value_bits >>= 1
                    source += 1
                bits[start + offset] |= mapped
            self.multi_scans += len(new_values)
        bits = match_set.bits
        for compiled in remaining:
            bit = match_set._bit_of[compiled]
            match = compiled.match
            for offset, value in enumerate(new_values):
                if match(value).matched:
                    bits[start + offset] |= 1 << bit
            self.match_calls += len(new_values)

    def _extend_match_set(
        self,
        match_set: ColumnMatchSet,
        column: DictionaryColumn,
        missing: list[CompiledPattern],
    ) -> None:
        # Free-start ("contains w") patterns make subset construction
        # exponential by construction; they take the per-pattern fallback
        # while the anchored rest shares one DFA.
        friendly = [c for c in missing if is_dfa_friendly(c.pattern)]
        unfriendly = [c for c in missing if not is_dfa_friendly(c.pattern)]
        automaton = None
        if len(friendly) >= 2:
            self.pattern_set_compilations += 1
            automaton = compile_pattern_set(
                [compiled.pattern for compiled in friendly],
                state_budget=self.state_budget,
            )
        if automaton is None:
            unfriendly = missing
        if automaton is not None:
            # Register members in the automaton's canonical order so its raw
            # bitmask maps onto the registry with a single shift — no per-
            # pattern remapping in the scan loop.
            base = match_set.pattern_count
            by_pattern = {compiled.pattern: compiled for compiled in friendly}
            for member in automaton.patterns:
                match_set._register(by_pattern[member])
            scanned = automaton.match_bits_many(column.values)
            if base == 0:
                # Fresh set: the scan output is the mask vector itself.
                match_set.bits = scanned
            else:
                bits = match_set.bits
                for code, value_bits in enumerate(scanned):
                    if value_bits:
                        bits[code] |= value_bits << base
            self.multi_scans += len(column.values)
        # Fallback: per-pattern matching (PR 1 path) for free-start patterns
        # and for sets whose subset construction blew the state budget.  The
        # ColumnMatch results double as the mask source, so nothing is
        # computed twice.
        for compiled in unfriendly:
            outcome = self.match_column(compiled, column)
            bit = match_set._register(compiled)
            bits = match_set.bits
            for code, result in enumerate(outcome.results):
                if result.matched:
                    bits[code] |= 1 << bit
            self.multi_fallbacks += 1

    def clear(self) -> None:
        """Drop every memoized result (counters are kept)."""
        self._cache = weakref.WeakKeyDictionary()
        self._multi = weakref.WeakKeyDictionary()
        self._stacks = weakref.WeakKeyDictionary()
        self._primed = weakref.WeakKeyDictionary()

    def cached_column_count(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatternEvaluator(columns={self.cached_column_count()}, "
            f"match_calls={self.match_calls}, cache_hits={self.cache_hits})"
        )


_DEFAULT_EVALUATOR = PatternEvaluator()


def default_evaluator() -> PatternEvaluator:
    """The process-wide shared evaluator (used when none is supplied)."""
    return _DEFAULT_EVALUATOR
