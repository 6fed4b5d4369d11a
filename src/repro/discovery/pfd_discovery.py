"""The efficient PFD discovery algorithm (Figure 4 of the paper).

Pipeline, mirroring the pseudo-code:

1. **Profile** the table; drop quantitative columns, decide tokenize vs
   n-grams per attribute (lines 1–3).
2. **Index**: build the hash-based inverted list from ``(part, position)``
   to dictionary codes weighted by row counts for every usable attribute
   (lines 5–12).
3. **Candidates**: enumerate candidate dependencies ``X -> B`` level by level
   over the attribute-set lattice (restriction (iv)).  Before any tableau
   work, each LHS set is screened against the relation's cached stripped
   partitions: the candidate's covered rows (the intersection of the
   level-1 partitions, memoized on lattice descent) bound the achievable
   support and coverage, and a deficient LHS prunes its whole superset cone.
4. For each candidate, walk the frequent patterns of the LHS driver
   attribute; for each pattern with support ≥ K find the dominant RHS
   pattern among the same tuples and accept the pair when the agreement is
   at least ``support - δ·support`` (the decision function ``f``,
   restriction (iii)); accepted pairs become constant tableau rows
   (lines 13–21).
5. When the accumulated tableau covers at least γ of the table, try to
   **generalize** the constants into a single variable PFD and report either
   the generalized PFD or the constant one (lines 22–28); reported
   dependencies prune their lattice supersets.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from collections import defaultdict
from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.pfd import PFD
from ..core.tableau import PatternTableau, PatternTuple
from ..dataset.index import PartIncidence, PatternIndex
from ..dataset.profiler import TableProfile, profile_relation
from ..dataset.relation import Relation
from ..engine.evaluator import PatternEvaluator
from ..engine.parallel import (
    ParallelExecutor,
    _DiscoveryTask,
    chunk_round_robin,
    resolve_workers,
)
from ..engine.partitions import _spans
from ..patterns.ast import (
    ClassAtom,
    ConstrainedGroup,
    Literal,
    Pattern,
    Repeat,
)
from ..patterns.alphabet import CharClass
from ..patterns.induction import induce_pattern
from .config import DiscoveryConfig
from .generalization import generalize_tableau
from .lattice import CandidateLattice


@dataclasses.dataclass(frozen=True)
class DiscoveredDependency:
    """One reported dependency: the embedded FD plus its PFD tableau."""

    lhs: tuple[str, ...]
    rhs: str
    pfd: PFD
    coverage: float
    support: int
    is_variable: bool

    @property
    def key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (tuple(sorted(self.lhs)), (self.rhs,))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "variable" if self.is_variable else "constant"
        lhs = ", ".join(self.lhs)
        return f"[{lhs}] -> [{self.rhs}] ({kind}, coverage={self.coverage:.2f})"


@dataclasses.dataclass
class DiscoveryResult:
    """Everything the discoverer found, plus bookkeeping."""

    relation_name: str
    config: DiscoveryConfig
    dependencies: list[DiscoveredDependency]
    runtime_seconds: float
    candidate_count: int
    index_entries: int
    #: Candidates enumerated per lattice level (after pruning).
    candidates_per_level: dict[int, int] = dataclasses.field(default_factory=dict)

    @property
    def pfds(self) -> list[PFD]:
        return [dependency.pfd for dependency in self.dependencies]

    @property
    def dependency_keys(self) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
        return {dependency.key for dependency in self.dependencies}

    @property
    def variable_count(self) -> int:
        return sum(1 for dependency in self.dependencies if dependency.is_variable)

    def dependency_for(self, lhs: Sequence[str], rhs: str) -> Optional[DiscoveredDependency]:
        key = (tuple(sorted(lhs)), (rhs,))
        for dependency in self.dependencies:
            if dependency.key == key:
                return dependency
        return None

    def summary(self) -> str:
        lines = [
            f"PFD discovery on {self.relation_name!r}: "
            f"{len(self.dependencies)} dependencies "
            f"({self.variable_count} variable) in {self.runtime_seconds:.2f}s"
        ]
        for dependency in self.dependencies:
            lines.append(f"  {dependency}")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class GroupOutcome:
    """What validating one LHS group of a lattice level produced.

    Module top-level, so the outcomes a pool worker returns pickle by
    reference.
    """

    lhs: tuple[str, ...]
    #: Candidates the group counts: one for a coverage-deficient LHS (marking
    #: it prunes the group's other RHS), else one per RHS.
    candidates: int
    #: The LHS partition missed the coverage floor (prunes the superset cone).
    deficient: bool
    #: Accepted dependencies, in RHS enumeration order.
    accepted: tuple[DiscoveredDependency, ...]


class PFDDiscoverer:
    """Discover PFDs from (possibly dirty) data.

    Example
    -------
    >>> from repro.discovery import PFDDiscoverer, DiscoveryConfig
    >>> result = PFDDiscoverer(DiscoveryConfig(min_support=2)).discover(relation)
    >>> for dependency in result.dependencies:
    ...     print(dependency.pfd.describe())
    """

    def __init__(
        self,
        config: Optional[DiscoveryConfig] = None,
        evaluator: Optional[PatternEvaluator] = None,
        workers: Optional[int] = None,
        executor: Optional[ParallelExecutor] = None,
    ):
        self.config = config or DiscoveryConfig()
        # One shared evaluator: candidate validation (generalization) and any
        # downstream detection on the same relation reuse one match cache.
        # Scoped to this discoverer (not the process-wide default) so the many
        # throwaway candidate patterns of discovery don't accumulate globally.
        self.evaluator = evaluator or PatternEvaluator()
        #: Overrides ``config.workers`` when given (the session threads its
        #: own ``workers=`` through here); ``None`` defers to the config.
        self.workers = workers
        #: Optional shared :class:`ParallelExecutor` (the session owns one so
        #: repeated discoveries reuse a single broadcast pool).  When absent,
        #: a parallel discover() scopes a throwaway executor.
        self.executor = executor

    # -- public API ----------------------------------------------------------

    def discover(
        self,
        relation: Relation,
        profile: Optional[TableProfile] = None,
    ) -> DiscoveryResult:
        """Run the full discovery pipeline on ``relation``.

        The attribute-set lattice is walked level by level.  A level's
        candidates are fixed at the level boundary as LHS groups
        (:meth:`CandidateLattice.level_groups`) and validated by
        :meth:`_validate_groups`; the level barrier then applies the lattice
        marks and collects accepted dependencies in enumeration order.  With
        an effective worker count above 1 (``workers=`` on this discoverer,
        else ``config.workers``, else ``REPRO_WORKERS``) the groups are
        validated in a process pool (see :mod:`repro.engine.parallel`), with
        output bit-identical to ``workers=1``, which validates them in this
        process and never touches a pool.
        """
        start = time.perf_counter()
        config = self.config
        profile = profile or profile_relation(relation)
        workers = resolve_workers(
            self.workers if self.workers is not None else config.workers
        )
        executor: Optional[ParallelExecutor] = None
        index: Optional[PatternIndex] = None
        if workers > 1 and not getattr(relation, "is_sql_backed", False):
            # Out-of-core relations stay serial: their state is a live SQLite
            # connection that cannot be shipped to pool workers.
            executor = self.executor or ParallelExecutor(workers)
        else:
            index = self._pattern_index(relation, profile)
        lattice = CandidateLattice(self._eligible_attributes(profile))
        # A tableau needs at least one group of min_support rows and must
        # cover min_coverage of the table; both are bounded by the covered
        # rows of the LHS partition, known before any pattern work.
        coverage_floor = max(
            config.min_support, math.ceil(config.min_coverage * relation.row_count)
        )
        dependencies: list[DiscoveredDependency] = []
        candidates_per_level: dict[int, int] = {}
        index_entries: Optional[int] = None
        try:
            for level in range(1, config.max_lhs_size + 1):
                groups = lattice.level_groups(level)
                if not groups:
                    continue
                if executor is None:
                    outcomes = self._validate_groups(relation, index, groups, coverage_floor)
                else:
                    index_entries, outcomes = self._validate_pooled(
                        executor, relation, profile, groups, coverage_floor
                    )
                # The level barrier: marks go in in enumeration order; none
                # changes another group of this level (see level_groups).
                candidates_per_level[level] = sum(outcome.candidates for outcome in outcomes)
                for outcome in outcomes:
                    if outcome.deficient:
                        # Intersections only shrink the covered set: prune
                        # the whole superset cone, for every RHS.
                        lattice.mark_coverage_deficient(outcome.lhs)
                        continue
                    for dependency in outcome.accepted:
                        dependencies.append(dependency)
                        lattice.mark_satisfied(dependency.lhs, dependency.rhs)
        finally:
            if executor is not None and executor is not self.executor:
                executor.close()
        if index_entries is None:
            if index is None:  # a pooled run that dispatched no group
                index = self._pattern_index(relation, profile)
            index_entries = index.total_entries()
        return DiscoveryResult(
            relation_name=relation.name,
            config=config,
            dependencies=dependencies,
            runtime_seconds=time.perf_counter() - start,
            candidate_count=sum(candidates_per_level.values()),
            index_entries=index_entries,
            candidates_per_level=candidates_per_level,
        )

    def _pattern_index(self, relation: Relation, profile: TableProfile) -> PatternIndex:
        config = self.config
        return PatternIndex(
            relation,
            profile=profile,
            prune_substrings=config.prune_substrings,
            prefixes_only=config.prefixes_only,
        )

    def _validate_groups(
        self,
        relation: Relation,
        index: PatternIndex,
        groups: Sequence[tuple[tuple[str, ...], tuple[str, ...]]],
        coverage_floor: int,
    ) -> list[GroupOutcome]:
        """Validate LHS groups ``(X, (B, ...))`` of one lattice level, one
        outcome per group in input order.  A serial run calls this on the
        whole level; a pool worker calls it on its chunk.

        Before any tableau work each LHS is screened against its cached
        stripped partition: an LHS covering fewer than ``coverage_floor``
        rows is deficient and counts one candidate, as the level generator
        would skip its remaining RHS once it is marked.
        """
        manager = relation.partitions()
        outcomes: list[GroupOutcome] = []
        for lhs, rhs_list in groups:
            if manager.attribute_set_partition(lhs).covered_count < coverage_floor:
                outcomes.append(GroupOutcome(lhs, 1, deficient=True, accepted=()))
                continue
            evaluated = (self._evaluate_candidate(relation, index, lhs, rhs) for rhs in rhs_list)
            accepted = tuple(d for d in evaluated if d is not None)
            outcomes.append(GroupOutcome(lhs, len(rhs_list), deficient=False, accepted=accepted))
        return outcomes

    def _validate_pooled(
        self,
        executor: ParallelExecutor,
        relation: Relation,
        profile: TableProfile,
        groups: list[tuple[tuple[str, ...], tuple[str, ...]]],
        coverage_floor: int,
    ) -> tuple[int, list[GroupOutcome]]:
        """:meth:`_validate_groups` sharded across ``executor``'s pool in
        round-robin chunks of whole groups; returns the workers' index size
        and the outcomes put back in group order."""
        chunks = chunk_round_robin(range(len(groups)), executor.workers * 4)
        tasks = [
            _DiscoveryTask(
                config=self.config,
                profile=profile,
                coverage_floor=coverage_floor,
                groups=tuple(groups[position] for position in chunk),
            )
            for chunk in chunks
        ]
        by_position: dict[int, GroupOutcome] = {}
        index_entries = 0
        for chunk, (index_entries, chunk_outcomes) in zip(
            chunks, executor.run_tasks(relation, tasks)
        ):
            by_position.update(zip(chunk, chunk_outcomes))
        return index_entries, [by_position[position] for position in range(len(groups))]

    # -- candidate evaluation ---------------------------------------------------

    def _eligible_attributes(self, profile: TableProfile) -> list[str]:
        config = self.config
        names = list(profile.usable_columns)
        if config.include_attributes is not None:
            allowed = set(config.include_attributes)
            names = [name for name in names if name in allowed]
        names = [name for name in names if name not in set(config.exclude_attributes)]
        return names

    def _evaluate_candidate(
        self,
        relation: Relation,
        index: PatternIndex,
        lhs: tuple[str, ...],
        rhs: str,
    ) -> Optional[DiscoveredDependency]:
        """Lines 13–28 of Figure 4 for one candidate dependency ``X -> B``."""
        config = self.config
        rows, support = self._collect_constant_rows(relation, index, lhs, rhs)
        if not rows:
            return None
        coverage = support / relation.row_count if relation.row_count else 0.0
        if coverage < config.min_coverage:
            return None
        tableau = PatternTableau(rows)

        if config.generalize:
            outcome = generalize_tableau(
                relation,
                lhs,
                (rhs,),
                tableau,
                config,
                relation_name=relation.name,
                evaluator=self.evaluator,
            )
            if outcome.succeeded and outcome.pfd is not None:
                return DiscoveredDependency(
                    lhs=lhs,
                    rhs=rhs,
                    pfd=outcome.pfd,
                    coverage=outcome.support / relation.row_count if relation.row_count else 0.0,
                    support=outcome.support,
                    is_variable=True,
                )

        pfd = PFD(lhs, (rhs,), tableau, relation.name)
        return DiscoveredDependency(
            lhs=lhs,
            rhs=rhs,
            pfd=pfd,
            coverage=coverage,
            support=support,
            is_variable=False,
        )

    def _collect_constant_rows(
        self,
        relation: Relation,
        index: PatternIndex,
        lhs: tuple[str, ...],
        rhs: str,
    ) -> tuple[list[PatternTuple], int]:
        """Walk the frequent LHS patterns and build constant tableau rows.

        Every row set the walk forms — a driver key's unclaimed rows, the
        sub-groups of the other LHS attributes' keys — is a union of LHS code
        tuples, so the walk runs on the candidate's :class:`_CodeTable` and
        weighs tuples by their row counts.  Each level's key groups are formed
        as one :class:`_KeyBatch`; the innermost level's groups are the walk's
        leaves, screened in one vectorized pass (:meth:`_CodeTable.admissible`)
        so only leaves that can pass the decision function take the exact
        path.  Returns the tableau rows and the number of rows they cover.
        """
        config = self.config
        driver = self._driver_attribute(index, lhs)
        attributes = (driver,) + tuple(attribute for attribute in lhs if attribute != driver)
        table = _CodeTable(relation, attributes, rhs)
        frequent = index.attribute_index(driver).frequent_keys(config.min_support)
        frequent = frequent[: config.max_patterns_per_attribute]
        batch = self._key_batch(index, table, 0, np.arange(table.size), frequent)
        collected: list[tuple[PatternTuple, np.ndarray, int, int]] = []
        claimed = np.zeros(table.size, dtype=bool)
        for position, key in enumerate(frequent):
            if len(collected) >= config.max_tableau_rows:
                break
            if not batch.admitted[position]:
                continue
            fresh = batch.group(position)
            fresh = fresh[~claimed[fresh]]
            if table.weight(fresh) < config.min_support:
                continue
            for lhs_assignment, group in self._expand_lhs(index, table, key, 1, fresh):
                weight = table.weight(group)
                rhs_cell = self._dominant_rhs_cell(
                    relation, index, rhs, *table.rhs_counts(group), weight
                )
                if rhs_cell is None:
                    continue
                cells = dict(lhs_assignment)
                cells[rhs] = rhs_cell
                collected.append((PatternTuple.from_mapping(cells), group, weight, key[1]))
                claimed[group] = True
                # A claim shrinks the unclaimed rows of every driver key that
                # shares a tuple with it, so a verdict the screen formed on
                # the key's full group no longer holds for them.
                batch.readmit(group)
                if len(collected) >= config.max_tableau_rows:
                    break
        if config.positional_grouping and collected:
            collected = _keep_dominant_position(collected)
        covered = np.zeros(table.size, dtype=bool)
        for _row, group, _weight, _position in collected:
            covered[group] = True
        rows = [row for row, _group, _weight, _position in collected]
        return rows, table.weight(covered)

    def _driver_attribute(self, index: PatternIndex, lhs: tuple[str, ...]) -> str:
        """The LHS attribute with the most frequent patterns (Figure 4, line 15)."""
        config = self.config

        def frequent_count(attribute: str) -> int:
            return len(index.attribute_index(attribute).frequent_keys(config.min_support))

        return max(lhs, key=lambda attribute: (frequent_count(attribute), attribute))

    def _expand_lhs(
        self,
        index: PatternIndex,
        table: "_CodeTable",
        driver_key: tuple[str, int],
        level: int,
        group: np.ndarray,
    ) -> Iterable[tuple[dict[str, Pattern], np.ndarray]]:
        """Combine the driver pattern with frequent patterns of the remaining
        LHS attributes (the sub-table walk of Example 8).

        ``group`` holds table tuple ids; sub-groups of one driver key may
        overlap, since one cell can carry several frequent parts.  Claims do
        not shrink the sub-groups of one driver key, so the screen's verdicts
        on a parent group's innermost sub-keys hold for the whole expansion.
        """
        config = self.config
        if level == len(table.attributes):
            driver = table.attributes[0]
            driver_cell = self._lhs_cell(
                index, driver, driver_key, table.values(0, group)
            )
            if driver_cell is not None:
                yield {driver: driver_cell}, group
            return
        attribute = table.attributes[level]
        histogram = index.attribute_index(attribute).keys_for_rows(
            table.code_counts(level, group)
        )
        candidates = [
            (key, count)
            for key, count in histogram.items()
            if count >= config.min_support
        ]
        candidates.sort(key=lambda item: (-item[1], -len(item[0][0]), item[0]))
        keys = [key for key, _count in candidates[:50]]
        batch = self._key_batch(index, table, level, group, keys)
        for position, key in enumerate(keys):
            if not batch.admitted[position]:
                continue
            subgroup = batch.group(position)
            cell = self._lhs_cell(index, attribute, key, table.values(level, subgroup))
            if cell is None:
                continue
            for assignment, leaf in self._expand_lhs(
                index, table, driver_key, level + 1, subgroup
            ):
                combined = dict(assignment)
                combined[attribute] = cell
                yield combined, leaf

    def _key_batch(
        self,
        index: PatternIndex,
        table: "_CodeTable",
        level: int,
        group: np.ndarray,
        keys: Sequence[tuple[str, int]],
    ) -> "_KeyBatch":
        """The groups of ``keys`` (parts of the LHS attribute at ``level``)
        within ``group``; screened when ``level`` is the innermost, whose
        groups are the walk's leaves."""
        attr_index = index.attribute_index(table.attributes[level])
        key_ids, tuple_ids = table.split(level, group, [attr_index.codes(key) for key in keys])
        verdicts = None
        if level == len(table.attributes) - 1:
            verdicts = self._screen(index, table, key_ids, tuple_ids, len(keys))
        return _KeyBatch(key_ids, tuple_ids, len(keys), verdicts)

    def _screen(
        self,
        index: PatternIndex,
        table: "_CodeTable",
        key_ids: np.ndarray,
        tuple_ids: np.ndarray,
        count: int,
    ) -> np.ndarray:
        """Per leaf group, whether it can pass the decision function ``f``."""
        rhs = table.rhs
        incidence = (
            index.attribute_index(rhs).informative_parts if rhs in index.attributes else None
        )
        return table.admissible(key_ids, tuple_ids, count, self.config, incidence)

    # -- pattern construction ------------------------------------------------------

    def _lhs_cell(
        self,
        index: PatternIndex,
        attribute: str,
        key: tuple[str, int],
        values: Iterable[str],
    ) -> Optional[Pattern]:
        """Build the constrained LHS pattern for a frequent part key.

        ``values`` are the distinct cell values of the covered rows; the
        suffix induction below is order- and multiplicity-insensitive.
        """
        text, position = key
        strategy = index.strategy(attribute)
        if strategy == "value":
            return Pattern((ConstrainedGroup(tuple(Literal(char) for char in text)),))
        if strategy == "tokenize" and position > 0:
            # Non-leading token, e.g. the first name inside "Holloway, Donald E.":
            # anchor it behind a separator character so the constant cannot match
            # in the middle of another token (the paper writes \A*,\ Donald\A*).
            stripped = text.rstrip(" ,.;:-_/")
            if not stripped:
                return None
            group = ConstrainedGroup(tuple(Literal(char) for char in stripped))
            any_star = Repeat(ClassAtom(CharClass.ANY), 0, None)
            separator = ClassAtom(CharClass.SYMBOL)
            return Pattern((any_star, separator, group, any_star))
        group = ConstrainedGroup(tuple(Literal(char) for char in text))
        # Prefix part (token at position 0, or an n-gram prefix): describe the
        # suffix by inducing its shape from the covered values so the pattern
        # stays as specific as the data allows (e.g. {{900}}\D{2}).
        suffixes = []
        for value in values:
            if not value.startswith(text):
                suffixes = None
                break
            suffixes.append(value[len(text):])
        remainder: tuple
        if suffixes is None:
            remainder = (Repeat(ClassAtom(CharClass.ANY), 0, None),)
        elif all(suffix == "" for suffix in suffixes):
            remainder = ()
        else:
            induced = induce_pattern(
                [suffix for suffix in suffixes if suffix], keep_literals=False
            )
            if induced is not None and all(suffix for suffix in suffixes):
                remainder = tuple(induced.elements)
            else:
                remainder = (Repeat(ClassAtom(CharClass.ANY), 0, None),)
        return Pattern((group,) + remainder)

    def _dominant_rhs_cell(
        self,
        relation: Relation,
        index: PatternIndex,
        rhs: str,
        codes: np.ndarray,
        counts: np.ndarray,
        support: int,
    ) -> Optional[Pattern]:
        """The decision function ``f``: find the dominant RHS pattern.

        ``codes`` and ``counts`` are the group's RHS code histogram and
        ``support`` its row count.  First the full non-empty values are tried
        (the common case: the RHS of a constant PFD is a whole value such as
        a city or a gender); when no full value is dominant enough, the most
        frequent informative RHS *part* is tried (ties go to the longer
        text), yielding a prefix/infix pattern on the RHS.
        """
        config = self.config
        required = config.required_rhs_agreement(support)
        values = relation.dictionary(rhs).values
        full = [
            (count, values[code])
            for code, count in zip(codes.tolist(), counts.tolist())
            if values[code]
        ]
        if full:
            top_count, top_value = max(full)
            if top_count >= required:
                return Pattern(tuple(Literal(char) for char in top_value))

        if rhs not in index.attributes:
            return None
        incidence = index.attribute_index(rhs).informative_parts
        positions, parts = incidence.expand(codes)
        histogram = np.bincount(parts, weights=counts[positions], minlength=len(incidence.keys))
        top = histogram.max() if len(histogram) else 0
        if top < required:
            return None
        # Part ids ascend by (length, key), so the last top-count part wins.
        text, position = incidence.keys[np.flatnonzero(histogram == top)[-1]]
        if not text:
            return None
        group = ConstrainedGroup(tuple(Literal(char) for char in text))
        any_star = Repeat(ClassAtom(CharClass.ANY), 0, None)
        if position > 0:
            return Pattern((any_star, ClassAtom(CharClass.SYMBOL), group, any_star))
        return Pattern((group, any_star))


def _keep_dominant_position(
    collected: list[tuple[PatternTuple, np.ndarray, int, int]],
) -> list[tuple[PatternTuple, np.ndarray, int, int]]:
    """Single-semantics positional grouping (Section 4.4).

    When the driver attribute contributed patterns from several token
    positions (first-name tokens at position 1 *and* a few lucky last-name
    tokens at position 0), only one semantic explanation can be right; the
    rows whose position covers the most records are kept.  Each entry is
    ``(row, group, weight, position)``; overlapping sub-groups count once
    per group.
    """
    coverage_by_position: dict[int, int] = defaultdict(int)
    for _row, _group, weight, position in collected:
        coverage_by_position[position] += weight
    best_position = max(
        coverage_by_position.items(), key=lambda item: (item[1], -item[0])
    )[0]
    return [entry for entry in collected if entry[3] == best_position]


class _CodeTable:
    """One candidate's ``(LHS…, RHS)`` code co-occurrence table.

    The distinct LHS code tuples (driver first) are the walk's unit: a row
    set is an ascending array of tuple ids, its size the sum of the tuples'
    row counts.  Each tuple's RHS codes and counts are a contiguous slice of
    the table, so a group's RHS histogram never touches a row.
    """

    def __init__(self, relation: Relation, attributes: tuple[str, ...], rhs: str):
        self.attributes = attributes
        self.rhs = rhs
        self._values = [relation.dictionary(name).values for name in attributes]
        rhs_dictionary = relation.dictionary(rhs)
        self._rhs_radix = len(rhs_dictionary.values)
        empty = rhs_dictionary.code_of("")
        self._rhs_empty = -1 if empty is None else empty
        codes, counts = relation.code_cooccurrence(attributes + (rhs,))
        width = len(attributes)
        # The table is sorted, so each LHS tuple's rows are contiguous.
        change = np.ones(len(codes), dtype=bool)
        change[1:] = np.any(codes[1:, :width] != codes[:-1, :width], axis=1)
        starts = np.flatnonzero(change)
        self.lhs = codes[starts, :width]
        self.weights = np.add.reduceat(counts, starts)
        self._offsets = np.append(starts, len(codes))
        self._rhs = codes[:, width]
        self._counts = counts

    @property
    def size(self) -> int:
        return len(self.lhs)

    def weight(self, group: np.ndarray) -> int:
        return int(self.weights[group].sum())

    def split(
        self, level: int, group: np.ndarray, code_lists: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(key id, tuple id)`` pairs: for each ``code_lists[k]``, the tuples
        of ``group`` whose code at ``level`` is in it, ordered by key id and
        then tuple id (``group`` is ascending; each list holds distinct codes)."""
        sizes = [len(codes) for codes in code_lists]
        codes = np.fromiter(itertools.chain.from_iterable(code_lists), dtype=np.int64)
        key_ids = np.repeat(np.arange(len(code_lists), dtype=np.int64), sizes)
        order = np.argsort(codes, kind="stable")
        codes, key_ids = codes[order], key_ids[order]
        tuple_codes = self.lhs[group, level]
        starts = np.searchsorted(codes, tuple_codes)
        stops = np.searchsorted(codes, tuple_codes, side="right")
        tuple_ids = np.repeat(group, stops - starts)
        key_ids = key_ids[_spans(starts, stops)]
        order = np.argsort(key_ids, kind="stable")
        return key_ids[order], tuple_ids[order]

    def code_counts(self, level: int, group: np.ndarray) -> dict[int, int]:
        """Row count per code at ``level`` over ``group``."""
        return _sum_by_code(self.lhs[group, level], self.weights[group])

    def values(self, level: int, group: np.ndarray) -> list[str]:
        """The distinct values at ``level`` over ``group``."""
        values = self._values[level]
        return [values[code] for code in np.unique(self.lhs[group, level]).tolist()]

    def rhs_counts(self, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The group's RHS code histogram: ascending codes and row counts."""
        rows = _spans(self._offsets[group], self._offsets[group + 1])
        codes, inverse = np.unique(self._rhs[rows], return_inverse=True)
        return codes, np.bincount(inverse, weights=self._counts[rows]).astype(np.int64)

    def admissible(
        self,
        key_ids: np.ndarray,
        tuple_ids: np.ndarray,
        count: int,
        config: DiscoveryConfig,
        incidence: Optional[PartIncidence],
    ) -> np.ndarray:
        """The admissible screen: per group ``0..count-1`` (given as
        ``(group id, tuple id)`` pairs), whether it can pass the decision
        function ``f`` at all.

        A group of weight ``w`` is kept when ``w >= min_support`` and its best
        count ``b >= required_rhs_agreement(w)``, where ``b`` is the larger of
        its top count over non-empty full RHS values and its top count over
        informative RHS parts (``incidence``; ``None`` when the RHS has no
        index).  This is a necessary condition for acceptance, never a
        heuristic: :meth:`PFDDiscoverer._dominant_rhs_cell` accepts a group
        only when its top non-empty full value reaches the required agreement
        or, failing that, its top informative part does — and each of those
        counts is at most ``b``.  The weight condition mirrors the walk's own
        ``min_support`` check.  So a rejected group would have been rejected
        by the exact path, and skipping it changes no output.

        The verdict is about the group as given.  Inside one driver key's
        expansion the groups never change.  A driver key's group does shrink
        when another key claims some of its tuples, and a subset can pass
        where the whole group failed, so the walk re-admits
        (:meth:`_KeyBatch.readmit`) exactly the keys whose tuples a claim
        touched and sends them down the exact path.  An untouched key's
        unclaimed rows are still its whole group, so its verdict stands.
        """
        weights = np.bincount(
            key_ids, weights=self.weights[tuple_ids], minlength=count
        ).astype(np.int64)
        # Each group's RHS histogram as (group, RHS code) cells.
        starts, stops = self._offsets[tuple_ids], self._offsets[tuple_ids + 1]
        rows = _spans(starts, stops)
        cells, inverse = np.unique(
            np.repeat(key_ids, stops - starts) * self._rhs_radix + self._rhs[rows],
            return_inverse=True,
        )
        cell_counts = np.bincount(inverse, weights=self._counts[rows])
        groups, codes = np.divmod(cells, self._rhs_radix)
        best = np.zeros(count)
        full = codes != self._rhs_empty
        np.maximum.at(best, groups[full], cell_counts[full])
        if incidence is not None:
            positions, parts = incidence.expand(codes)
            width = len(incidence.keys)
            part_cells, inverse = np.unique(
                groups[positions] * width + parts, return_inverse=True
            )
            np.maximum.at(
                best, part_cells // width, np.bincount(inverse, weights=cell_counts[positions])
            )
        return (weights >= config.min_support) & (
            best >= config.required_rhs_agreement(weights)
        )


class _KeyBatch:
    """The groups of one walk level's keys within one parent group.

    ``group(k)`` is key ``k``'s ascending tuple ids.  ``admitted[k]`` says
    whether the walk evaluates key ``k``: every key of an unscreened batch;
    in a screened one (``verdicts`` given), the keys the admissible screen
    kept plus those a later claim re-admitted.
    """

    def __init__(
        self,
        key_ids: np.ndarray,
        tuple_ids: np.ndarray,
        count: int,
        verdicts: Optional[np.ndarray] = None,
    ):
        self._bounds = np.searchsorted(key_ids, np.arange(count + 1))
        self._key_ids = key_ids
        self._tuple_ids = tuple_ids
        self._screened = verdicts is not None
        self.admitted = verdicts if self._screened else np.ones(count, dtype=bool)
        self._by_tuple: Optional[tuple[np.ndarray, np.ndarray]] = None

    def group(self, position: int) -> np.ndarray:
        return self._tuple_ids[self._bounds[position] : self._bounds[position + 1]]

    def readmit(self, tuples: np.ndarray) -> None:
        """Re-admit every key whose group holds one of ``tuples``."""
        if not self._screened:
            return
        if self._by_tuple is None:
            order = np.argsort(self._tuple_ids, kind="stable")
            self._by_tuple = (self._tuple_ids[order], self._key_ids[order])
        sorted_tuples, keys = self._by_tuple
        starts = np.searchsorted(sorted_tuples, tuples)
        stops = np.searchsorted(sorted_tuples, tuples, side="right")
        self.admitted[keys[_spans(starts, stops)]] = True


def _sum_by_code(codes: np.ndarray, counts: np.ndarray) -> dict[int, int]:
    unique, inverse = np.unique(codes, return_inverse=True)
    sums = np.bincount(inverse, weights=counts, minlength=len(unique))
    return dict(zip(unique.tolist(), sums.astype(np.int64).tolist()))


def discover_pfds(
    relation: Relation,
    config: Optional[DiscoveryConfig] = None,
    evaluator: Optional[PatternEvaluator] = None,
    workers: Optional[int] = None,
) -> DiscoveryResult:
    """Convenience wrapper: discovery through a throwaway
    :class:`~repro.session.CleaningSession`.

    Callers running more than one pipeline stage on the same relation
    should hold a session instead, so detection and repair reuse the
    evaluator and partition state primed here (and, with ``workers > 1``,
    one broadcast worker pool instead of a throwaway pool per call).
    """
    from ..session import CleaningSession  # local import: session sits above

    session = CleaningSession(
        relation, config=config, evaluator=evaluator, workers=workers
    )
    try:
        return session.discover()
    finally:
        session.close()
