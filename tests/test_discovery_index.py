"""The code-level pattern index and constant-row walk against a row-level oracle.

Discovery keeps one inverted index at dictionary-code granularity and walks
LHS code tuples weighted by row counts.  This module keeps a row-level
reference — Figure 4's ``(part, position) -> tuple ids`` lists plus the
per-row part lists, and the constant-row walk over row-id sets — and pins
that both produce the same dependencies and index sizes on random relations,
also after update/delete batches that leave zero-count codes behind.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.tableau import PatternTuple
from repro.dataset.index import PatternIndex
from repro.dataset.mutations import MutationBatch
from repro.dataset.profiler import profile_relation
from repro.dataset.relation import Relation
from repro.dataset.tokenizer import extract_parts
from repro.discovery import DiscoveryConfig, PFDDiscoverer
from repro.patterns.alphabet import CharClass
from repro.patterns.ast import ClassAtom, ConstrainedGroup, Literal, Pattern, Repeat


# -- the row-level reference ---------------------------------------------------


class RowLevelIndex:
    """Figure 4's index as tuple-id lists: ``entries[attribute][key]`` holds
    the ascending row ids carrying ``key`` and ``row_parts[attribute][row]``
    the keys of that row's cell."""

    def __init__(self, relation, profile, prune_substrings, prefixes_only):
        self.strategies = {}
        self.entries = {}
        self.row_parts = {}
        for attribute in profile.usable_columns:
            strategy = profile.strategy(attribute)
            max_gram = profile.column(attribute).max_length
            entries = defaultdict(list)
            row_parts = {}
            for row_id, value in enumerate(relation.column(attribute)):
                if not value:
                    continue
                parts = extract_parts(
                    value, strategy, max_gram_length=max_gram, prefixes_only=prefixes_only
                )
                keys = list(dict.fromkeys((part.text, part.position) for part in parts))
                if not keys:
                    continue
                row_parts[row_id] = keys
                for key in keys:
                    entries[key].append(row_id)
            if prune_substrings:
                dominated = _dominated(entries)
                entries = {k: ids for k, ids in entries.items() if k not in dominated}
                row_parts = {
                    row: [k for k in keys if k not in dominated]
                    for row, keys in row_parts.items()
                }
            self.strategies[attribute] = strategy
            self.entries[attribute] = dict(entries)
            self.row_parts[attribute] = row_parts

    def strategy(self, attribute):
        return self.strategies[attribute]

    def frequent_keys(self, attribute, minimum_support):
        entries = self.entries[attribute]
        keys = [key for key, ids in entries.items() if len(ids) >= minimum_support]
        keys.sort(key=lambda key: (-len(entries[key]), -len(key[0]), key[0], key[1]))
        return keys

    def keys_for_rows(self, attribute, row_ids):
        histogram = defaultdict(int)
        for row_id in row_ids:
            for key in self.row_parts[attribute].get(row_id, ()):
                histogram[key] += 1
        return dict(histogram)

    def total_entries(self):
        return sum(len(entries) for entries in self.entries.values())


def _dominated(entries):
    by_signature = defaultdict(list)
    for (text, position), ids in entries.items():
        by_signature[(position, tuple(ids))].append(text)
    dominated = set()
    for (position, _ids), texts in by_signature.items():
        longest = max(texts, key=len)
        for text in texts:
            if text != longest and longest.startswith(text):
                dominated.add((text, position))
    return dominated


class RowLevelDiscoverer(PFDDiscoverer):
    """The discoverer with the constant-row walk done over row-id sets."""

    def discover(self, relation, profile=None):
        config = self.config
        profile = profile or profile_relation(relation)
        self.row_index = RowLevelIndex(
            relation, profile, config.prune_substrings, config.prefixes_only
        )
        return super().discover(relation, profile)

    def _collect_constant_rows(self, relation, index, lhs, rhs):
        config = self.config
        row_index = self.row_index
        driver = max(
            lhs,
            key=lambda a: (len(row_index.frequent_keys(a, config.min_support)), a),
        )
        other_lhs = [attribute for attribute in lhs if attribute != driver]
        collected = []
        claimed = set()
        frequent = row_index.frequent_keys(driver, config.min_support)
        for key in frequent[: config.max_patterns_per_attribute]:
            if len(collected) >= config.max_tableau_rows:
                break
            fresh = [r for r in row_index.entries[driver][key] if r not in claimed]
            if len(fresh) < config.min_support:
                continue
            for assignment, ids in self._row_expand(relation, driver, key, other_lhs, fresh):
                if len(ids) < config.min_support:
                    continue
                rhs_cell = self._row_rhs_cell(relation, rhs, ids)
                if rhs_cell is None:
                    continue
                cells = dict(assignment)
                cells[rhs] = rhs_cell
                collected.append((PatternTuple.from_mapping(cells), ids, key[1]))
                claimed.update(ids)
                if len(collected) >= config.max_tableau_rows:
                    break
        if config.positional_grouping and collected:
            by_position = defaultdict(int)
            for _row, ids, position in collected:
                by_position[position] += len(ids)
            best = max(by_position.items(), key=lambda item: (item[1], -item[0]))[0]
            collected = [entry for entry in collected if entry[2] == best]
        covered = set()
        for _row, ids, _position in collected:
            covered.update(ids)
        return [row for row, _ids, _position in collected], len(covered)

    def _row_expand(self, relation, driver, driver_key, other_lhs, ids):
        row_index = self.row_index
        driver_cell = self._lhs_cell(
            row_index, driver, driver_key, [relation.cell(r, driver) for r in ids]
        )
        if driver_cell is None:
            return
        if not other_lhs:
            yield {driver: driver_cell}, list(ids)
            return
        attribute, remaining = other_lhs[0], other_lhs[1:]
        histogram = row_index.keys_for_rows(attribute, ids)
        candidates = [
            (key, count)
            for key, count in histogram.items()
            if count >= self.config.min_support
        ]
        candidates.sort(key=lambda item: (-item[1], -len(item[0][0]), item[0]))
        id_set = set(ids)
        for key, _count in candidates[:50]:
            subgroup = [r for r in row_index.entries[attribute][key] if r in id_set]
            cell = self._lhs_cell(
                row_index, attribute, key, [relation.cell(r, attribute) for r in subgroup]
            )
            if cell is None:
                continue
            for assignment, group_ids in self._row_expand(
                relation, driver, driver_key, remaining, subgroup
            ):
                combined = dict(assignment)
                combined[attribute] = cell
                yield combined, group_ids

    def _row_rhs_cell(self, relation, rhs, ids):
        row_index = self.row_index
        required = self.config.required_rhs_agreement(len(ids))
        counts = Counter(v for v in (relation.cell(r, rhs) for r in ids) if v)
        if counts:
            top_value, top_count = max(counts.items(), key=lambda item: (item[1], item[0]))
            if top_count >= required:
                return Pattern(tuple(Literal(char) for char in top_value))
        if rhs not in row_index.entries:
            return None
        histogram = row_index.keys_for_rows(rhs, ids)
        row_count = relation.row_count or 1
        informative = {
            key: count
            for key, count in histogram.items()
            if len(row_index.entries[rhs][key]) / row_count < 0.8
        }
        if not informative:
            return None
        (text, position), count = max(
            informative.items(), key=lambda item: (item[1], len(item[0][0]), item[0])
        )
        if count < required or not text:
            return None
        group = ConstrainedGroup(tuple(Literal(char) for char in text))
        any_star = Repeat(ClassAtom(CharClass.ANY), 0, None)
        if position > 0:
            return Pattern((any_star, ClassAtom(CharClass.SYMBOL), group, any_star))
        return Pattern((group, any_star))


def _facts(result):
    return [
        (d.lhs, d.rhs, d.pfd.tableau, d.coverage, d.support, d.is_variable)
        for d in result.dependencies
    ]


def _assert_parity(relation, config):
    reference = RowLevelDiscoverer(config)
    expected = reference.discover(relation)
    actual = PFDDiscoverer(config).discover(relation)
    assert _facts(actual) == _facts(expected)
    assert actual.index_entries == reference.row_index.total_entries()


# -- random relations ----------------------------------------------------------

COLUMNS = ("code", "city", "name", "tag")
POOLS = {
    "code": ["90001", "90002", "90011", "10001", "10002", "1000", "9000", ""],
    "city": ["Los Angeles", "LA", "New York", "Newark", "Los Alamos", ""],
    "name": ["Ann Lee", "Bob Lee", "Ann Kim", "Lee Ann", "Bo", ""],
    "tag": ["A-1", "A-2", "B-1", "AB-12", "B", ""],
}

rows_strategy = st.lists(
    st.tuples(*(st.integers(0, len(POOLS[c]) - 1) for c in COLUMNS)),
    min_size=4,
    max_size=40,
)
edits_strategy = st.lists(
    st.tuples(
        st.sampled_from(["update", "delete"]),
        st.integers(0, 10_000),
        st.sampled_from(COLUMNS),
        st.integers(0, 7),
    ),
    max_size=12,
)


def _relation(rows):
    return Relation.from_rows(
        list(COLUMNS),
        [tuple(POOLS[c][i] for c, i in zip(COLUMNS, row)) for row in rows],
        name="R",
    )


def _apply_edits(relation, edits):
    """Apply update/delete batches; rewriting a value's last rows away
    leaves its code behind with a zero count."""
    for kind, row, column, choice in edits:
        row_id = row % relation.row_count
        if kind == "delete":
            relation.apply(MutationBatch.deletes([row_id]))
        else:
            pool = POOLS[column]
            relation.apply(
                MutationBatch.update_cells([(row_id, column, pool[choice % len(pool)])])
            )


@settings(max_examples=60, deadline=None)
@given(
    rows=rows_strategy,
    edits=edits_strategy,
    max_lhs_size=st.integers(1, 3),
    min_support=st.integers(1, 4),
    prune_substrings=st.booleans(),
    positional_grouping=st.booleans(),
)
def test_code_level_walk_matches_row_level_reference(
    rows, edits, max_lhs_size, min_support, prune_substrings, positional_grouping
):
    relation = _relation(rows)
    config = DiscoveryConfig(
        min_support=min_support,
        min_coverage=0.05,
        max_lhs_size=max_lhs_size,
        prune_substrings=prune_substrings,
        positional_grouping=positional_grouping,
        workers=1,
    )
    # Discovery caches the dictionaries, so the edits below patch them and
    # leave zero-count codes behind instead of re-encoding from scratch.
    _assert_parity(relation, config)
    _apply_edits(relation, edits)
    _assert_parity(relation, config)


def test_overlapping_sub_groups_count_their_union_as_support():
    # zip drives (three frequent values against name's two frequent tokens).
    # Every "Ann Lee" cell carries both frequent name tokens, ("Ann ", 0) and
    # ("Lee", 1), so the two sub-groups of the driver key 90001 overlap in
    # four rows: support is the union of the claimed rows, not their sum.
    rows = [("90001", "Ann Lee", "LA")] * 4 + [("90001", "Ann Kim", "LA")] * 2
    rows += [("90001", "Bob Lee", "LA")] * 2
    rows += [("90002", "", "NY")] * 3 + [("90003", "", "NY")] * 3
    relation = Relation.from_rows(["zip", "name", "city"], rows, name="R")
    config = DiscoveryConfig(
        min_support=3, min_coverage=0.1, max_lhs_size=2, generalize=False, workers=1
    )
    discoverer = PFDDiscoverer(config)
    index = PatternIndex(relation)
    lhs = ("name", "zip")
    assert discoverer._driver_attribute(index, lhs) == "zip"
    tableau, support = discoverer._collect_constant_rows(relation, index, lhs, "city")
    assert len(tableau) == 2  # the ("Ann ", 0) and ("Lee", 1) sub-groups
    assert support == 8  # 6 + 6 rows claimed, 4 of them by both groups
    reference = RowLevelDiscoverer(config)
    reference.row_index = RowLevelIndex(relation, index.profile, True, True)
    assert reference._collect_constant_rows(relation, index, lhs, "city") == (
        tableau,
        support,
    )
    _assert_parity(relation, config)


def test_index_is_independent_of_row_multiplicity():
    base_rows = [tuple(POOLS[c][(i * (j + 2)) % 6] for j, c in enumerate(COLUMNS))
                 for i in range(24)]
    base = Relation.from_rows(list(COLUMNS), base_rows, name="R")
    profile = profile_relation(base)  # the profile is not under test here
    k = 5
    repeated = Relation.from_rows(list(COLUMNS), base_rows * k, name="R")
    one = PatternIndex(base, profile=profile)
    many = PatternIndex(repeated, profile=profile)
    assert one.attributes == many.attributes
    for attribute in one.attributes:
        small, large = one.attribute_index(attribute), many.attribute_index(attribute)
        assert small.entries == large.entries
        assert small.code_parts == large.code_parts
        assert large.weights == {key: k * w for key, w in small.weights.items()}
