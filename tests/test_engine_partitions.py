"""Tests for the stripped-partition (PLI) layer.

Covers the :class:`StrippedPartition` algebra (intersect / refines / error),
the :class:`PartitionManager` caches and their mutation invalidation
(mirroring the dictionary-cache regression tests), and — as the property
satellite of the partition refactor — hypothesis tests asserting that the
partition-backed ``PFD.violations`` / ``support`` / ``row_statistics`` agree
exactly with the seed's dict-grouping implementation on generated relations
and pattern tableaux.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core.pfd import PFD, make_pfd, prime_partitions_for_pfds
from repro.core.tableau import PatternTableau, PatternTuple, WILDCARD
from repro.dataset.csvio import write_csv
from repro.dataset.relation import Relation
from repro.engine.partitions import PartitionKey, StrippedPartition
from repro.engine.evaluator import PatternEvaluator

from test_patterns_properties import patterns


def _partition(classes, row_count, covered=None):
    return StrippedPartition(classes, row_count, covered=covered)


class TestStrippedPartition:
    def test_basic_shape(self):
        partition = _partition([(0, 2), (1, 3, 4)], 6, covered=(0, 1, 2, 3, 4, 5))
        assert partition.class_count == 2
        assert partition.stripped_row_count == 5
        assert partition.covered_count == 6
        assert partition.error == pytest.approx((5 - 2) / 6)

    def test_intersect_probe_table_product(self):
        left = _partition([(0, 1, 2, 3)], 6, covered=range(6))
        right = _partition([(0, 1), (2, 4, 5)], 6, covered=range(6))
        product = left.intersect(right)
        assert product.classes == ((0, 1),)
        # Covered rows of an intersection derive lazily from the parents.
        assert product.covered == tuple(range(6))

    def test_intersect_empty(self):
        left = _partition([], 4, covered=(0, 1))
        right = _partition([(0, 1)], 4, covered=range(4))
        assert left.intersect(right).classes == ()

    def test_refines(self):
        finer = _partition([(0, 1), (2, 3)], 5, covered=range(5))
        coarser = _partition([(0, 1, 2, 3)], 5, covered=range(5))
        assert finer.refines(coarser)
        assert not coarser.refines(finer)

    def test_refines_codes(self):
        partition = _partition([(0, 1), (2, 3)], 4, covered=range(4))
        assert partition.refines_codes([7, 7, 3, 3])
        assert not partition.refines_codes([7, 7, 3, 9])

    def test_minority_rows(self):
        partition = _partition([(0, 1, 2), (3, 4)], 5, covered=range(5))
        assert partition.minority_rows([1, 1, 2, 5, 5]) == [2]
        assert partition.minority_rows([1, 1, 1, 5, 5]) == []


class TestPartitionManager:
    @pytest.fixture
    def relation(self):
        return Relation.from_rows(
            ["zip", "city", "state"],
            [
                ("90001", "Los Angeles", "CA"),
                ("90001", "Los Angeles", "CA"),
                ("90002", "Los Angeles", "CA"),
                ("10001", "New York", "NY"),
                ("10001", "New York", "NY"),
                ("", "Chicago", "IL"),
            ],
        )

    def test_attribute_partition_strips_singletons_and_empties(self, relation):
        manager = relation.partitions()
        partition = manager.attribute_partition("zip")
        assert partition.classes == ((0, 1), (3, 4))
        assert partition.covered == (0, 1, 2, 3, 4)  # empty cell uncovered
        assert partition.row_count == 6

    def test_attribute_partition_is_cached(self, relation):
        manager = relation.partitions()
        first = manager.attribute_partition("city")
        assert manager.attribute_partition("city") is first
        assert manager.stats.attribute_hits == 1
        assert manager.stats.attribute_misses == 1

    def test_pattern_partition_groups_by_constrained_part(self, relation):
        manager = relation.partitions()
        partition = manager.pattern_partition("zip", r"{{\D{3}}}\D{2}")
        # Prefixes: 900 -> rows 0,1,2 / 100 -> rows 3,4.
        assert partition.classes == ((0, 1, 2), (3, 4))
        assert partition.covered == (0, 1, 2, 3, 4)

    def test_wildcard_pattern_canonicalizes_to_attribute(self, relation):
        manager = relation.partitions()
        assert manager.key("zip", r"{{\A*}}") == PartitionKey("zip")
        assert manager.pattern_partition("zip", r"{{\A*}}") is (
            manager.attribute_partition("zip")
        )

    def test_intersection_memoized_and_descends_from_prefix(self, relation):
        manager = relation.partitions()
        keys = [manager.key("zip"), manager.key("city"), manager.key("state")]
        full = manager.intersection(keys)
        assert full.classes == ((0, 1), (3, 4))
        assert manager.stats.intersection_misses == 2  # (zip,city) then +state
        again = manager.intersection(keys)
        assert again is full
        assert manager.stats.intersection_hits == 1
        # The canonically ordered level-2 prefix (city, state) was memoized
        # as a byproduct of the level-3 build.
        prefix = manager.intersection([manager.key("city"), manager.key("state")])
        assert manager.stats.intersection_hits == 2
        assert prefix.class_count >= 1

    def test_set_cell_invalidates_only_touched_attribute(self, relation):
        manager = relation.partitions()
        zip_partition = manager.attribute_partition("zip")
        city_partition = manager.attribute_partition("city")
        pattern_partition = manager.pattern_partition("zip", r"{{\D{3}}}\D{2}")
        intersection = manager.attribute_set_partition(("zip", "city"))

        relation.set_cell(2, "zip", "90001")

        assert relation.partitions() is manager  # the manager object is stable
        fresh = manager.attribute_partition("zip")
        assert fresh is not zip_partition
        assert fresh.classes == ((0, 1, 2), (3, 4))  # reflects the mutation
        assert manager.attribute_partition("city") is city_partition
        assert manager.pattern_partition("zip", r"{{\D{3}}}\D{2}") is not pattern_partition
        assert manager.attribute_set_partition(("zip", "city")) is not intersection

    def test_append_drops_leaves_and_rebuilds_them_equal(self, relation):
        manager = relation.partitions()
        manager.attribute_partition("zip")
        manager.attribute_partition("city")
        manager.attribute_set_partition(("zip", "city"))
        assert manager.cached_partition_count() == 3

        relation.append_rows([("90002", "Los Angeles", "CA")])

        # An append touches every attribute: every cached partition goes,
        # and the next read rebuilds it cold, equal to a fresh relation's.
        assert manager.cached_partition_count() == 0
        misses = manager.stats.misses
        fresh = relation.copy().partitions()
        partition = manager.attribute_partition("zip")
        assert (2, 6) in partition.classes  # the appended row promoted 90002
        assert partition.classes == fresh.attribute_partition("zip").classes
        assert partition.covered == fresh.attribute_partition("zip").covered
        rebuilt = manager.attribute_set_partition(("zip", "city"))
        assert (2, 6) in rebuilt.classes
        assert rebuilt.classes == fresh.attribute_set_partition(("zip", "city")).classes
        assert manager.stats.misses == misses + 3  # zip, city, (zip, city)
        assert manager.cached_partition_count() == 3

    def test_pfd_evaluation_sees_mutations_through_partition_invalidation(self):
        relation = Relation.from_rows(
            ["zip", "city"],
            [("90001", "Los Angeles"), ("90002", "Los Angeles"), ("90003", "Los Angeles")],
        )
        pfd = make_pfd("zip", "city", [{"zip": r"{{900}}\D{2}", "city": "⊥"}])
        assert pfd.holds_on(relation)
        relation.set_cell(2, "city", "San Diego")
        assert not pfd.holds_on(relation)
        relation.set_cell(2, "city", "Los Angeles")
        assert pfd.holds_on(relation)

    def test_prime_partitions_for_pfds_builds_shared_leaves(self, relation):
        pfd_a = make_pfd("zip", "city", [{"zip": r"{{\D{3}}}\D{2}", "city": "⊥"}])
        pfd_b = make_pfd("zip", "state", [{"zip": r"{{\D{3}}}\D{2}", "state": "⊥"}])
        manager = prime_partitions_for_pfds(relation, [pfd_a, pfd_b])
        # Both PFDs share one (zip, pattern) leaf, deduped *before* the cache
        # is probed: exactly one build, no redundant lookups.
        assert manager.stats.pattern_misses == 1
        assert manager.stats.pattern_hits == 0
        assert manager.cached_partition_count() == 1


# --------------------------------------------------------------------------
# Property satellite: partition-backed evaluation == dict-grouping reference
# --------------------------------------------------------------------------
#
# The reference functions below are the seed's row-at-a-time dict-grouping
# implementations (the pre-partition ``PFD._lhs_keys`` path), kept here as an
# executable specification.


def _reference_lhs_keys(pfd: PFD, relation: Relation, row) -> dict[int, tuple[str, ...]]:
    keys: dict[int, tuple[str, ...]] = {}
    compiled = {attribute: row.compiled(attribute) for attribute in pfd.lhs}
    for row_id in range(relation.row_count):
        key: list[str] = []
        for attribute in pfd.lhs:
            value = relation.cell(row_id, attribute)
            result = compiled[attribute].match(value)
            if not value or not result.matched:
                break
            key.append(
                result.constrained_value if result.constrained_value is not None else ""
            )
        else:
            keys[row_id] = tuple(key)
    return keys


def _reference_classes(keys: dict[int, tuple]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Stripped classes (ordered by smallest member) and covered rows of a
    row id -> grouping key map, by plain dict grouping."""
    groups: dict[tuple, list[int]] = defaultdict(list)
    for row_id in sorted(keys):
        groups[keys[row_id]].append(row_id)
    classes = sorted(
        (tuple(ids) for ids in groups.values() if len(ids) >= 2), key=lambda ids: ids[0]
    )
    return classes, sorted(keys)


def _reference_attribute_keys(relation: Relation, lhs) -> dict[int, tuple[str, ...]]:
    """Row id -> tuple of values on ``lhs``, for rows with no empty cell."""
    keys: dict[int, tuple[str, ...]] = {}
    for row_id in range(relation.row_count):
        key = tuple(relation.cell(row_id, attribute) for attribute in lhs)
        if all(key):
            keys[row_id] = key
    return keys


def _reference_support(pfd: PFD, relation: Relation) -> int:
    covered: set[int] = set()
    for row in pfd.tableau:
        covered.update(_reference_lhs_keys(pfd, relation, row))
    return len(covered)


def _reference_suspects(pfd: PFD, relation: Relation) -> dict[object, set[int]]:
    """Suspect row ids per tableau row, via row-at-a-time dict grouping."""
    suspects: dict[object, set[int]] = {row: set() for row in pfd.tableau}
    for row in pfd.tableau:
        keys = _reference_lhs_keys(pfd, relation, row)
        if row.is_constant_row(pfd.lhs, pfd.rhs):
            for row_id in keys:
                for attribute in pfd.rhs:
                    expected = row.pattern(attribute).constant_value()
                    if relation.cell(row_id, attribute) != expected:
                        suspects[row].add(row_id)
            continue
        groups: dict[tuple[str, ...], list[int]] = defaultdict(list)
        for row_id, key in keys.items():
            groups[key].append(row_id)
        for row_ids in groups.values():
            if len(row_ids) < 2:
                continue
            for attribute in pfd.rhs:
                compiled = row.compiled(attribute)
                buckets: dict[tuple[bool, str], list[int]] = defaultdict(list)
                for row_id in row_ids:
                    value = relation.cell(row_id, attribute)
                    result = compiled.match(value)
                    if result.matched:
                        extracted = (
                            result.constrained_value
                            if result.constrained_value is not None
                            else ""
                        )
                        buckets[(True, extracted)].append(row_id)
                    else:
                        buckets[(False, value)].append(row_id)
                if len(buckets) < 2:
                    continue
                majority, _ = max(
                    buckets.items(), key=lambda item: (len(item[1]), item[0][0], item[0][1])
                )
                for bucket, ids in buckets.items():
                    if bucket != majority:
                        suspects[row].update(ids)
    return suspects


_cell_pools = st.sampled_from(
    ["Aa0", "Ab1", "Ba0", "Bb1", "C-2", "", "Aa", "Bb"]
)
_rows = st.lists(
    st.tuples(_cell_pools, _cell_pools, _cell_pools), min_size=1, max_size=14
)


@st.composite
def _tableau_cells(draw, lhs, rhs):
    cells = {attribute: draw(patterns()) for attribute in lhs}
    for attribute in rhs:
        cells[attribute] = draw(st.one_of(st.just(WILDCARD), patterns()))
    return cells


@settings(max_examples=80, deadline=None)
@given(rows=_rows, data=st.data(), lhs_size=st.integers(min_value=1, max_value=2))
def test_partition_evaluation_agrees_with_dict_grouping(rows, data, lhs_size):
    relation = Relation.from_rows(["a", "b", "c"], rows)
    lhs = ("a", "b")[:lhs_size]
    tableau_rows = [
        PatternTuple.from_mapping(data.draw(_tableau_cells(lhs, ("c",))))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
    ]
    pfd = PFD(lhs, ("c",), PatternTableau(tableau_rows))
    evaluator = PatternEvaluator()

    # Support and per-row matching rows.
    assert pfd.support(relation, evaluator=evaluator) == _reference_support(pfd, relation)
    for row in pfd.tableau:
        assert pfd.matching_rows(relation, row, evaluator=evaluator) == sorted(
            _reference_lhs_keys(pfd, relation, row)
        )

    # Violations: identical suspect cells, per tableau row.
    reference = _reference_suspects(pfd, relation)
    actual: dict[object, set[int]] = {row: set() for row in pfd.tableau}
    constant = pfd._constant_violations(relation, evaluator)
    for position, row in enumerate(pfd.tableau):
        if row.is_constant_row(pfd.lhs, pfd.rhs):
            found = constant.get(position, [])
        else:
            found = pfd._variable_row_violations(relation, row, evaluator)
        for violation in found:
            actual[row].update(cell.row_id for cell in violation.suspect_cells)
    assert actual == reference

    # Row statistics are derived from the same two primitives.
    for statistics in pfd.row_statistics(relation, evaluator=evaluator):
        assert statistics.support == len(
            _reference_lhs_keys(pfd, relation, statistics.row)
        )
        assert statistics.violating_tuples == len(reference[statistics.row])


@settings(max_examples=60, deadline=None)
@given(rows=_rows)
def test_attribute_partitions_agree_with_dict_grouping(rows):
    relation = Relation.from_rows(["a", "b", "c"], rows)
    for lhs in (("a",), ("a", "b"), ("a", "b", "c")):
        expected_classes, expected_covered = _reference_classes(
            _reference_attribute_keys(relation, lhs)
        )
        partition = relation.partitions().attribute_set_partition(lhs)
        assert list(partition.classes) == expected_classes
        assert list(partition.covered) == expected_covered


# --------------------------------------------------------------------------
# CLI satellite: --stats
# --------------------------------------------------------------------------


def test_cli_discover_stats_flag(tmp_path, capsys):
    relation = Relation.from_rows(
        ["zip", "city"],
        [(f"{90000 + i:05d}", "Los Angeles") for i in range(8)]
        + [(f"{10000 + i:05d}", "New York") for i in range(8)],
        name="zips",
    )
    path = tmp_path / "zips.csv"
    write_csv(relation, path)
    assert cli_main(["discover", str(path), "--min-support", "4", "--stats"]) == 0
    output = capsys.readouterr().out
    assert "partition cache:" in output
    assert "hits" in output and "misses" in output
    assert "level 1:" in output and "candidate(s)" in output
    assert "cached partitions:" in output
