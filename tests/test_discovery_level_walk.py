"""Discovery's one level walk against the per-candidate reference loop.

``PFDDiscoverer.discover`` fixes each lattice level's candidates at the level
boundary as LHS groups (``CandidateLattice.level_groups``), validates them in
process or in a process pool, and applies the lattice marks at the level
barrier.  This module keeps Figure 4's per-candidate loop as a test-local
reference — ``CandidateLattice.level`` re-checked after every mark, the
LHS partition's covered rows against the coverage floor, then
``_evaluate_candidate`` and the marks — and pins that the walk reproduces
its dependencies, candidate counts and index size on both backends and at
one and two workers, also after update/delete batches.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.dataset.index import PatternIndex
from repro.dataset.mutations import MutationBatch
from repro.dataset.profiler import profile_relation
from repro.dataset.relation import Relation
from repro.discovery import CandidateLattice, DiscoveryConfig, PFDDiscoverer

#: Six columns, so a level has more LHS groups than a two-worker pool has
#: chunks and the pooled merge must put outcomes back in order.
COLUMNS = ("code", "city", "name", "tag", "state", "area")
POOLS = {
    "code": ["90001", "90002", "90011", "10001", "10002", "1000", "9000", ""],
    "city": ["Los Angeles", "LA", "New York", "Newark", "Los Alamos", ""],
    "name": ["Ann Lee", "Bob Lee", "Ann Kim", "Lee Ann", "Bo", ""],
    "tag": ["A-1", "A-2", "B-1", "AB-12", "B", ""],
    "state": ["CA", "NY", "NJ", ""],
    "area": ["213", "212", "973", "21", ""],
}
#: (backend, workers): the pool never serves an out-of-core relation.
RUNS = (("numpy", 1), ("numpy", 2), ("sql", 1))

rows_strategy = st.lists(
    st.tuples(*(st.integers(0, len(POOLS[c]) - 1) for c in COLUMNS)),
    min_size=2,
    max_size=40,
)
edits_strategy = st.lists(
    st.tuples(
        st.sampled_from(["update", "delete"]),
        st.integers(0, 10_000),
        st.sampled_from(COLUMNS),
        st.integers(0, 7),
    ),
    max_size=6,
)


# -- the reference -------------------------------------------------------------


def reference_discover(discoverer, relation):
    """Figure 4's per-candidate loop: ``(dependencies, candidate_count,
    candidates_per_level, index_entries)``."""
    config = discoverer.config
    profile = profile_relation(relation)
    index = PatternIndex(
        relation,
        profile=profile,
        prune_substrings=config.prune_substrings,
        prefixes_only=config.prefixes_only,
    )
    lattice = CandidateLattice(discoverer._eligible_attributes(profile))
    manager = relation.partitions()
    coverage_floor = max(
        config.min_support, math.ceil(config.min_coverage * relation.row_count)
    )
    dependencies = []
    candidates_per_level = {}
    for level in range(1, config.max_lhs_size + 1):
        for lhs, rhs in lattice.level(level):
            candidates_per_level[level] = candidates_per_level.get(level, 0) + 1
            if manager.attribute_set_partition(lhs).covered_count < coverage_floor:
                lattice.mark_coverage_deficient(lhs)
                continue
            dependency = discoverer._evaluate_candidate(relation, index, lhs, rhs)
            if dependency is None:
                continue
            dependencies.append(dependency)
            lattice.mark_satisfied(lhs, rhs)
    return (
        dependencies,
        sum(candidates_per_level.values()),
        candidates_per_level,
        index.total_entries(),
    )


# -- helpers -------------------------------------------------------------------


def _relation(rows, backend):
    return Relation.from_rows(
        list(COLUMNS),
        [tuple(POOLS[c][i] for c, i in zip(COLUMNS, row)) for row in rows],
        name="R",
        backend=backend,
    )


def _apply_edits(relation, edits):
    for kind, row, column, choice in edits:
        if relation.row_count <= 1:
            return
        row_id = row % relation.row_count
        if kind == "delete":
            relation.apply(MutationBatch.deletes([row_id]))
        else:
            pool = POOLS[column]
            relation.apply(
                MutationBatch.update_cells([(row_id, column, pool[choice % len(pool)])])
            )


def _facts(dependencies):
    return [
        (d.lhs, d.rhs, d.pfd.describe(), d.pfd.tableau, d.coverage, d.support, d.is_variable)
        for d in dependencies
    ]


def _assert_walk_matches_reference(relation, config):
    dependencies, candidate_count, per_level, index_entries = reference_discover(
        PFDDiscoverer(config), relation
    )
    result = PFDDiscoverer(config).discover(relation)
    assert _facts(result.dependencies) == _facts(dependencies)
    assert result.candidate_count == candidate_count
    assert result.candidates_per_level == per_level
    assert result.index_entries == index_entries


# -- the walk against the reference ---------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    rows=rows_strategy,
    edits=edits_strategy,
    run=st.sampled_from(RUNS),
    max_lhs_size=st.integers(1, 3),
    min_support=st.integers(1, 4),
    min_coverage=st.sampled_from([0.05, 0.3, 0.6]),
)
def test_level_walk_matches_per_candidate_reference(
    rows, edits, run, max_lhs_size, min_support, min_coverage
):
    backend, workers = run
    relation = _relation(rows, backend)
    config = DiscoveryConfig(
        min_support=min_support,
        min_coverage=min_coverage,
        max_lhs_size=max_lhs_size,
        workers=workers,
    )
    _assert_walk_matches_reference(relation, config)
    _apply_edits(relation, edits)
    _assert_walk_matches_reference(relation, config)


# -- CandidateLattice.level_groups ----------------------------------------------


def _flatten(groups):
    return [(lhs, rhs) for lhs, rhs_list in groups for rhs in rhs_list]


def test_level_groups_group_level_by_lhs_in_order():
    lattice = CandidateLattice(["a", "b", "c"])
    assert lattice.level_groups(1) == [
        (("a",), ("b", "c")),
        (("b",), ("a", "c")),
        (("c",), ("a", "b")),
    ]
    assert lattice.level_groups(2) == [
        (("a", "b"), ("c",)),
        (("a", "c"), ("b",)),
        (("b", "c"), ("a",)),
    ]
    assert lattice.level_groups(3) == []
    restricted = CandidateLattice(["a", "b", "c"], rhs_attributes=["c"])
    assert restricted.level_groups(1) == [(("a",), ("c",)), (("b",), ("c",))]
    assert restricted.level_groups(2) == [(("a", "b"), ("c",))]


def test_level_groups_prune_as_level_does():
    lattice = CandidateLattice(["a", "b", "c", "d"])
    level_one = lattice.level_groups(1)
    # A satisfied LHS prunes only strict supersets for its RHS ...
    lattice.mark_satisfied(("a",), "c")
    assert lattice.level_groups(1) == level_one
    assert (("a", "b"), ("d",)) in lattice.level_groups(2)
    assert (("a", "d"), ("b",)) in lattice.level_groups(2)
    # ... and a deficient one itself and its superset cone, for every RHS.
    lattice.mark_coverage_deficient(("b",))
    assert ("b",) not in [lhs for lhs, _ in lattice.level_groups(1)]
    assert all("b" not in lhs for lhs, _ in lattice.level_groups(2))
    for size in (1, 2, 3):
        assert _flatten(lattice.level_groups(size)) == list(lattice.level(size))


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 5),
    marks=st.lists(
        st.tuples(st.booleans(), st.integers(0, 31), st.integers(0, 4)), max_size=8
    ),
)
def test_level_groups_flatten_to_level_under_random_marks(width, marks):
    attributes = "abcde"[:width]
    lattice = CandidateLattice(list(attributes))
    subsets = [
        subset
        for size in range(1, width + 1)
        for subset in itertools.combinations(attributes, size)
    ]
    for deficient, subset, rhs in marks:
        lhs = subsets[subset % len(subsets)]
        if deficient:
            lattice.mark_coverage_deficient(lhs)
        else:
            lattice.mark_satisfied(lhs, attributes[rhs % width])
        for size in range(1, width + 1):
            groups = lattice.level_groups(size)
            assert _flatten(groups) == list(lattice.level(size))
            assert len({lhs for lhs, _ in groups}) == len(groups)
