"""The constant-row walk's admissible screen.

Before the exact decision function ``f`` runs on a leaf group, the walk
screens a whole batch of leaf groups in one vectorized pass
(``_CodeTable.admissible``).  The screen must be a necessary condition for
``f``: these tests pin that every group the exact decision accepts passes it,
on random relations with empty values, zero-count codes, ``noise_ratio=0``
and tied RHS counts, on both backends; that the walk with the screen
bypassed returns identical dependencies; and that a claim re-admits a key the
screen had rejected on its full group.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.index import PatternIndex
from repro.dataset.mutations import MutationBatch
from repro.dataset.relation import Relation
from repro.discovery import DiscoveryConfig, PFDDiscoverer
from repro.discovery.pfd_discovery import _CodeTable

BACKENDS = ("numpy", "sql")


class UnscreenedDiscoverer(PFDDiscoverer):
    """The walk with the admissible screen bypassed: every leaf group takes
    the exact path."""

    def _screen(self, index, table, key_ids, tuple_ids, count):
        return np.ones(count, dtype=bool)


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
    max_size=10,
)


def _relation(rows, backend):
    return Relation.from_rows(
        list(COLUMNS),
        [tuple(POOLS[c][i] for c, i in zip(COLUMNS, row)) for row in rows],
        name="R",
        backend=backend,
    )


def _apply_edits(relation, edits):
    """Update/delete batches on a relation whose dictionaries are built, so
    rewriting a value's last rows away leaves a zero-count code behind."""
    for column in COLUMNS:
        relation.dictionary(column)
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


def _facts(result):
    return [
        (d.lhs, d.rhs, d.pfd.describe(), d.pfd.tableau, d.coverage, d.support, d.is_variable)
        for d in result.dependencies
    ]


@settings(max_examples=60, deadline=None)
@given(
    rows=rows_strategy,
    edits=edits_strategy,
    backend=st.sampled_from(BACKENDS),
    width=st.integers(1, 3),
    min_support=st.integers(1, 4),
    noise_ratio=st.sampled_from([0.0, 0.05, 0.34]),
    rng=st.randoms(use_true_random=False),
)
def test_screen_admits_every_group_the_exact_decision_accepts(
    rows, edits, backend, width, min_support, noise_ratio, rng
):
    relation = _relation(rows, backend)
    _apply_edits(relation, edits)
    config = DiscoveryConfig(min_support=min_support, noise_ratio=noise_ratio, workers=1)
    discoverer = PFDDiscoverer(config)
    index = PatternIndex(relation)
    for rhs in COLUMNS:
        # An RHS outside the index (a column the profiler drops) checks
        # full values only; the rest also check informative parts.
        lhs = tuple(rng.sample([c for c in COLUMNS if c != rhs], width))
        table = _CodeTable(relation, lhs, rhs)
        groups = [
            np.flatnonzero([rng.random() < share for _ in range(table.size)])
            for share in (0.0, 0.2, 0.5, 0.8, 1.0)
            for _ in range(4)
        ]
        if lhs[0] in index.attributes:
            # The walk's own first batch: every frequent driver key's group.
            attr_index = index.attribute_index(lhs[0])
            keys = attr_index.frequent_keys(1)
            key_ids, tuple_ids = table.split(
                0, np.arange(table.size), [attr_index.codes(key) for key in keys]
            )
            groups += np.split(tuple_ids, np.searchsorted(key_ids, np.arange(1, len(keys))))
        sizes = [len(group) for group in groups]
        verdicts = discoverer._screen(
            index,
            table,
            np.repeat(np.arange(len(groups)), sizes),
            np.concatenate(groups).astype(np.int64),
            len(groups),
        )
        for group, passed in zip(groups, verdicts.tolist()):
            weight = table.weight(group)
            accepted = weight >= min_support and (
                discoverer._dominant_rhs_cell(
                    relation, index, rhs, *table.rhs_counts(group), weight
                )
                is not None
            )
            assert passed or not accepted, (lhs, rhs, group.tolist())


@settings(max_examples=50, deadline=None)
@given(
    rows=rows_strategy,
    edits=edits_strategy,
    backend=st.sampled_from(BACKENDS),
    max_lhs_size=st.integers(1, 3),
    min_support=st.integers(1, 4),
    noise_ratio=st.sampled_from([0.0, 0.05, 0.34]),
    max_tableau_rows=st.sampled_from([1, 2, 3, 400]),
    positional_grouping=st.booleans(),
)
def test_screened_walk_matches_unscreened_walk(
    rows,
    edits,
    backend,
    max_lhs_size,
    min_support,
    noise_ratio,
    max_tableau_rows,
    positional_grouping,
):
    relation = _relation(rows, backend)
    _apply_edits(relation, edits)
    config = DiscoveryConfig(
        min_support=min_support,
        noise_ratio=noise_ratio,
        min_coverage=0.05,
        max_lhs_size=max_lhs_size,
        max_tableau_rows=max_tableau_rows,
        positional_grouping=positional_grouping,
        workers=1,
    )
    expected = UnscreenedDiscoverer(config).discover(relation)
    actual = PFDDiscoverer(config).discover(relation)
    assert _facts(actual) == _facts(expected)
    assert actual.dependencies == expected.dependencies
    assert actual.candidate_count == expected.candidate_count


@pytest.mark.parametrize("backend", BACKENDS)
def test_claim_readmits_a_key_the_screen_rejected(backend):
    # The driver key ("Ann ", 0) covers 9 rows, all "X", and is accepted
    # first, claiming the "Ann Lee" rows.  ("Lee", 1) covers 5 "X" and 3
    # "Y" rows: its full group needs 7 agreeing rows and the screen rejects
    # it.  After the claim its unclaimed rows are the 3 "Y" rows of
    # "Bob Lee", which the exact decision accepts.
    rows = [("Ann Lee", "X")] * 5 + [("Ann Kim", "X")] * 4 + [("Bob Lee", "Y")] * 3
    relation = Relation.from_rows(["name", "city"], rows, name="R", backend=backend)
    config = DiscoveryConfig(
        min_support=3, positional_grouping=False, generalize=False, workers=1
    )
    index = PatternIndex(relation)
    discoverer = PFDDiscoverer(config)
    frequent = index.attribute_index("name").frequent_keys(config.min_support)
    assert frequent[:2] == [("Ann ", 0), ("Lee", 1)]
    table = _CodeTable(relation, ("name",), "city")
    batch = discoverer._key_batch(index, table, 0, np.arange(table.size), frequent)
    assert batch.admitted.tolist() == [True, False, True, True]

    tableau, support = discoverer._collect_constant_rows(relation, index, ("name",), "city")
    assert [str(row.cell("city")) for row in tableau] == ["X", "Y"]
    assert support == 12
    assert UnscreenedDiscoverer(config)._collect_constant_rows(
        relation, index, ("name",), "city"
    ) == (tableau, support)


def test_required_rhs_agreement_accepts_arrays():
    for noise_ratio in (0.0, 0.05, 0.34):
        config = DiscoveryConfig(noise_ratio=noise_ratio)
        supports = np.arange(1, 500)
        expected = [config.required_rhs_agreement(int(s)) for s in supports]
        assert config.required_rhs_agreement(supports).tolist() == expected
