"""Tests for the engine's set-at-a-time tier.

:meth:`PatternEvaluator.match_column_many` must agree exactly with the
per-pattern path, issue one shared-DFA scan per distinct value regardless of
the pattern-set size, grow incrementally as new patterns join a column's set,
seed later per-pattern calls from its masks, and fall back transparently for
single patterns, free-start patterns, and blown state budgets — and the
priming threaded through PFD evaluation, error detection, and ranking must
never change any result.
"""

from __future__ import annotations

import gc
import weakref

from hypothesis import given, settings, strategies as st

from repro.cleaning.detector import detect_errors
from repro.core.pfd import gather_tableau_patterns, make_pfd, prime_for_pfds
from repro.dataset.relation import Relation
from repro.engine.dictionary import DictionaryColumn
from repro.engine.evaluator import PatternEvaluator
from repro.patterns.matcher import compile_pattern

from test_patterns_properties import patterns

ZIPS = ["90001", "90002", "10001", "10002", "60601", "Chicago", ""]
PATTERNS = [r"{{900}}\D{2}", r"{{100}}\D{2}", r"{{606}}\D{2}", r"\LU\LL*"]


def _column() -> DictionaryColumn:
    return DictionaryColumn.from_values(ZIPS * 3, attribute="zip")


class TestMatchColumnMany:
    def test_masks_agree_with_per_pattern_matching(self):
        column = _column()
        match_set = PatternEvaluator().match_column_many(PATTERNS, column)
        for pattern in PATTERNS:
            compiled = compile_pattern(pattern)
            assert match_set.matched_mask(pattern) == [
                compiled.matches(value) for value in column.values
            ]

    def test_one_scan_per_distinct_value_regardless_of_set_size(self):
        column = _column()
        evaluator = PatternEvaluator()
        evaluator.match_column_many(PATTERNS, column)
        assert evaluator.multi_scans == column.distinct_count
        assert evaluator.match_calls == 0  # no per-pattern matching at all
        # Doubling the set size adds one more scan per distinct value, not
        # one per (pattern, value).
        more = PATTERNS + [r"{{200}}\D{2}", r"{{300}}\D{2}", r"\D{5}", r"\LU+"]
        evaluator.match_column_many(more, column)
        assert evaluator.multi_scans == 2 * column.distinct_count

    def test_incremental_extension_reuses_the_memoized_set(self):
        column = _column()
        evaluator = PatternEvaluator()
        first = evaluator.match_column_many(PATTERNS[:2], column)
        second = evaluator.match_column_many(PATTERNS, column)
        assert second is first
        assert first.pattern_count == len(PATTERNS)
        for pattern in PATTERNS:
            assert first.matched_mask(pattern) == [
                compile_pattern(pattern).matches(value) for value in column.values
            ]
        # Re-requesting a known subset is pure cache.
        scans = evaluator.multi_scans
        evaluator.match_column_many(PATTERNS[1:3], column)
        assert evaluator.multi_scans == scans

    def test_free_start_patterns_take_the_per_pattern_fallback(self):
        column = _column()
        evaluator = PatternEvaluator()
        mixed = PATTERNS + [r"{{\A*}}", r"\A*\S{{001}}\A*"]
        match_set = evaluator.match_column_many(mixed, column)
        assert evaluator.multi_scans == column.distinct_count  # DFA for the anchored 4
        assert evaluator.multi_fallbacks == 2
        for pattern in mixed:
            assert match_set.matched_mask(pattern) == [
                compile_pattern(pattern).matches(value) for value in column.values
            ]

    def test_single_pattern_set_uses_the_per_pattern_path(self):
        column = _column()
        evaluator = PatternEvaluator()
        match_set = evaluator.match_column_many(PATTERNS[:1], column)
        assert evaluator.multi_scans == 0
        assert evaluator.multi_fallbacks == 1
        assert match_set.matched_mask(PATTERNS[0]) == [
            compile_pattern(PATTERNS[0]).matches(value) for value in column.values
        ]

    def test_blown_state_budget_falls_back_per_pattern(self):
        column = _column()
        evaluator = PatternEvaluator()
        evaluator.state_budget = 2  # force StateBudgetExceeded -> None
        match_set = evaluator.match_column_many(PATTERNS, column)
        assert evaluator.multi_scans == 0
        assert evaluator.multi_fallbacks == len(PATTERNS)
        for pattern in PATTERNS:
            assert match_set.matched_mask(pattern) == [
                compile_pattern(pattern).matches(value) for value in column.values
            ]

    def test_set_queries_broadcast_through_codes(self):
        column = _column()
        match_set = PatternEvaluator().match_column_many(PATTERNS, column)
        for pattern in PATTERNS:
            compiled = compile_pattern(pattern)
            expected_rows = [
                row_id
                for row_id, code in enumerate(column.codes)
                if compiled.matches(column.values[code])
            ]
            assert match_set.matching_rows(pattern) == expected_rows
            assert match_set.match_count(pattern) == len(expected_rows)
        assert set(match_set.matching_patterns(column.code_of("90001"))) == {
            compile_pattern(r"{{900}}\D{2}")
        }
        assert set(match_set.matching_patterns(column.code_of("Chicago"))) == {
            compile_pattern(r"\LU\LL*")
        }

    def test_memo_does_not_pin_dead_columns(self):
        evaluator = PatternEvaluator()
        column = DictionaryColumn.from_values(["a", "b"])
        ref = weakref.ref(column)
        evaluator.match_column_many([r"\LL", r"\LU"], column)
        del column
        gc.collect()
        assert ref() is None


class TestSeededMatchColumn:
    def test_match_column_is_seeded_from_the_masks(self):
        column = _column()
        evaluator = PatternEvaluator()
        match_set = evaluator.match_column_many(PATTERNS, column)
        before = evaluator.match_calls
        outcome = evaluator.match_column(PATTERNS[0], column)
        # Constrained-part extraction ran only on the matching distinct values.
        matched = sum(match_set.matched_mask(PATTERNS[0]))
        assert evaluator.match_calls - before == matched
        reference = PatternEvaluator().match_column(PATTERNS[0], column)
        assert [r.matched for r in outcome.results] == [
            r.matched for r in reference.results
        ]
        assert [r.constrained_value for r in outcome.results] == [
            r.constrained_value for r in reference.results
        ]

    def test_seeded_and_unseeded_results_are_interchangeable(self):
        column = _column()
        evaluator = PatternEvaluator()
        evaluator.match_column_many(PATTERNS, column)
        for pattern in PATTERNS:
            seeded = evaluator.match_column(pattern, column)
            plain = PatternEvaluator().match_column(pattern, column)
            assert seeded.results == plain.results


class TestPrimedEvaluation:
    def _relation(self) -> Relation:
        rows = [
            ("90001", "Los Angeles"),
            ("90002", "Los Angeles"),
            ("10001", "New York"),
            ("10002", "New York"),
            ("60601", "Chicago"),
            ("60602", "Springfield"),  # violates the 606 row
        ] * 3
        return Relation.from_rows(["zip", "city"], rows, name="zips")

    def _pfd(self):
        return make_pfd(
            "zip",
            "city",
            [
                {"zip": r"{{900}}\D{2}", "city": r"Los\ Angeles"},
                {"zip": r"{{100}}\D{2}", "city": r"New\ York"},
                {"zip": r"{{606}}\D{2}", "city": r"Chicago"},
            ],
            relation_name="zips",
        )

    def test_gather_collects_lhs_and_variable_rhs_patterns_only(self):
        pfd = self._pfd()
        gathered = gather_tableau_patterns([pfd])
        assert {p.to_pattern_string() for p in gathered["zip"]} == {
            r"{{900}}\D{2}",
            r"{{100}}\D{2}",
            r"{{606}}\D{2}",
        }
        # All rows are constant: their RHS is checked by equality, never
        # matched, so nothing is gathered for the RHS attribute.
        assert "city" not in gathered

    def test_violations_are_identical_with_and_without_the_shared_dfa(self):
        relation = self._relation()
        pfd = self._pfd()
        fast = PatternEvaluator()
        slow = PatternEvaluator()
        slow.state_budget = 2  # per-pattern fallback everywhere
        fast_violations = pfd.violations(relation, evaluator=fast)
        slow_violations = pfd.violations(relation, evaluator=slow)
        assert fast.multi_scans > 0
        assert slow.multi_scans == 0
        assert [v.cells for v in fast_violations] == [v.cells for v in slow_violations]
        assert [v.suspect_cells for v in fast_violations] == [
            v.suspect_cells for v in slow_violations
        ]
        assert pfd.coverage(relation, evaluator=fast) == pfd.coverage(
            relation, evaluator=slow
        )

    def test_prime_for_pfds_batches_sibling_pfds_on_one_column(self):
        relation = self._relation()
        first = make_pfd(
            "zip", "city", [{"zip": r"{{900}}\D{2}", "city": r"Los\ Angeles"}]
        )
        second = make_pfd(
            "zip", "city", [{"zip": r"{{100}}\D{2}", "city": r"New\ York"}]
        )
        evaluator = PatternEvaluator()
        prime_for_pfds(relation, [first, second], evaluator)
        # Two sibling one-row PFDs share one scan per distinct zip value.
        assert evaluator.multi_scans == relation.dictionary("zip").distinct_count

    def test_detection_report_is_unchanged_by_the_fast_path(self):
        relation = self._relation()
        pfd = self._pfd()
        fast = PatternEvaluator()
        slow = PatternEvaluator()
        slow.state_budget = 2
        fast_report = detect_errors(relation, [pfd], evaluator=fast)
        slow_report = detect_errors(relation, [pfd], evaluator=slow)
        assert fast.multi_scans > 0
        assert fast_report.error_cells == slow_report.error_cells
        assert [e.suggested_value for e in fast_report.errors] == [
            e.suggested_value for e in slow_report.errors
        ]


# ---------------------------------------------------------------------------
# Property: the batch tier agrees with per-pattern matching, fallbacks and all
# ---------------------------------------------------------------------------

_cell_values = st.lists(
    st.text(alphabet="ABCabc019-, XYZxyz.", max_size=10), min_size=1, max_size=10
)


@settings(max_examples=80, deadline=None)
@given(pattern_list=st.lists(patterns(), min_size=1, max_size=5), values=_cell_values)
def test_match_column_many_agrees_with_match_column(pattern_list, values):
    column = DictionaryColumn.from_values(list(values) + [""])
    evaluator = PatternEvaluator()
    match_set = evaluator.match_column_many(pattern_list, column)
    for pattern in pattern_list:
        compiled = compile_pattern(pattern)
        assert match_set.matched_mask(compiled) == [
            compiled.matches(value) for value in column.values
        ]
        # The seeded per-pattern result is complete and correct as well.
        outcome = evaluator.match_column(compiled, column)
        assert [r.matched for r in outcome.results] == match_set.matched_mask(compiled)
