"""Tests for the vectorized evaluation core (:mod:`repro.engine`)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.pfd import make_pfd
from repro.dataset.index import PatternIndex
from repro.dataset.relation import Relation
from repro.engine.dictionary import DictionaryColumn
from repro.engine.evaluator import PatternEvaluator, default_evaluator
from repro.patterns.matcher import CompiledPattern, compile_pattern


# --------------------------------------------------------------------------
# DictionaryColumn
# --------------------------------------------------------------------------


def test_dictionary_column_encodes_and_decodes():
    column = DictionaryColumn.from_values(["a", "b", "a", "", "b", "a"], attribute="x")
    assert column.values == ("a", "b", "")
    assert list(column.codes) == [0, 1, 0, 2, 1, 0]
    assert column.row_count == 6
    assert column.distinct_count == 3
    assert [column.value_of_row(i) for i in range(6)] == ["a", "b", "a", "", "b", "a"]
    assert column.code_of("b") == 1
    assert column.code_of("missing") is None
    assert column.counts() == [3, 2, 1]
    assert column.rows_by_code() == [[0, 2, 5], [1, 4], [3]]
    assert column.duplication_factor == 2.0


def test_relation_dictionary_is_cached_and_patched_in_place():
    relation = Relation.from_rows(["a", "b"], [("1", "x"), ("2", "y"), ("1", "x")])
    first = relation.dictionary("a")
    assert relation.dictionary("a") is first

    # set_cell patches the dictionary in place (identity kept, so evaluator
    # caches keyed on the object survive): the new value gets a fresh code
    # at the end, the old value keeps its slot for its remaining row.
    relation.set_cell(0, "a", "9")
    assert relation.dictionary("a") is first
    assert first.values == ("1", "2", "9")
    assert list(first.codes) == [2, 1, 0]

    # set_cell on one column leaves the other column's dictionary untouched.
    b_dict = relation.dictionary("b")
    relation.set_cell(1, "a", "7")
    assert relation.dictionary("b") is b_dict

    # append_rows extends every cached dictionary in place too.
    relation.append_rows([("3", "z")])
    assert relation.dictionary("b") is b_dict
    assert relation.dictionary("b").row_count == 4
    assert relation.dictionary("b").values == ("x", "y", "z")
    assert list(relation.dictionary("b").codes) == [0, 1, 0, 2]


# --------------------------------------------------------------------------
# PatternEvaluator
# --------------------------------------------------------------------------


def test_match_column_matches_per_distinct_value():
    column = DictionaryColumn.from_values(["90001", "10001", "90001", "bad", ""])
    evaluator = PatternEvaluator()
    batch = evaluator.match_column(r"{{\D{3}}}\D{2}", column)
    assert [result.matched for result in batch.results] == [True, True, False, False]
    assert batch.results[0].constrained_value == "900"
    assert batch.results[1].constrained_value == "100"
    assert batch.matched_codes() == [0, 1]
    assert batch.matching_rows() == [0, 1, 2]
    assert batch.match_count() == 3
    assert batch.result_for_row(2).constrained_value == "900"


def test_match_column_is_memoized_per_pattern_and_column():
    column = DictionaryColumn.from_values(["a", "b", "a"])
    evaluator = PatternEvaluator()
    first = evaluator.match_column(r"\LL+", column)
    calls_after_first = evaluator.match_calls
    again = evaluator.match_column(r"\LL+", column)
    assert again is first
    assert evaluator.match_calls == calls_after_first
    assert evaluator.cache_hits == 1

    # A different column (even with equal contents) is evaluated separately.
    other = DictionaryColumn.from_values(["a", "b", "a"])
    evaluator.match_column(r"\LL+", other)
    assert evaluator.match_calls == calls_after_first + 2


def test_match_column_accepts_ast_string_and_compiled_forms():
    column = DictionaryColumn.from_values(["ab"])
    evaluator = PatternEvaluator()
    as_string = evaluator.match_column(r"\LL+", column)
    as_compiled = evaluator.match_column(compile_pattern(r"\LL+"), column)
    as_ast = evaluator.match_column(compile_pattern(r"\LL+").pattern, column)
    assert as_string is as_compiled is as_ast


def test_default_evaluator_is_shared():
    assert default_evaluator() is default_evaluator()


def test_match_column_memo_survives_distinct_compiled_instances():
    # The memo is value-keyed: a CompiledPattern compiled outside the
    # compile_pattern caches (as after an lru_cache eviction) still hits.
    column = DictionaryColumn.from_values(["ab", "cd"])
    evaluator = PatternEvaluator()
    first = evaluator.match_column(compile_pattern(r"\LL+"), column)
    fresh_instance = CompiledPattern(r"\LL+")
    assert fresh_instance is not compile_pattern(r"\LL+")
    again = evaluator.match_column(fresh_instance, column)
    assert again is first
    assert evaluator.cache_hits == 1


# --------------------------------------------------------------------------
# Acceptance: at most one match call per (pattern, distinct value)
# --------------------------------------------------------------------------


@pytest.fixture
def match_call_counter(monkeypatch):
    """Count CompiledPattern.match invocations per (pattern, value) pair."""
    counts: Counter = Counter()
    original = CompiledPattern.match

    def counting_match(self, value):
        counts[(self.pattern.to_pattern_string(), value)] += 1
        return original(self, value)

    monkeypatch.setattr(CompiledPattern, "match", counting_match)
    return counts


def _duplicated_relation(copies: int = 40) -> Relation:
    base = [
        ("90001", "Los Angeles"),
        ("90002", "Los Angeles"),
        ("90003", "Los Angeles"),
        ("10001", "New York"),
        ("10002", "New York"),
        ("60601", "Chicago"),
    ]
    return Relation.from_rows(["zip", "city"], base * copies)


def test_pfd_coverage_and_violations_match_once_per_distinct_value(match_call_counter):
    relation = _duplicated_relation()
    pfd = make_pfd(
        "zip",
        "city",
        [
            {"zip": r"{{900}}\D{2}", "city": r"Los\ Angeles"},
            {"zip": r"{{\D{3}}}\D{2}", "city": "⊥"},
        ],
    )
    evaluator = PatternEvaluator()
    coverage = pfd.coverage(relation, evaluator=evaluator)
    violations = pfd.violations(relation, evaluator=evaluator)
    assert coverage == 1.0
    assert violations == []
    assert match_call_counter, "expected the engine to issue match calls"
    # Despite 240 rows and repeated evaluation across tableau rows, coverage,
    # and violations, every (pattern, distinct value) pair is matched at most
    # once — there are only 6 distinct zips and 3 distinct cities.
    for (pattern, value), count in match_call_counter.items():
        assert count == 1, f"{pattern!r} matched {value!r} {count} times"


def test_detection_reuses_discovery_evaluator_cache(match_call_counter):
    from repro.cleaning.detector import detect_errors

    relation = _duplicated_relation()
    relation.set_cell(0, "city", "Los Angelos")
    pfd = make_pfd("zip", "city", [{"zip": r"{{\D{3}}}\D{2}", "city": "⊥"}])
    evaluator = PatternEvaluator()
    pfd.violations(relation, evaluator=evaluator)
    count_after_first = sum(match_call_counter.values())
    report = detect_errors(relation, [pfd], evaluator=evaluator)
    assert report.errors
    # The shared evaluator answers detection entirely from the memo.
    assert sum(match_call_counter.values()) == count_after_first


def test_index_build_extracts_once_per_distinct_value(monkeypatch):
    import repro.dataset.index as index_module

    counts: Counter = Counter()
    original = index_module.extract_parts

    def counting_extract(value, strategy, **kwargs):
        counts[value] += 1
        return original(value, strategy, **kwargs)

    monkeypatch.setattr(index_module, "extract_parts", counting_extract)
    relation = _duplicated_relation()
    index = PatternIndex(relation)
    assert index.attributes  # the index actually indexed something
    for value, count in counts.items():
        assert count == 1, f"extract_parts({value!r}) called {count} times"


def test_index_contents_identical_to_per_row_build():
    """The dictionary-encoded build must index exactly the rows a per-row
    build would: each key's codes expand to the rows whose cell carries it."""
    relation = _duplicated_relation(copies=3)
    index = PatternIndex(relation)
    for attribute in index.attributes:
        attr_index = index.attribute_index(attribute)
        dictionary = relation.dictionary(attribute)
        counts = dictionary.counts()
        for key, codes in attr_index.entries.items():
            assert codes == sorted(codes)
            text, _position = key
            rows = [r for r in range(relation.row_count) if dictionary.codes[r] in codes]
            for row_id in rows:
                assert text in dictionary.value_of_row(row_id)
            assert attr_index.weight(key) == len(rows) == sum(counts[c] for c in codes)
        for code, keys in attr_index.code_parts.items():
            for key in keys:
                assert code in attr_index.entries[key]


# --------------------------------------------------------------------------
# Evaluation equivalence on mutation
# --------------------------------------------------------------------------


def test_pfd_evaluation_sees_mutations_through_cache_invalidation():
    relation = Relation.from_rows(
        ["zip", "city"],
        [("90001", "Los Angeles"), ("90002", "Los Angeles"), ("90003", "Los Angeles")],
    )
    pfd = make_pfd("zip", "city", [{"zip": r"{{900}}\D{2}", "city": r"Los\ Angeles"}])
    evaluator = PatternEvaluator()
    assert pfd.holds_on(relation, evaluator=evaluator)
    relation.set_cell(2, "city", "San Diego")
    violations = pfd.violations(relation, evaluator=evaluator)
    assert len(violations) == 1
    assert violations[0].suspect_cells[0].row_id == 2
    relation.set_cell(2, "city", "Los Angeles")
    assert pfd.holds_on(relation, evaluator=evaluator)
