"""Tests for the column profiler and the inverted pattern index."""

from collections import Counter

import pytest

from repro.dataset.index import PatternIndex
from repro.dataset.profiler import candidate_attributes, profile_column, profile_relation
from repro.dataset.relation import Relation
from repro.dataset.schema import Attribute, AttributeRole, Schema


@pytest.fixture
def mixed_relation():
    rows = []
    for index in range(60):
        zip_code = f"900{index % 100:02d}"
        name = ["John Smith", "Susan Boyle", "Mary Jones"][index % 3]
        gender = ["M", "F", "F"][index % 3]
        amount = f"{index * 3.5:.2f}"
        rows.append((zip_code, name, gender, amount))
    return Relation.from_rows(["zip", "name", "gender", "amount"], rows, name="Mixed")


class TestProfiler:
    def test_zip_column_is_code(self, mixed_relation):
        profile = profile_column(mixed_relation, "zip")
        assert profile.role is AttributeRole.CODE
        assert profile.usable_for_pfd

    def test_amount_column_is_quantitative(self, mixed_relation):
        profile = profile_column(mixed_relation, "amount")
        assert profile.role is AttributeRole.QUANTITATIVE
        assert not profile.usable_for_pfd

    def test_name_column_is_qualitative_tokenized(self, mixed_relation):
        profile = profile_column(mixed_relation, "name")
        assert profile.role is AttributeRole.QUALITATIVE
        assert profile.strategy == "tokenize"

    def test_gender_column_is_categorical_value(self, mixed_relation):
        profile = profile_column(mixed_relation, "gender")
        assert profile.strategy == "value"

    def test_zip_column_uses_ngrams(self, mixed_relation):
        assert profile_column(mixed_relation, "zip").strategy == "ngrams"

    def test_declared_role_wins(self):
        schema = Schema([Attribute("code", AttributeRole.CODE)])
        relation = Relation(schema, {"code": ["12.5", "13.5", "19.0"]})
        assert profile_column(relation, "code").role is AttributeRole.CODE

    def test_table_profile_and_candidates(self, mixed_relation):
        profile = profile_relation(mixed_relation)
        assert set(profile.usable_columns) == {"zip", "name", "gender"}
        assert candidate_attributes(mixed_relation) == list(profile.usable_columns)
        assert profile.column("zip").max_length == 5
        with pytest.raises(KeyError):
            profile.column("missing")

    def test_empty_column(self):
        relation = Relation(Schema(["a"]), {"a": ["", "", ""]})
        profile = profile_column(relation, "a")
        assert not profile.usable_for_pfd


class TestPatternIndex:
    def test_entries_and_ids(self, mixed_relation):
        index = PatternIndex(mixed_relation)
        zip_index = index.attribute_index("zip")
        assert zip_index.weight(("900", 0)) == mixed_relation.row_count
        dictionary = mixed_relation.dictionary("zip")
        assert zip_index.codes(("900", 0)) == list(range(len(dictionary.values)))
        assert index.strategy("zip") == "ngrams"

    def test_quantitative_column_not_indexed(self, mixed_relation):
        index = PatternIndex(mixed_relation)
        assert "amount" not in index.attributes

    def test_frequent_keys_ordering(self, mixed_relation):
        index = PatternIndex(mixed_relation)
        keys = index.frequent_keys("name", minimum_support=10)
        assert keys, "expected frequent name tokens"
        supports = [index.attribute_index("name").weight(key) for key in keys]
        assert supports == sorted(supports, reverse=True)

    def test_substring_pruning_keeps_most_specific(self, mixed_relation):
        pruned = PatternIndex(mixed_relation, prune_substrings=True)
        unpruned = PatternIndex(mixed_relation, prune_substrings=False)
        assert pruned.total_entries() <= unpruned.total_entries()
        # "9" and "90" have exactly the same tuple ids as "900.." prefixes and
        # must have been pruned away in favour of longer entries.
        zip_index = pruned.attribute_index("zip")
        assert ("9", 0) not in zip_index.entries

    def test_keys_for_rows_histogram(self, mixed_relation):
        index = PatternIndex(mixed_relation)
        codes = mixed_relation.dictionary("gender").codes[:4].tolist()  # rows 0-3
        histogram = index.attribute_index("gender").keys_for_rows(Counter(codes))
        assert histogram[("M", 0)] == 2  # rows 0 and 3
        assert histogram[("F", 0)] == 2

    def test_empty_cells_are_skipped(self):
        relation = Relation.from_rows(["a", "b"], [("", "x"), ("ab", "y")])
        index = PatternIndex(relation)
        if "a" in index.attributes:
            empty = relation.dictionary("a").code_of("")
            attr_index = index.attribute_index("a")
            for codes in attr_index.entries.values():
                assert empty not in codes
            assert empty not in attr_index.code_parts
