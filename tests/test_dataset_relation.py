"""Tests for Schema and Relation (repro.dataset)."""

import pytest

from repro.dataset.relation import Relation, concat
from repro.dataset.schema import Attribute, AttributeRole, Schema
from repro.exceptions import SchemaError


class TestSchema:
    def test_basic_construction(self):
        schema = Schema(["zip", "city"], name="Zip")
        assert schema.attribute_names == ("zip", "city")
        assert schema.name == "Zip"
        assert len(schema) == 2
        assert "zip" in schema and "state" not in schema

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_position_and_lookup(self):
        schema = Schema(["a", "b", "c"])
        assert schema.position("b") == 1
        with pytest.raises(SchemaError):
            schema.position("missing")

    def test_roles(self):
        schema = Schema([Attribute("amount", AttributeRole.QUANTITATIVE), "name"])
        assert schema.role("amount") is AttributeRole.QUANTITATIVE
        assert schema.role("name") is AttributeRole.UNKNOWN
        updated = schema.with_role("name", AttributeRole.CODE)
        assert updated.role("name") is AttributeRole.CODE

    def test_project(self):
        schema = Schema(["a", "b", "c"])
        projected = schema.project(["c", "a"])
        assert projected.attribute_names == ("c", "a")

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a", "b"]) != Schema(["b", "a"])
        assert hash(Schema(["a"], name="X")) == hash(Schema(["a"], name="X"))


class TestRelationConstruction:
    def test_from_rows(self):
        relation = Relation.from_rows(["zip", "city"], [("90001", "LA"), ("60601", "Chicago")])
        assert relation.row_count == 2
        assert relation.cell(0, "zip") == "90001"
        assert relation.row(1) == ("60601", "Chicago")

    def test_from_dicts(self):
        rows = [{"a": "1", "b": "x"}, {"a": "2"}]
        relation = Relation.from_dicts(rows)
        assert relation.column("a") == ["1", "2"]
        assert relation.column("b") == ["x", ""]

    def test_from_dicts_without_rows_raises(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts([])

    def test_none_and_numbers_normalized_to_strings(self):
        relation = Relation.from_rows(["a", "b"], [(None, 42)])
        assert relation.cell(0, "a") == ""
        assert relation.cell(0, "b") == "42"

    def test_wrong_row_width_rejected(self):
        relation = Relation(Schema(["a", "b"]))
        with pytest.raises(SchemaError):
            relation.append_rows([["only one"]])

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Relation(Schema(["a", "b"]), {"a": ["1"], "b": []})


class TestRelationOperations:
    @pytest.fixture
    def relation(self):
        return Relation.from_rows(
            ["zip", "city"],
            [("90001", "LA"), ("90002", "LA"), ("60601", "Chicago"), ("", "Nowhere")],
            name="Zip",
        )

    def test_iteration(self, relation):
        assert len(list(relation.iter_rows())) == 4
        assert list(relation.iter_row_dicts())[0] == {"zip": "90001", "city": "LA"}

    def test_set_cell(self, relation):
        relation.set_cell(0, "city", "Los Angeles")
        assert relation.cell(0, "city") == "Los Angeles"

    def test_copy_is_independent(self, relation):
        clone = relation.copy()
        clone.set_cell(0, "city", "X")
        assert relation.cell(0, "city") == "LA"

    def test_project(self, relation):
        projected = relation.project(["city"])
        assert projected.attribute_names == ("city",)
        assert projected.row_count == relation.row_count

    def test_select_and_filter(self, relation):
        subset = relation.select_rows([0, 2])
        assert subset.row_count == 2
        assert subset.cell(1, "city") == "Chicago"
        filtered = relation.filter_rows(lambda row: row["city"] == "LA")
        assert filtered.row_count == 2

    def test_sample_rows_deterministic(self, relation):
        first = relation.sample_rows(2, seed=1)
        second = relation.sample_rows(2, seed=1)
        assert list(first.iter_rows()) == list(second.iter_rows())

    def test_distinct_and_counts(self, relation):
        assert relation.distinct_values("city") == ["LA", "Chicago", "Nowhere"]
        assert relation.value_counts("city")["LA"] == 2

    def test_active_domain_excludes_empty(self, relation):
        assert relation.active_domain("zip") == {"90001", "90002", "60601"}

    def test_head_and_pretty(self, relation):
        assert len(relation.head(2)) == 2
        rendering = relation.pretty(limit=2)
        assert "zip" in rendering and "more rows" in rendering

    def test_declare_role(self, relation):
        relation.declare_role("zip", AttributeRole.CODE)
        assert relation.schema.role("zip") is AttributeRole.CODE

    def test_rename(self, relation):
        renamed = relation.rename("Other")
        assert renamed.name == "Other"
        assert relation.name == "Zip"


class TestConcat:
    def test_concat(self):
        first = Relation.from_rows(["a"], [("1",)])
        second = Relation.from_rows(["a"], [("2",), ("3",)])
        merged = concat([first, second])
        assert merged.row_count == 3

    def test_concat_schema_mismatch(self):
        first = Relation.from_rows(["a"], [("1",)])
        second = Relation.from_rows(["b"], [("2",)])
        with pytest.raises(SchemaError):
            concat([first, second])

    def test_concat_empty_list(self):
        with pytest.raises(SchemaError):
            concat([])
