"""ScenarioSpec: declarative tables, error injection, and CRUD streams.

The scenario suite replaces hand-rolled generators with schema-driven specs.
Pinned here: spec validation, dict round-trips, deterministic builds, that
planted dependencies genuinely hold before error injection, the op-mix of
the mutation stream, the four-shape scenario matrix, and the CLI
``scenario`` / ``update`` / ``delete`` subcommands that consume the same
machinery.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main as cli_main
from repro.datagen.scenario import (
    SCENARIO_MATRIX,
    ColumnSpec,
    ErrorProfile,
    OpMix,
    ScenarioSpec,
    load_scenario,
)
from repro.dataset.csvio import write_csv
from repro.dataset.mutations import DeleteOp, UpdateOp, UpsertOp
from repro.dataset.relation import Relation
from repro.exceptions import ReproError

_CLEAN_SPEC = ScenarioSpec(
    name="clean",
    rows=120,
    seed=7,
    columns=(
        ColumnSpec(name="code", pattern="@@###", cardinality=30),
        ColumnSpec(name="region", pattern="R#", cardinality=5,
                   determined_by="code", key_prefix=2),
    ),
    mix=OpMix(update=0.7, append=0.2, delete=0.1),
)


class TestSpecValidation:
    def test_column_needs_pattern_or_domain(self):
        with pytest.raises(ReproError):
            ColumnSpec(name="x")
        with pytest.raises(ReproError):
            ColumnSpec(name="x", pattern="#", domain=("a",))

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSpec(
                name="dup",
                columns=(
                    ColumnSpec(name="a", pattern="#"),
                    ColumnSpec(name="a", pattern="#"),
                ),
            )

    def test_unknown_determinant_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSpec(
                name="bad",
                columns=(ColumnSpec(name="a", pattern="#", determined_by="ghost"),),
            )

    def test_self_determination_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSpec(
                name="self",
                columns=(ColumnSpec(name="a", pattern="#", determined_by="a"),),
            )

    def test_zero_op_mix_rejected(self):
        with pytest.raises(ReproError):
            OpMix(update=0, append=0, delete=0)

    def test_error_rate_bounds(self):
        with pytest.raises(ReproError):
            ErrorProfile(rate=1.5)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ReproError):
            ScenarioSpec.from_dict({"name": "x", "columns": [], "bogus": 1})


class TestBuild:
    def test_build_is_deterministic(self):
        a = _CLEAN_SPEC.build()
        b = _CLEAN_SPEC.build()
        assert list(a.relation.iter_rows()) == list(b.relation.iter_rows())

    def test_dict_round_trip_builds_identically(self):
        clone = ScenarioSpec.from_dict(_CLEAN_SPEC.to_dict())
        assert list(clone.build().relation.iter_rows()) == list(
            _CLEAN_SPEC.build().relation.iter_rows()
        )

    def test_planted_dependency_holds_on_clean_build(self):
        table = _CLEAN_SPEC.build()
        mapping = {}
        for row in table.relation.iter_rows():
            code, region = row
            assert mapping.setdefault(code[:2], region) == region
        assert table.true_dependencies == {(("code",), ("region",))}
        assert table.error_cells == {}

    def test_error_injection_records_originals(self):
        spec = ScenarioSpec(
            name="dirty",
            rows=200,
            seed=3,
            columns=(
                ColumnSpec(name="k", pattern="@@##", cardinality=40),
                ColumnSpec(name="v", pattern="V#", cardinality=6, determined_by="k"),
            ),
            errors=ErrorProfile(rate=0.1, kind="swap"),
        )
        table = spec.build()
        assert table.error_cells
        for cell, original in table.error_cells.items():
            assert table.relation.cell(cell.row_id, cell.attribute) != original
        clean = table.clean_relation()
        mapping = {}
        for row in clean.iter_rows():
            assert mapping.setdefault(row[0], row[1]) == row[1]

    def test_scale_shrinks_rows(self):
        assert _CLEAN_SPEC.build(scale=0.5).relation.row_count == 60

    def test_skewed_column_repeats_head_values(self):
        spec = ScenarioSpec(
            name="skew",
            rows=300,
            seed=11,
            columns=(ColumnSpec(name="a", pattern="@@@@", cardinality=50, skew=2.0),),
        )
        relation = spec.build().relation
        counts = {}
        for row in relation.iter_rows():
            counts[row[0]] = counts.get(row[0], 0) + 1
        assert max(counts.values()) > 300 // 50 * 3  # far above uniform


class TestMutationStream:
    def test_stream_is_deterministic(self):
        table = _CLEAN_SPEC.build()
        a = list(_CLEAN_SPEC.mutation_stream(table.relation, operations=30))
        b = list(_CLEAN_SPEC.mutation_stream(table.relation, operations=30))
        assert a == b

    def test_stream_respects_op_mix(self):
        table = _CLEAN_SPEC.build()
        kinds = {"update": 0, "append": 0, "delete": 0}
        for batch in _CLEAN_SPEC.mutation_stream(
            table.relation, operations=300, batch_size=10
        ):
            for op in batch:
                if isinstance(op, UpdateOp):
                    kinds["update"] += 1
                elif isinstance(op, DeleteOp):
                    kinds["delete"] += 1
                else:
                    assert isinstance(op, UpsertOp)
                    kinds["append"] += 1
        assert sum(kinds.values()) == 300
        assert kinds["update"] > kinds["append"] > kinds["delete"] > 0

    def test_deleted_rows_are_never_retargeted(self):
        table = _CLEAN_SPEC.build()
        deleted = set()
        for batch in _CLEAN_SPEC.mutation_stream(table.relation, operations=200):
            for op in batch:
                if isinstance(op, UpdateOp):
                    assert op.row_id not in deleted
                elif isinstance(op, DeleteOp):
                    for row_id in op.row_ids:
                        assert row_id not in deleted
                        deleted.add(row_id)

    def test_clean_stream_applies_cleanly(self):
        """A zero-error-rate stream keeps the planted dependency intact."""
        table = _CLEAN_SPEC.build()
        relation = table.relation
        for batch in _CLEAN_SPEC.mutation_stream(relation, operations=60, batch_size=10):
            relation.apply(batch)
        mapping = {}
        for row in relation.iter_rows():
            code, region = row
            if not code:
                continue  # tombstoned
            assert mapping.setdefault(code[:2], region) == region

    def test_batched_stream_only_targets_pre_batch_rows(self):
        """Updates and deletes never target a row appended earlier in the
        same batch, so every batch of a 70/20/10 stream applies."""
        spec = SCENARIO_MATRIX["tall_narrow"]
        relation = spec.build(scale=0.02).relation
        applied = 0
        for batch in spec.mutation_stream(relation, operations=400, batch_size=20):
            before = relation.row_count
            for op in batch:
                if isinstance(op, UpdateOp):
                    assert op.row_id < before
                elif isinstance(op, DeleteOp):
                    assert all(row_id < before for row_id in op.row_ids)
            relation.apply(batch)
            applied += len(batch)
        assert applied == 400

    def test_append_only_stream_is_independent_of_batch_size(self):
        spec = dataclasses.replace(_CLEAN_SPEC, mix=OpMix(update=0.0, append=1.0))
        relation = spec.build().relation

        def flat(batch_size):
            return [
                op
                for batch in spec.mutation_stream(relation, operations=30, batch_size=batch_size)
                for op in batch
            ]

        assert flat(1) == flat(10)


class TestScenarioMatrix:
    def test_matrix_has_the_four_canonical_shapes(self):
        assert set(SCENARIO_MATRIX) == {
            "tall_narrow", "wide_sparse", "high_cardinality", "adversarial_free_start",
        }

    @pytest.mark.parametrize("name", sorted(SCENARIO_MATRIX))
    def test_each_shape_builds_and_is_update_heavy(self, name):
        spec = SCENARIO_MATRIX[name]
        table = spec.build(scale=0.1)
        assert table.relation.row_count >= 1
        assert spec.mix.weights()[0] == pytest.approx(0.7)
        assert table.true_dependencies


class TestLoadScenario:
    def test_load_json_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_CLEAN_SPEC.to_dict()), encoding="utf-8")
        spec = load_scenario(path)
        assert spec.name == "clean"
        assert list(spec.build().relation.iter_rows()) == list(
            _CLEAN_SPEC.build().relation.iter_rows()
        )

    def test_load_yaml_spec(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(_CLEAN_SPEC.to_dict()), encoding="utf-8")
        assert load_scenario(path).name == "clean"

    def test_bad_json_is_repro_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReproError):
            load_scenario(path)


class TestCliScenario:
    def test_clean_scenario_exits_zero(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_CLEAN_SPEC.to_dict()), encoding="utf-8")
        report_path = tmp_path / "report.json"
        exit_code = cli_main(
            ["scenario", str(path), "--operations", "30", "--batch-size", "10",
             "--min-support", "4", "--report", str(report_path)]
        )
        assert exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["clean"] is True
        assert report["operations"] == 30
        assert sum(report["op_counts"].values()) == 30

    def test_matrix_name_resolves(self, tmp_path):
        report_path = tmp_path / "report.json"
        exit_code = cli_main(
            ["scenario", "tall_narrow", "--scale", "0.1", "--operations", "10",
             "--min-support", "4", "--report", str(report_path)]
        )
        assert exit_code in (0, 1)  # dirt injection may or may not surface
        report = json.loads(report_path.read_text())
        assert report["scenario"] == "tall_narrow"


class TestCliUpdateDelete:
    @pytest.fixture
    def base_csv(self, tmp_path):
        rows = [(f"{90000 + i:05d}", "Los Angeles") for i in range(4)] * 4
        relation = Relation.from_rows(["zip", "city"], rows, name="base")
        path = tmp_path / "base.csv"
        write_csv(relation, path)
        return path

    def test_update_reports_delta_errors(self, tmp_path, base_csv):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps({"cells": [[0, "city", "Las Angeles"]]}))
        report_path = tmp_path / "delta.json"
        exit_code = cli_main(
            ["update", str(base_csv), "--ops", str(ops),
             "--min-support", "2", "--noise", "0.1",
             "--report", str(report_path)]
        )
        assert exit_code == 1
        report = json.loads(report_path.read_text())
        assert report["kind"] == "update"
        assert report["rows_updated"] == 1
        assert report["error_rows"] == [0]
        assert report["errors"][0]["suggested"] == "Los Angeles"
        assert report["clean"] is False

    def test_update_via_cell_flags(self, tmp_path, base_csv):
        report_path = tmp_path / "delta.json"
        exit_code = cli_main(
            ["update", str(base_csv), "--cell", "0", "city", "Los Angeles",
             "--min-support", "2", "--report", str(report_path)]
        )
        assert exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["rows_updated"] == 0  # no-op write
        assert report["clean"] is True

    def test_update_without_ops_exits_two(self, base_csv):
        assert cli_main(["update", str(base_csv)]) == 2

    def test_delete_rows_is_clean_delta(self, tmp_path, base_csv):
        report_path = tmp_path / "delta.json"
        merged = tmp_path / "after.csv"
        exit_code = cli_main(
            ["delete", str(base_csv), "--rows", "1,3",
             "--min-support", "2",
             "--output", str(merged), "--report", str(report_path)]
        )
        assert exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["kind"] == "delete"
        assert report["rows_deleted"] == 2
        assert report["requested_rows"] == [1, 3]
        assert report["clean"] is True
        lines = merged.read_text().splitlines()
        assert lines[2] == ","  # row 1 tombstoned to empty cells

    def test_delete_bad_rows_exits_two(self, base_csv):
        assert cli_main(["delete", str(base_csv), "--rows", "1,x"]) == 2
        assert cli_main(["delete", str(base_csv), "--rows", "999"]) == 2
