"""The :class:`~repro.session.CleaningSession` facade.

Covers the tentpole guarantees: memoized stages sharing one engine state,
cross-stage cache reuse observable through :class:`SessionStats`, mutation
invalidation riding the relation's version counter, and equivalence of the
free-function convenience wrappers with the underlying stage classes.
"""

from __future__ import annotations

import pytest

from repro import (
    CleaningSession,
    DiscoveryConfig,
    PatternEvaluator,
    Relation,
    detect_errors,
    discover_pfds,
    repair_errors,
    validate_pfds,
    write_csv,
)
from repro.cleaning.detector import ErrorDetector
from repro.cleaning.repair import Repairer
from repro.datagen.suite import build_table
from repro.discovery.pfd_discovery import PFDDiscoverer
from repro.exceptions import ReproError
from repro.session import SessionStats, ValidationReport


def _zip_rows(errors: int = 0):
    rows = [(f"{90000 + i:05d}", "Los Angeles") for i in range(8)] + [
        (f"{10000 + i:05d}", "New York") for i in range(8)
    ]
    for i in range(errors):
        rows.append((f"{90100 + i:05d}", "New York"))
    return rows


@pytest.fixture
def session() -> CleaningSession:
    return CleaningSession.from_rows(
        ["zip", "city"], _zip_rows(), name="zips",
        config=DiscoveryConfig(min_support=4),
    )


class TestStages:
    def test_stages_chain_and_memoize(self, session):
        profile = session.profile()
        result = session.discover()
        report = session.detect()
        repaired = session.repair()
        validation = session.validate()
        assert session.profile() is profile
        assert session.discover() is result
        assert session.detect() is report
        assert session.repair() is repaired
        assert session.validate() is validation
        assert session.stats().stages == (
            "profile", "discover", "detect", "repair", "validate"
        )

    def test_detect_defaults_to_discovered_pfds(self, session):
        result = session.discover()
        report = session.detect()
        explicit = session.detect(result.pfds)
        assert explicit.error_cells == report.error_cells

    def test_discover_with_explicit_config_feeds_noarg_stages(self):
        session = CleaningSession.from_rows(["zip", "city"], _zip_rows(1), name="zips")
        result = session.discover(DiscoveryConfig(min_support=4))
        # A no-argument discover() returns the *last* discovery, whatever
        # config produced it — so detect()'s default PFDs match.
        assert session.discover() is result
        assert session.pfds == result.pfds
        assert len(session.detect()) > 0

    def test_different_config_rediscovers_and_drops_downstream(self, session):
        first = session.discover()
        report = session.detect()
        validation = session.validate()
        second = session.discover(DiscoveryConfig(min_support=2))
        assert second is not first
        # downstream default-PFD memos were dropped with the old discovery
        assert session.detect() is not report
        assert session.validate() is not validation
        assert len(session.validate()) == len(second.pfds)

    def test_repair_reuses_memoized_detection(self, session):
        report = session.detect()
        match_calls = session.evaluator.match_calls
        result = session.repair()
        # Repairing consumed the memoized report: no re-detection on the
        # session's relation (the verify pass runs on the repaired copy).
        assert result.remaining_error_cells is not None
        assert report.error_cells >= result.repaired_cells
        assert session.relation.partitions  # session relation untouched
        assert session.evaluator.match_calls >= match_calls

    def test_repair_does_not_mutate_session_relation(self):
        session = CleaningSession.from_rows(
            ["zip", "city"], _zip_rows(1), name="zips",
            config=DiscoveryConfig(min_support=4),
        )
        before = list(session.relation.column("city"))
        result = session.repair()
        assert list(session.relation.column("city")) == before
        assert result.relation is not session.relation

    def test_validate_reports_per_pfd(self, session):
        session.discover()
        report = session.validate()
        assert isinstance(report, ValidationReport)
        assert len(report) == len(session.pfds)
        assert report.holding_count <= len(report)
        assert "PFD(s) hold" in report.summary()

    def test_profile_feeds_discovery(self, session):
        profile = session.profile()
        session.discover()
        # discover() reused the memoized profile instead of re-profiling
        assert session.profile() is profile

    def test_from_csv_roundtrip(self, tmp_path):
        relation = Relation.from_rows(["zip", "city"], _zip_rows(), name="zips")
        path = tmp_path / "zips.csv"
        write_csv(relation, path)
        session = CleaningSession.from_csv(path, config=DiscoveryConfig(min_support=4))
        assert session.relation.row_count == relation.row_count
        assert session.discover().pfds


class TestCrossStageCacheReuse:
    """The facade win: discover → detect shares one primed engine state."""

    def test_detect_after_discover_is_free_of_new_engine_work(self, session):
        # Pinned serial: the hit/miss counters describe the parent-process
        # caches, which sharded stages under REPRO_WORKERS would bypass.
        session.workers = 1
        result = session.discover()
        dependency = result.dependency_for(("zip",), "city")
        assert dependency is not None and dependency.is_variable
        before = session.stats()
        session.detect([dependency.pfd])
        after = session.stats()
        # Zero additional pattern-set compilations...
        assert after.pattern_set_compilations == before.pattern_set_compilations
        # ...and zero new partition builds: every leaf is served from cache.
        assert after.partition_misses == before.partition_misses
        assert after.partition_hits > before.partition_hits

    def test_stats_snapshots_are_immutable_and_structured(self, session):
        session.discover()
        import dataclasses

        stats = session.stats()
        assert isinstance(stats, SessionStats)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.match_calls = 0  # type: ignore[misc]
        doc = stats.to_json_dict()
        assert doc["relation"] == "zips"
        assert doc["partition_misses"] == stats.partition_misses
        assert "pattern-set compilations" in stats.summary()
        assert "partition cache:" in stats.summary()


class TestMutationInvalidation:
    def test_set_cell_invalidates_cached_stage_results(self, session):
        result = session.discover()
        report = session.detect()
        session.relation.set_cell(0, "city", "New York")
        assert session.discover() is not result
        assert session.detect() is not report

    def test_append_row_invalidates_cached_stage_results(self, session):
        result = session.discover()
        report = session.detect()
        validation = session.validate()
        session.relation.append_rows([("90200", "Los Angeles")])
        assert session.discover() is not result
        assert session.detect() is not report
        assert session.validate() is not validation

    def test_mutated_relation_changes_detection_outcome(self):
        session = CleaningSession.from_rows(
            ["zip", "city"], _zip_rows(), name="zips",
            config=DiscoveryConfig(min_support=4),
        )
        session.discover()
        clean = session.detect()
        assert len(clean) == 0
        session.relation.set_cell(0, "city", "New York")
        dirty = session.detect()
        assert len(dirty) > 0

    def test_relation_version_counts_mutations(self):
        relation = Relation.from_rows(["a", "b"], [("1", "2")])
        version = relation.version
        relation.set_cell(0, "a", "3")
        assert relation.version == version + 1
        relation.append_rows([("4", "5")])
        assert relation.version == version + 2


class TestWrapperEquivalence:
    """discover_pfds / detect_errors / repair_errors == the session path."""

    @pytest.mark.parametrize("table_id", ["T2", "T14"])
    def test_wrappers_match_direct_stage_classes(self, table_id):
        table = build_table(table_id, scale=0.15)
        relation = table.relation
        config = DiscoveryConfig(min_support=4, min_coverage=0.05)

        wrapped = discover_pfds(relation, config)
        direct = PFDDiscoverer(config, evaluator=PatternEvaluator()).discover(relation)
        assert wrapped.dependency_keys == direct.dependency_keys
        assert wrapped.pfds == direct.pfds
        assert wrapped.candidate_count == direct.candidate_count
        assert wrapped.index_entries == direct.index_entries

        pfds = wrapped.pfds
        if not pfds:
            pytest.skip(f"no PFDs discovered on {table_id} at this scale")

        wrapped_report = detect_errors(relation, pfds)
        direct_report = ErrorDetector(pfds, evaluator=PatternEvaluator()).detect(relation)
        assert wrapped_report.error_cells == direct_report.error_cells
        assert wrapped_report.errors == direct_report.errors

        wrapped_repair = repair_errors(relation, pfds)
        direct_repair = Repairer(pfds, evaluator=PatternEvaluator()).repair(relation)
        assert wrapped_repair.repairs == direct_repair.repairs
        assert wrapped_repair.unresolved == direct_repair.unresolved
        assert wrapped_repair.remaining_error_cells is None  # verify off by default

    def test_repair_errors_verify_flag(self):
        relation = Relation.from_rows(["zip", "city"], _zip_rows(1), name="zips")
        pfds = discover_pfds(relation, DiscoveryConfig(min_support=4)).pfds
        verified = repair_errors(relation, pfds, verify=True)
        assert verified.remaining_error_cells is not None

    def test_validate_pfds_wrapper(self):
        relation = Relation.from_rows(["zip", "city"], _zip_rows(), name="zips")
        pfds = discover_pfds(relation, DiscoveryConfig(min_support=4)).pfds
        report = validate_pfds(relation, pfds)
        assert len(report) == len(pfds)
        with pytest.raises(ReproError):
            validate_pfds(relation, [])
