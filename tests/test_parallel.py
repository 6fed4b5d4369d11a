"""Parallel execution pins: sharded discovery vs the serial path.

The contract of :mod:`repro.engine.parallel` is *bit-identical* results at
any worker count: ``workers=2..4`` must reproduce the ``workers=1`` output
exactly — dependencies, candidate counts, and the violations, errors and
repairs found with them — cold and after ``append_rows`` deltas.
``workers=1`` (the default) must never create a pool or touch a process,
and detection, validation and repair never use the pool at any worker
count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cleaning.detector import ErrorDetector
from repro.discovery.config import DiscoveryConfig
from repro.discovery.pfd_discovery import discover_pfds
from repro.dataset.relation import Relation
from repro.engine import parallel as parallel_module
from repro.engine.parallel import (
    ParallelExecutor,
    chunk_round_robin,
    default_start_method,
    resolve_workers,
    snapshot_relation,
)
from repro.exceptions import DiscoveryError, ReproError
from repro.session import CleaningSession

_SCHEMA = ["x", "y", "z"]
_CONFIG = DiscoveryConfig(min_support=2, min_coverage=0.05, max_lhs_size=2)

_cells = st.text(alphabet="ab1 ", max_size=3)
_tables = st.lists(st.tuples(_cells, _cells, _cells), min_size=0, max_size=25)
_batches = st.lists(st.tuples(_cells, _cells, _cells), min_size=1, max_size=8)


def _dirty_rows():
    """A table with discoverable PFDs and a few planted violations."""
    rows = [
        (f"{90000 + i % 16:05d}", "Los Angeles" if i % 16 < 8 else "San Diego", f"G{i % 4}")
        for i in range(160)
    ]
    rows[3] = ("90003", "Las Angeles", "G3")
    rows[40] = ("90008", "Los Angeles", "G0")
    return rows


def _discovery_fingerprint(result):
    return [
        (d.lhs, d.rhs, d.coverage, d.support, d.is_variable, d.pfd.tableau)
        for d in result.dependencies
    ]


# -- the workers= knob ---------------------------------------------------------


def test_resolve_workers_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(None) == 1


def test_resolve_workers_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert resolve_workers() == 4
    assert resolve_workers(2) == 2
    assert resolve_workers(1) == 1


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_resolve_workers_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("REPRO_WORKERS", value)
    with pytest.raises(ValueError):
        resolve_workers()


def test_resolve_workers_rejects_non_positive():
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_discovery_config_validates_workers():
    with pytest.raises(DiscoveryError):
        DiscoveryConfig(workers=0)
    assert DiscoveryConfig(workers=3).workers == 3


def test_session_validates_workers():
    relation = Relation.from_rows(_SCHEMA, [("a", "b", "c")])
    with pytest.raises(ReproError):
        CleaningSession(relation, workers=0)


def test_default_start_method_is_available():
    import multiprocessing

    assert default_start_method() in multiprocessing.get_all_start_methods()


def test_chunk_round_robin_covers_everything_in_order_tags():
    chunks = chunk_round_robin(list(range(10)), 3)
    assert sorted(item for chunk in chunks for item in chunk) == list(range(10))
    assert all(chunks)
    assert chunk_round_robin([], 4) == []
    assert chunk_round_robin([1, 2], 8) == [[1], [2]]


def test_snapshot_roundtrip_restores_identical_engine_state():
    relation = Relation.from_rows(_SCHEMA, _dirty_rows()[:40])
    snapshot = snapshot_relation(relation)
    restored = parallel_module._restore_relation(snapshot)
    assert list(restored.iter_rows()) == list(relation.iter_rows())
    for name in _SCHEMA:
        assert restored.dictionary(name).values == relation.dictionary(name).values
        assert list(restored.dictionary(name).codes) == list(relation.dictionary(name).codes)


# -- workers=1 must bypass the pool entirely -----------------------------------


class _PoolBan:
    def __init__(self, *args, **kwargs):
        raise AssertionError("workers=1 must never construct a process pool")


def test_serial_paths_create_no_pool(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _PoolBan)
    relation = Relation.from_rows(_SCHEMA, _dirty_rows())
    session = CleaningSession(relation, config=_CONFIG)
    result = session.discover()
    report = session.detect()
    session.repair()
    assert result.dependencies and report.errors
    # Explicit workers=1 likewise, even when the env asks for more.
    monkeypatch.setenv("REPRO_WORKERS", "3")
    explicit = CleaningSession(
        Relation.from_rows(_SCHEMA, _dirty_rows()), config=_CONFIG, workers=1
    )
    explicit.discover()
    explicit.detect()
    assert explicit.stats().pool_size == 0


def test_detection_stages_never_use_the_pool(monkeypatch):
    relation = Relation.from_rows(_SCHEMA, _dirty_rows())
    with CleaningSession(relation, config=_CONFIG, workers=2) as session:
        pfds = session.discover().pfds
        assert len(pfds) > 1
        pooled = session.stats()
        assert pooled.tasks_dispatched > 0
        session.append([("90001", "Las Angeles", "G1")])
        session.detect_changed()
        session.detect()
        session.validate()
        session.repair()
        after = session.stats()
        assert after.bytes_broadcast == pooled.bytes_broadcast
        assert after.tasks_dispatched == pooled.tasks_dispatched
    # A bare detector never builds a pool, even when the environment asks
    # for workers.
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _PoolBan)
    assert ErrorDetector(pfds).detect(relation).errors


def test_parallel_paths_do_use_the_pool(monkeypatch):
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _PoolBan)
    relation = Relation.from_rows(_SCHEMA, _dirty_rows())
    session = CleaningSession(relation, config=_CONFIG, workers=2)
    with pytest.raises(AssertionError, match="never construct"):
        session.discover()


# -- bit-identical pins --------------------------------------------------------


@settings(max_examples=6, deadline=None)
@given(rows=_tables, batch=_batches, workers=st.integers(min_value=2, max_value=4))
def test_discover_detect_parity_random_tables(rows, batch, workers):
    serial = CleaningSession.from_rows(_SCHEMA, rows, config=_CONFIG)
    with CleaningSession.from_rows(
        _SCHEMA, rows, config=_CONFIG, workers=workers
    ) as parallel:
        assert _discovery_fingerprint(serial.discover()) == _discovery_fingerprint(
            parallel.discover()
        )
        assert serial.discover().candidate_count == parallel.discover().candidate_count
        assert (
            serial.discover().candidates_per_level
            == parallel.discover().candidates_per_level
        )
        assert serial.discover().index_entries == parallel.discover().index_entries
        serial_report = serial.detect()
        parallel_report = parallel.detect()
        assert serial_report.errors == parallel_report.errors
        assert serial_report.violations == parallel_report.violations
        # After an append delta the pool is rebound and stays bit-identical.
        serial.append(batch)
        parallel.append(batch)
        serial_delta = serial.detect_new()
        parallel_delta = parallel.detect_new()
        assert serial_delta.errors == parallel_delta.errors
        assert serial_delta.violations == parallel_delta.violations


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_clean_pipeline_parity_dirty_table(workers):
    serial = CleaningSession.from_rows(_SCHEMA, _dirty_rows(), config=_CONFIG)
    with CleaningSession.from_rows(
        _SCHEMA, _dirty_rows(), config=_CONFIG, workers=workers
    ) as parallel:
        assert _discovery_fingerprint(serial.discover()) == _discovery_fingerprint(
            parallel.discover()
        )
        serial_report = serial.detect()
        parallel_report = parallel.detect()
        assert serial_report.errors == parallel_report.errors
        assert serial_report.violations == parallel_report.violations
        assert serial_report.errors, "the planted violations must be detected"
        serial_repair = serial.repair()
        parallel_repair = parallel.repair()
        assert serial_repair.repairs == parallel_repair.repairs
        assert list(serial_repair.relation.iter_rows()) == list(
            parallel_repair.relation.iter_rows()
        )
        assert serial_repair.remaining_error_cells == parallel_repair.remaining_error_cells


def test_wrapper_functions_accept_workers():
    relation = Relation.from_rows(_SCHEMA, _dirty_rows())
    serial_result = discover_pfds(relation, _CONFIG)
    parallel_result = discover_pfds(
        Relation.from_rows(_SCHEMA, _dirty_rows()), _CONFIG, workers=2
    )
    assert _discovery_fingerprint(serial_result) == _discovery_fingerprint(parallel_result)


def test_env_override_forces_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    serial = CleaningSession.from_rows(
        _SCHEMA, _dirty_rows(), config=_CONFIG, workers=1
    )
    with CleaningSession.from_rows(_SCHEMA, _dirty_rows(), config=_CONFIG) as parallel:
        assert parallel._workers_for() == 2
        assert _discovery_fingerprint(serial.discover()) == _discovery_fingerprint(
            parallel.discover()
        )
        assert serial.detect().errors == parallel.detect().errors
        assert parallel.stats().pool_size == 2


# -- executor lifecycle and stats ---------------------------------------------


def test_executor_rebinds_on_relation_version_change():
    relation = Relation.from_rows(_SCHEMA, _dirty_rows())
    with CleaningSession(relation, config=_CONFIG, workers=2) as session:
        session.discover()
        stats_before = session.stats()
        assert stats_before.pool_size == 2
        session.append([("90001", "Los Angeles", "G1")])
        session.invalidate()
        session.discover()
        stats_after = session.stats()
        # The append bumped the relation version: re-discovery broadcast anew.
        assert stats_after.bytes_broadcast > stats_before.bytes_broadcast
        assert stats_after.tasks_dispatched > stats_before.tasks_dispatched


def test_session_stats_surface_parallel_counters():
    with CleaningSession.from_rows(
        _SCHEMA, _dirty_rows(), config=_CONFIG, workers=2
    ) as session:
        session.discover()
        session.detect()
        stats = session.stats()
        assert stats.workers == 2
        assert stats.pool_size == 2
        assert stats.tasks_dispatched > 0
        assert stats.bytes_broadcast > 0
        stages = dict(stats.parallel_stage_seconds)
        assert set(stages) == {"discover"}
        assert stages["discover"] >= 0.0
        assert "parallel:" in stats.summary()
        doc = stats.to_json_dict()
        assert doc["workers"] == 2
        assert doc["pool_size"] == 2
        assert doc["tasks_dispatched"] == stats.tasks_dispatched
        assert doc["bytes_broadcast"] == stats.bytes_broadcast
        assert set(doc["parallel_stage_seconds"]) == set(stages)


def test_serial_session_stats_report_no_pool(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    session = CleaningSession.from_rows(_SCHEMA, _dirty_rows(), config=_CONFIG)
    session.discover()
    stats = session.stats()
    assert stats.workers == 1
    assert stats.pool_size == 0
    assert stats.tasks_dispatched == 0
    assert "parallel:" not in stats.summary()


def test_close_is_idempotent_and_session_recovers():
    with CleaningSession.from_rows(
        _SCHEMA, _dirty_rows(), config=_CONFIG, workers=2
    ) as session:
        first = session.discover()
        session.close()
        session.close()
        report = session.detect()
        assert report.violations
        assert first.dependencies
        # The next parallel discovery simply re-broadcasts.
        session.invalidate()
        assert session.discover().dependencies == first.dependencies
        assert session.stats().pool_size == 2


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="exercises the spawn fallback only where fork is also available",
)
def test_spawn_start_method_parity():
    serial = CleaningSession.from_rows(_SCHEMA, _dirty_rows(), config=_CONFIG)
    with CleaningSession.from_rows(
        _SCHEMA, _dirty_rows(), config=_CONFIG, workers=2
    ) as parallel:
        parallel._executor = ParallelExecutor(2, start_method="spawn")
        assert _discovery_fingerprint(serial.discover()) == _discovery_fingerprint(
            parallel.discover()
        )
        assert serial.detect().errors == parallel.detect().errors


# -- CLI -----------------------------------------------------------------------


def test_cli_discover_accepts_workers(tmp_path, capsys):
    import csv as csv_module

    from repro.cli import main

    path = tmp_path / "table.csv"
    with open(path, "w", newline="") as handle:
        writer = csv_module.writer(handle)
        writer.writerow(_SCHEMA)
        writer.writerows(_dirty_rows())
    exit_code = main(
        ["discover", str(path), "--min-support", "2", "--min-coverage", "0.05",
         "--workers", "2", "--stats"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "PFD discovery" in captured.out
    assert "parallel: 2 worker(s)" in captured.out
