"""CRUD-delta benchmark: ``apply`` + ``detect_changed`` on a 1% update-heavy
stream vs wholesale invalidation + full re-detect.

Models the mutation workflow the unified batch API exists for: a wide,
heavily duplicated table has been cleaned once (engine caches warm), an
update-heavy batch arrives (~1% of rows rewritten in place, two of them
incorrectly), and the question is what re-validating costs.  The baseline is
what every mutation used to pay before delta maintenance — dropping the
touched caches wholesale and re-detecting over the entire table with cold
dictionaries, masks, and partitions.

Asserted:

* one full update cycle (apply the dirty batch, scope-detect, apply the
  restoring batch, scope-detect) is at least **3×** faster than the
  equivalent two wholesale re-detects, and
* the scoped reports are exact: the dirty half flags precisely the injected
  violations and the restoring half comes back clean.

A second benchmark records the latency of a one-row update +
``detect_changed`` at 12k / 48k / 192k rows (× ``--repro-scale``): with
delta maintenance it should stay near flat as the table grows.  Only the
reports' exactness is asserted; the per-size p50 goes to ``extra_info``.

A third records the same latency against the size of a constant tableau
(10 / 100 / 1,000 rows of the high-cardinality shape, one row per serial
number): a compiled tableau plan should keep it near flat as the tableau
grows.  Again only exactness is asserted.
"""

from __future__ import annotations

import statistics
import time

from repro.cleaning.detector import ErrorDetector
from repro.core.pfd import make_pfd
from repro.dataset.mutations import MutationBatch
from repro.dataset.relation import Relation
from repro.engine.evaluator import PatternEvaluator
from repro.session import CleaningSession

_COLUMNS = ["zip", "city", "state", "areacode", "phone", "county", "country", "uid"]

_REGIONS = [
    ("900", "Los Angeles", "CA", "213", "Los Angeles County"),
    ("941", "San Francisco", "CA", "415", "San Francisco County"),
    ("100", "New York", "NY", "212", "New York County"),
    ("606", "Chicago", "IL", "312", "Cook County"),
    ("770", "Dallas", "TX", "214", "Dallas County"),
    ("331", "Miami", "FL", "305", "Miami-Dade County"),
    ("981", "Seattle", "WA", "206", "King County"),
    ("802", "Denver", "CO", "303", "Denver County"),
]


def _region_row(region_index: int, suffix: int, uid: int) -> tuple[str, ...]:
    prefix, city, state, area, county = _REGIONS[region_index % len(_REGIONS)]
    return (
        f"{prefix}{suffix % 100:02d}",
        city,
        state,
        area,
        f"({area}) 555-{suffix % 10000:04d}",
        county,
        "US",
        f"u{uid:06d}",
    )


def _build_rows(row_count: int) -> list[tuple[str, ...]]:
    return [
        _region_row(uid % len(_REGIONS), uid // len(_REGIONS) % 50, uid)
        for uid in range(row_count)
    ]


_PFDS = [
    make_pfd("zip", "city", [{"zip": r"{{\D{5}}}", "city": "⊥"}]),
    make_pfd("zip", "state", [{"zip": r"{{\D{5}}}", "state": "⊥"}]),
    make_pfd("zip", "county", [{"zip": r"{{\D{5}}}", "county": "⊥"}]),
]


def test_bench_update_stream_beats_wholesale_redetect(benchmark, repro_scale):
    row_count = max(2400, int(64000 * repro_scale))
    rows = _build_rows(row_count)
    stream_size = max(8, row_count // 100)  # the 1% update stream

    # The dirty batch rewrites ~1% of the rows in place, shaped like a real
    # update stream: most rows churn an unconstrained column (a new phone
    # number), a few get a fully consistent different region (their class
    # membership moves, nothing breaks), and the last two get a wrong city
    # for their zip — the injected violations scoped detection must find.
    targets = [(i * 97) % row_count for i in range(stream_size)]
    targets = sorted(set(targets))[:stream_size]
    dirty_cells = []
    restore_cells = []
    violation_targets = targets[-2:]
    for row_id in targets[:4]:
        new_region = _region_row((row_id + 3) % len(_REGIONS), row_id % 50, row_id)
        old_region = rows[row_id]
        for column_index in (0, 1, 2, 3, 5):
            dirty_cells.append((row_id, _COLUMNS[column_index], new_region[column_index]))
            restore_cells.append((row_id, _COLUMNS[column_index], old_region[column_index]))
    for row_id in targets[4:-2]:
        dirty_cells.append((row_id, "phone", f"(999) 555-{row_id % 10000:04d}"))
        restore_cells.append((row_id, "phone", rows[row_id][4]))
    for row_id in violation_targets:
        wrong_city = "San Francisco" if rows[row_id][1] != "San Francisco" else "Denver"
        dirty_cells.append((row_id, "city", wrong_city))
        restore_cells.append((row_id, "city", rows[row_id][1]))

    # The stream arrives as ready-made batches; building them is not the
    # system under test.
    dirty_batch = MutationBatch.update_cells(dirty_cells)
    restore_batch = MutationBatch.update_cells(restore_cells)

    # Pinned serial: this benchmark measures the incremental-cache win, and
    # REPRO_WORKERS would make every timed call pay pool + broadcast setup.
    session = CleaningSession(Relation.from_rows(_COLUMNS, rows, name="wide"), workers=1)
    assert len(session.detect(_PFDS)) == 0, "the base table must start clean"

    def update_cycle():
        """One delta-maintained round trip: dirty 1% of the rows, scope-detect,
        restore them, scope-detect again — state ends where it began."""
        session.apply(dirty_batch)
        dirty_report = session.detect_changed(_PFDS)
        session.apply(restore_batch)
        clean_report = session.detect_changed(_PFDS)
        return dirty_report, clean_report

    def wholesale_cycle():
        """What the same round trip cost pre-delta-maintenance: every mutation
        dropped the touched caches, so each half pays a full re-detect over
        cold dictionaries, masks, and partitions."""
        reports = []
        for _ in range(2):
            cold = session.relation.copy()
            reports.append(
                ErrorDetector(_PFDS, evaluator=PatternEvaluator()).detect(cold)
            )
        return reports

    # Correctness first: the dirty half flags exactly the injected
    # violations, the restoring half heals them.
    dirty_report, clean_report = update_cycle()
    assert {error.cell.row_id for error in dirty_report.errors} == set(violation_targets)
    assert not clean_report.errors

    incremental_seconds = min(_timed(update_cycle)[0] for _ in range(5))
    full_seconds = min(_timed(wholesale_cycle)[0] for _ in range(3))

    speedup = full_seconds / incremental_seconds
    assert speedup >= 3.0, (
        f"a delta-maintained 1% update stream must be >=3x faster than "
        f"wholesale invalidation + full re-detect, got {speedup:.1f}x "
        f"({incremental_seconds * 1e3:.2f} ms vs {full_seconds * 1e3:.2f} ms "
        f"on {row_count} rows, {len(dirty_cells)} cell writes per half)"
    )

    benchmark.extra_info["rows"] = row_count
    benchmark.extra_info["updated_rows"] = len(targets)
    benchmark.extra_info["cell_writes_per_half"] = len(dirty_cells)
    benchmark.extra_info["incremental_seconds"] = round(incremental_seconds, 6)
    benchmark.extra_info["wholesale_seconds"] = round(full_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.pedantic(update_cycle, rounds=3, iterations=1)


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def test_bench_single_row_update_latency_sweep(benchmark, repro_scale):
    """p50 of one-row update + ``detect_changed`` per table size.

    Each timed op writes one row: a wrong city for its zip (the report must
    flag exactly that row), then the original city back (the report must be
    clean).  Flatness across sizes is recorded, not asserted.
    """
    sizes = [max(600, int(size * repro_scale)) for size in (12000, 48000, 192000)]
    for row_count in sizes:
        rows = _build_rows(row_count)
        session = CleaningSession(Relation.from_rows(_COLUMNS, rows, name="wide"), workers=1)
        assert len(session.detect(_PFDS)) == 0, "the base table must start clean"

        def one_row_cycle(row_id):
            city = rows[row_id][1]
            wrong_city = "San Francisco" if city != "San Francisco" else "Denver"
            timings = []
            for value, flagged in ((wrong_city, {row_id}), (city, set())):
                start = time.perf_counter()
                session.apply(MutationBatch.update_cells([(row_id, "city", value)]))
                report = session.detect_changed(_PFDS)
                timings.append(time.perf_counter() - start)
                assert {error.cell.row_id for error in report.errors} == flagged
            return timings

        timings = [
            seconds for i in range(60) for seconds in one_row_cycle((i * 7919) % row_count)
        ]
        p50_ms = statistics.median(timings) * 1e3
        benchmark.extra_info[f"p50_ms_{row_count}_rows"] = round(p50_ms, 4)
    benchmark.pedantic(one_row_cycle, args=(0,), rounds=3, iterations=1)


def _serial_pfd(tableau_rows: int):
    verdicts = ("pass", "fail")
    return make_pfd(
        "serial",
        "qa",
        [
            {"serial": rf"\A*\S{{{{{number:05d}}}}}\A*", "qa": verdicts[number % 2]}
            for number in range(tableau_rows)
        ],
    )


def test_bench_constant_tableau_update_latency(benchmark, repro_scale):
    """p50 of one-row update + ``detect_changed`` per constant-tableau size.

    The table holds serials ``XX-ddddd`` whose numbers cycle through 1,000,
    each with the verdict its tableau row expects.  Each timed op writes one
    row's verdict wrong (the report must flag exactly that cell), then back
    (the report must be clean).  Flatness across tableau sizes is recorded,
    not asserted.
    """
    row_count = max(2000, int(8000 * repro_scale))
    prefixes = ("HQ", "XB", "GP")
    rows = [
        (f"{prefixes[k % 3]}-{k % 1000:05d}", ("pass", "fail")[k % 1000 % 2])
        for k in range(row_count)
    ]
    for tableau_rows in (10, 100, 1000):
        pfds = [_serial_pfd(tableau_rows)]
        session = CleaningSession(
            Relation.from_rows(["serial", "qa"], rows, name="hicard"), workers=1
        )
        assert len(session.detect(pfds)) == 0, "the base table must start clean"

        def one_row_cycle(row_id):
            verdict = rows[row_id][1]
            wrong = "fail" if verdict == "pass" else "pass"
            covered = row_id % 1000 < tableau_rows
            timings = []
            for value, flagged in ((wrong, {row_id} if covered else set()), (verdict, set())):
                start = time.perf_counter()
                session.apply(MutationBatch.update_cells([(row_id, "qa", value)]))
                report = session.detect_changed(pfds)
                timings.append(time.perf_counter() - start)
                assert {error.cell.row_id for error in report.errors} == flagged
            return timings

        timings = [
            seconds for i in range(60) for seconds in one_row_cycle((i * 7919) % row_count)
        ]
        p50_ms = statistics.median(timings) * 1e3
        benchmark.extra_info[f"p50_ms_{tableau_rows}_tableau_rows"] = round(p50_ms, 4)
    benchmark.pedantic(one_row_cycle, args=(0,), rounds=3, iterations=1)
