"""Incremental-append benchmark: ``detect_new`` after a 1% append vs a full
re-detect from cold caches.

Models the ingestion workflow the append path exists for: a wide, heavily
duplicated table has been cleaned once (engine caches warm), a small batch
of new rows arrives, and the question is what re-validating costs.  The
baseline is what every batch used to pay before delta maintenance — full
re-detection over the concatenated table with cold dictionaries, masks, and
partitions.

Asserted (the PR's acceptance criterion):

* scoped delta detection is at least **3×** faster than the full re-detect
  (measured ~2 orders of magnitude in practice — the scoped pass touches
  only classes containing appended rows), and
* the delta report over the extended caches equals the full-rebuild report
  (the base table is clean, so every error is the batch's doing).
"""

from __future__ import annotations

import time

from repro.cleaning.detector import ErrorDetector
from repro.core.pfd import make_pfd
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
    """A duplicated wide table: ~400 distinct (zip, city, ...) combinations,
    each repeated many times (the shape partition stripping thrives on)."""
    return [
        _region_row(uid % len(_REGIONS), uid // len(_REGIONS) % 50, uid)
        for uid in range(row_count)
    ]


#: The zip determines city / state / county; constraining the whole zip
#: yields one (small) equivalence class per distinct zip, so a 1% batch
#: touches ~1% of the classes — the shape scoped detection exploits.
_PFDS = [
    make_pfd("zip", "city", [{"zip": r"{{\D{5}}}", "city": "⊥"}]),
    make_pfd("zip", "state", [{"zip": r"{{\D{5}}}", "state": "⊥"}]),
    make_pfd("zip", "county", [{"zip": r"{{\D{5}}}", "county": "⊥"}]),
]


def test_bench_detect_new_beats_full_redetect(benchmark, repro_scale):
    row_count = max(1200, int(16000 * repro_scale))
    rows = _build_rows(row_count)
    batch_size = max(8, row_count // 100)  # the 1% append
    batch = [
        _region_row(uid % len(_REGIONS), uid // len(_REGIONS) % 50, row_count + uid)
        for uid in range(batch_size - 2)
    ]
    # Two fresh violations: existing zips re-ingested with the wrong city /
    # county (the appended rows become the minority of their class).
    batch.append(("90000", "San Francisco", "CA", "213", "(213) 555-0000",
                  "Los Angeles County", "US", "x1"))
    batch.append(("60600", "Chicago", "IL", "312", "(312) 555-0000",
                  "Dupage County", "US", "x2"))

    # Warm path: one cleaned session, append the batch, detect the delta.
    # Pinned serial: this benchmark measures the incremental-cache win, and
    # REPRO_WORKERS would make every timed call pay pool + broadcast setup.
    session = CleaningSession(Relation.from_rows(_COLUMNS, rows, name="wide"), workers=1)
    assert len(session.detect(_PFDS)) == 0, "the base table must start clean"
    appended = session.append(batch)
    delta_report = session.detect_new(_PFDS)

    def scoped_detect():
        return ErrorDetector(_PFDS, evaluator=session.evaluator).detect(
            session.relation, changed_rows=range(appended.start, session.relation.row_count)
        )

    def full_redetect():
        cold = session.relation.copy()
        return ErrorDetector(_PFDS, evaluator=PatternEvaluator()).detect(cold)

    # Scoped detection is stateless (unlike detect_new, which consumes the
    # pending delta), so it can be timed over many rounds.
    incremental_seconds = min(
        _timed(scoped_detect)[0] for _ in range(5)
    )
    full_seconds, full_report = min(
        (_timed(full_redetect) for _ in range(3)), key=lambda pair: pair[0]
    )

    # Identical findings: the base is clean, so the full report is exactly
    # the delta report (and both flag the two injected violations).
    assert delta_report.error_cells == full_report.error_cells
    assert scoped_detect().error_cells == full_report.error_cells
    assert len(delta_report.errors) >= 2

    speedup = full_seconds / incremental_seconds
    assert speedup >= 3.0, (
        f"detect_new after a 1% append must be >=3x faster than a full "
        f"re-detect, got {speedup:.1f}x ({incremental_seconds * 1e3:.2f} ms vs "
        f"{full_seconds * 1e3:.2f} ms on {row_count}+{batch_size} rows)"
    )

    benchmark.extra_info["rows"] = row_count
    benchmark.extra_info["batch_rows"] = batch_size
    benchmark.extra_info["incremental_seconds"] = round(incremental_seconds, 6)
    benchmark.extra_info["full_redetect_seconds"] = round(full_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.pedantic(scoped_detect, rounds=3, iterations=1)


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result
