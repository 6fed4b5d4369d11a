"""Out-of-core backend benchmark: the SQLite-pushdown store vs the in-memory
engine.

The point of the `sql` backend is a *memory* bound, not raw speed: the
decoded table never materializes in the process, so peak RSS stays
O(distinct values + one ingestion chunk) while the in-memory backends hold
every cell as a Python string (or ndarray codes over them).  Per-process
peak RSS is a high-water mark (`ru_maxrss`), so each backend's full
pipeline — `from_csv` → discover → detect → repair — runs in its own child
interpreter; the child reports its peak RSS, pipeline wall time, and the
results, and the parent records peak RSS and cells/sec per backend into the
benchmark JSON (`extra_info`) next to a bit-identical-results assertion
across backends.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.backend import NUMPY, SQL

BACKENDS = (SQL, NUMPY)

#: Distinct zips in the synthetic table; each maps to one city, so the
#: wildcard PFD zip -> city holds, and a few seeded typos give detection
#: and repair real work.
DISTINCT_ZIPS = 150
TYPO_ROWS = 6

_CHILD = """
import json, resource, sys, time
from repro.session import CleaningSession

backend, path = sys.argv[1], sys.argv[2]
start = time.perf_counter()
with CleaningSession.from_csv(path, backend=backend) as session:
    discovery = session.discover()
    detection = session.detect()
    repair = session.repair()
    seconds = time.perf_counter() - start
    print(json.dumps({
        "seconds": seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rows": session.relation.row_count,
        "pfds": [str(p) for p in discovery.pfds],
        "errors": len(detection.errors),
        "repairs": [
            [r.cell.row_id, r.cell.attribute, r.old_value, r.new_value]
            for r in repair.repairs
        ],
    }))
"""

_results: dict[str, dict] = {}


def _row_target(scale: float) -> int:
    """20k rows at smoke scale, 100k at ``--repro-scale 1.0``."""
    return max(20_000, int(100_000 * scale))


@pytest.fixture(scope="module")
def dataset(repro_scale, tmp_path_factory) -> Path:
    count = _row_target(repro_scale)
    path = tmp_path_factory.mktemp("sql_bench") / "zips.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["zip", "city"])
        stride = max(1, count // TYPO_ROWS)
        for i in range(count):
            distinct = i % DISTINCT_ZIPS
            city = f"City{distinct % 31}"
            if i % stride == 7:
                city = f"Typo{i % TYPO_ROWS}"
            writer.writerow([f"{10000 + distinct * 41:05d}", city])
    return path


def _run_child(backend: str, path: Path) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, backend, str(path)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sql_backend_pipeline(benchmark, dataset, backend):
    result = benchmark.pedantic(_run_child, args=(backend, dataset), rounds=1)
    _results[backend] = result
    cells = result["rows"] * 2
    cells_per_sec = int(cells / result["seconds"])
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["rows"] = result["rows"]
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["pipeline_cells_per_sec"] = cells_per_sec
    benchmark.extra_info["peak_rss_kb"] = result["peak_rss_kb"]
    print(
        f"\npipeline[{backend}]: {cells} cells, {cells_per_sec:,} cells/sec, "
        f"peak RSS {result['peak_rss_kb'] / 1024:.1f} MB"
    )


def test_sql_backend_results_bit_identical(dataset):
    for backend in BACKENDS:
        if backend not in _results:
            _results[backend] = _run_child(backend, dataset)
    reference = _results[BACKENDS[-1]]
    sql = _results[SQL]
    assert sql["pfds"] == reference["pfds"]
    assert sql["errors"] == reference["errors"]
    assert sql["repairs"] == reference["repairs"]
    assert sql["repairs"], "the seeded typos must produce repairs"
