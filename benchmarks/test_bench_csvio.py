"""CSV I/O of the dictionary-encoded relation: read + encode, write, heap.

A relation stores each column only as its dictionary codes, so ``read_csv``
parses, transposes and encodes each column once, and ``write_csv`` decodes
the columns back in blocks.  This benchmark times both on two generated
tables — wide_sparse (20k rows x 8 columns at the default scale) and
tall_narrow (48k rows) — and measures, with ``tracemalloc``, the Python heap
a loaded relation keeps alive after the read.  Figures land in
``extra_info``: seconds are the best of three runs; the heap is one traced
read.  The write → read → write round trip is asserted byte-identical.
"""

from __future__ import annotations

import dataclasses
import gc
import time
import tracemalloc

from repro.datagen.scenario import SCENARIO_MATRIX
from repro.dataset.csvio import read_csv, write_csv

_RUNS = 3


def _best(action) -> float:
    best = float("inf")
    for _ in range(_RUNS):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


def _retained_heap_bytes(path) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        relation = read_csv(path)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert relation.row_count > 0
    return retained


def test_bench_csv_read_write(benchmark, repro_scale, tmp_path):
    info = benchmark.extra_info
    for name, shape, rows in (
        ("wide_sparse", "wide_sparse", max(2000, int(80_000 * repro_scale))),
        ("tall_narrow", "tall_narrow", max(2000, int(192_000 * repro_scale))),
    ):
        spec = dataclasses.replace(SCENARIO_MATRIX[shape], rows=rows, seed=1)
        relation = spec.build().relation
        source = tmp_path / f"{name}.csv"
        copy = tmp_path / f"{name}.copy.csv"
        write_seconds = _best(lambda: write_csv(relation, source))
        read_seconds = _best(lambda: read_csv(source))
        write_csv(read_csv(source), copy)
        assert copy.read_bytes() == source.read_bytes()
        info[f"{name}_rows"] = relation.row_count
        info[f"{name}_columns"] = len(relation.attribute_names)
        info[f"{name}_read_seconds"] = round(read_seconds, 6)
        info[f"{name}_write_seconds"] = round(write_seconds, 6)
        info[f"{name}_retained_heap_mb"] = round(_retained_heap_bytes(source) / 2**20, 3)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
