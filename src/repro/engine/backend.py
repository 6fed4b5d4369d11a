"""Engine backend selection: the in-memory NumPy engine vs the out-of-core store.

``numpy``
    The in-memory engine.  Every relation held in memory keeps its engine
    state as contiguous ndarrays: ``int32`` dictionary code vectors, boolean
    per-code match masks, and ``(sorted_rowids, class_offsets)`` partition
    pairs, with broadcasts, intersections, and reductions vectorized.
``sql``
    The out-of-core SQLite-pushdown store (:mod:`repro.storage`): rows live
    dictionary-encoded in a temp database and the group-heavy primitives run
    as SQL aggregates, so peak memory stays bounded by the chunk size rather
    than the table.  Chosen at ingestion time via ``Relation(backend="sql")``
    or ``read_csv(..., backend="sql")``; whatever an out-of-core relation
    materializes in memory uses the numpy representation.

Selection at ingestion time (most specific wins): an explicit ``backend=``
argument (the CLI ``--engine {numpy,sql}`` flag routes here), else the
``REPRO_ENGINE`` environment variable, else ``numpy``.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

NUMPY = "numpy"
SQL = "sql"
BACKENDS = (NUMPY, SQL)


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown engine backend {name!r}: available backends are "
            f"{', '.join(BACKENDS)}"
        )
    return name


def available_backends() -> tuple[str, ...]:
    """The selectable backends (``sql`` rides the standard library's
    :mod:`sqlite3`, so both are always available)."""
    return BACKENDS


def default_backend() -> str:
    """``REPRO_ENGINE`` from the environment, else ``numpy``."""
    env = os.environ.get("REPRO_ENGINE", "").strip().lower()
    return _validate(env) if env else NUMPY


def resolve_backend(name: Optional[str] = None) -> str:
    """The effective backend for ``name`` (``None``/"" = process default)."""
    if not name:
        return default_backend()
    return _validate(name)


def stable_order(sort_keys: np.ndarray) -> np.ndarray:
    """Stable argsort tuned for the engine's ordinal keys.

    numpy's ``stable`` kind is a radix sort for <= 16-bit integers but a
    comparison sort for wider ones — an order of magnitude apart on the
    class/component/code ordinals the engine sorts, which are usually tiny
    relative to their dtype.  Downcast when the key domain fits.
    """
    if len(sort_keys) and int(sort_keys.max()) < 32768:
        sort_keys = sort_keys.astype(np.int16)
    return np.argsort(sort_keys, kind="stable")
