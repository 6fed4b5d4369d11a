"""Out-of-core SQLite-pushdown backing store (the ``sql`` engine backend).

Layout:

``store``
    :class:`SqlStore` — the dictionary-encoded rows in a private temporary
    SQLite database, plus the in-process encode state.
``relation``
    :class:`SqlRelation` / :class:`SqlDictionaryColumn` — drop-in relation
    and dictionary wrappers over a store.
``partitions``
    :class:`SqlPartitionManager` / :class:`SqlStrippedPartition` — partition
    manager whose group-heavy primitives run as SQL ``GROUP BY`` aggregates.
"""

from .partitions import SqlPartitionManager, SqlPatternState, SqlStrippedPartition
from .relation import SqlDictionaryColumn, SqlRelation
from .store import SqlStore

__all__ = [
    "SqlDictionaryColumn",
    "SqlPartitionManager",
    "SqlPatternState",
    "SqlRelation",
    "SqlStore",
    "SqlStrippedPartition",
]
