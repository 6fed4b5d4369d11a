"""The vectorized evaluation core.

Pattern evaluation in this library is dominated by one operation: matching a
compiled pattern against every cell of a column.  Real tables are dominated
by *repeated* cell values, so the engine evaluates patterns per **distinct**
value and broadcasts the results back to row ids through a dictionary
encoding — the standard analytical-engine layout (dictionary-encoded columns
+ scans over codes) applied to the paper's workloads:

* :class:`~repro.engine.dictionary.DictionaryColumn` — a column's distinct
  values plus a compact integer code per row (built lazily and cached on
  :class:`~repro.dataset.relation.Relation`);
* :class:`~repro.engine.evaluator.PatternEvaluator` — a memoized batch
  matcher whose :meth:`~repro.engine.evaluator.PatternEvaluator.match_column`
  issues at most one :meth:`~repro.patterns.matcher.CompiledPattern.match`
  call per (pattern, distinct value) pair and shares the results between
  discovery, validation, and error detection;
* :class:`~repro.engine.evaluator.ColumnMatchSet` — the set-at-a-time tier:
  :meth:`~repro.engine.evaluator.PatternEvaluator.match_column_many` compiles
  a whole pattern set into one shared DFA
  (:func:`repro.patterns.multi.compile_pattern_set`) and scans each distinct
  value once, yielding per-value bitmasks of *all* matching patterns that
  later per-pattern calls are seeded from;
* :class:`~repro.engine.partitions.StrippedPartition` /
  :class:`~repro.engine.partitions.PartitionManager` — the equivalence-class
  tier: TANE-style stripped partitions per attribute (read off
  ``rows_by_code``) or per (attribute, tableau pattern), with memoized
  probe-table intersections for multi-attribute candidates, cached per
  relation; a write drops the partitions over the attributes it touched.

Batch ingestion keeps the first two tiers warm instead of rebuilding them:
:meth:`~repro.dataset.relation.Relation.append_rows` extends dictionaries in
place (:class:`~repro.engine.dictionary.DictionaryDelta` describes each
batch) and the evaluator's memoized masks self-heal by matching only the
newly introduced distinct values.  The partition manager drops its cached
partitions but keeps each leaf's code → key map, so a scoped detection of
the appended rows finds their classes from the maps and the codes
(:meth:`~repro.engine.partitions.PartitionManager.scoped_classes`) without
building a partition.

The user-facing handle on all of this shared state is the
:class:`~repro.session.CleaningSession` facade: one evaluator plus one
relation (and therefore one dictionary + partition cache) threaded through
profile → discover → detect → repair → validate, with every counter above
surfaced as a structured :class:`~repro.session.SessionStats` snapshot.
"""

from .dictionary import DictionaryColumn, DictionaryDelta
from .evaluator import ColumnMatch, ColumnMatchSet, PatternEvaluator, default_evaluator
from .parallel import ParallelExecutor, ParallelStats, resolve_workers
from .partitions import PartitionKey, PartitionManager, PartitionStats, StrippedPartition

__all__ = [
    "DictionaryColumn",
    "DictionaryDelta",
    "ColumnMatch",
    "ColumnMatchSet",
    "PatternEvaluator",
    "default_evaluator",
    "ParallelExecutor",
    "ParallelStats",
    "resolve_workers",
    "PartitionKey",
    "PartitionManager",
    "PartitionStats",
    "StrippedPartition",
]
