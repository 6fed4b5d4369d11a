"""The hash-based inverted pattern index of the discovery algorithm.

Figure 4 (lines 5-12) builds, per attribute, a hash map from
``(substring, position)`` to the list of tuple ids whose value contains that
substring at that position.  Section 5.4 additionally mentions a second index
from ``(tuple id, attribute)`` to the parts appearing in that cell, which
speeds up the per-group frequent-pattern lookups.

Both are stored here at *dictionary-code* granularity: ``entries`` maps a key
to the codes whose value carries it, ``code_parts`` maps a code to its keys,
and ``weights`` holds each key's row count.  Parts are a function of the cell
value alone, and every row set the discovery walk forms is a union of whole
codes (or, for a multi-attribute LHS, of whole LHS code tuples), so a code
list weighted by per-code row counts answers every question a tuple-id list
would — supports, frequency order, group histograms — in O(distinct × parts)
memory, independent of the row count.

Section 4.4's *substring pruning* is also implemented: an entry whose tuple-id
list is identical to that of a longer entry that contains it (same position)
carries no extra information, and only the most specific entry is kept.  Two
keys cover the same rows exactly when they cover the same codes, so the
pruning compares code lists.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import defaultdict
from typing import Mapping, Optional

import numpy as np

from ..engine.partitions import _offsets_of, _spans
from .profiler import TableProfile, profile_relation
from .relation import Relation
from .tokenizer import extract_parts


#: Key of an index entry: the partial value and the position it occupies.
PartKey = tuple[str, int]

#: A part carried by at least this share of a column's rows is *ubiquitous*
#: (the "St" of a street column, a shared unit suffix): it says nothing about
#: a dependency and would otherwise make every LHS pattern appear to
#: determine the column.  The other parts are *informative*.
UBIQUITOUS_SHARE = 0.8


@dataclasses.dataclass(frozen=True)
class PartIncidence:
    """Code → informative part ids, as CSR.

    ``keys`` lists the informative parts in ascending ``(len(text), key)``
    order, so among parts of equal count the highest part id is the most
    specific one — the tie-break of the decision function's part fallback.
    ``parts[offsets[code]:offsets[code + 1]]`` are the part ids a code's
    value carries; codes past the end of ``offsets`` carry none.
    """

    keys: list[PartKey]
    offsets: np.ndarray
    parts: np.ndarray

    def expand(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One ``(position in codes, part id)`` pair per part of each code."""
        limit = len(self.offsets) - 1
        starts = self.offsets[np.minimum(codes, limit)]
        stops = self.offsets[np.minimum(codes + 1, limit)]
        positions = np.repeat(np.arange(len(codes), dtype=np.int64), stops - starts)
        return positions, self.parts[_spans(starts, stops)]


@dataclasses.dataclass
class AttributeIndex:
    """Inverted lists of a single attribute at dictionary-code granularity.

    ``entries`` maps ``(text, position)`` to the ascending codes whose value
    carries that part; ``code_parts`` maps a code to its keys; ``weights``
    holds each key's total row count (the length of Figure 4's tuple-id
    list); ``row_count`` is the relation's row count at build time.  Codes
    with no rows left (values updated or deleted away) are not indexed.
    """

    attribute: str
    strategy: str
    entries: dict[PartKey, list[int]]
    code_parts: dict[int, list[PartKey]]
    weights: dict[PartKey, int]
    row_count: int
    _frequent: dict[int, list[PartKey]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def codes(self, key: PartKey) -> list[int]:
        return self.entries.get(key, [])

    def weight(self, key: PartKey) -> int:
        return self.weights.get(key, 0)

    def frequent_keys(self, minimum_support: int) -> list[PartKey]:
        """Keys appearing in at least ``minimum_support`` rows, ordered by
        descending support and then by descending specificity (longer text
        first) so that the most informative patterns are examined first.

        Memoized per ``minimum_support``; callers must not mutate the list.
        """
        keys = self._frequent.get(minimum_support)
        if keys is None:
            keys = [key for key, weight in self.weights.items() if weight >= minimum_support]
            keys.sort(key=lambda key: (-self.weights[key], -len(key[0]), key[0], key[1]))
            self._frequent[minimum_support] = keys
        return keys

    @functools.cached_property
    def informative_parts(self) -> PartIncidence:
        """The code → informative-part incidence (see :data:`UBIQUITOUS_SHARE`)."""
        row_count = self.row_count or 1
        keys = sorted(
            (key for key, weight in self.weights.items() if weight / row_count < UBIQUITOUS_SHARE),
            key=lambda key: (len(key[0]), key),
        )
        code_lists = [self.entries[key] for key in keys]
        codes = np.fromiter(itertools.chain.from_iterable(code_lists), dtype=np.int64)
        parts = np.repeat(np.arange(len(keys), dtype=np.int64), [len(c) for c in code_lists])
        width = int(codes.max()) + 1 if len(codes) else 0
        return PartIncidence(
            keys=keys,
            offsets=_offsets_of(np.bincount(codes, minlength=width)),
            parts=parts[np.argsort(codes, kind="stable")],
        )

    def keys_for_rows(self, code_counts: Mapping[int, int]) -> dict[PartKey, int]:
        """Histogram of part keys over a group of rows given as code → row
        count."""
        histogram: dict[PartKey, int] = defaultdict(int)
        for code, count in code_counts.items():
            if not count:
                continue
            for key in self.code_parts.get(code, ()):
                histogram[key] += count
        return dict(histogram)

    @property
    def entry_count(self) -> int:
        return len(self.entries)


class PatternIndex:
    """The full inverted index over every usable attribute of a relation."""

    def __init__(
        self,
        relation: Relation,
        profile: Optional[TableProfile] = None,
        prune_substrings: bool = True,
        prefixes_only: bool = True,
    ):
        self.relation = relation
        self.profile = profile or profile_relation(relation)
        self.prune_substrings = prune_substrings
        self.prefixes_only = prefixes_only
        self._attributes: dict[str, AttributeIndex] = {}
        for column in self.profile.usable_columns:
            self._attributes[column] = self._build_attribute(column)

    def _build_attribute(self, attribute: str) -> AttributeIndex:
        strategy = self.profile.strategy(attribute)
        dictionary = self.relation.dictionary(attribute)
        max_gram = self.profile.column(attribute).max_length
        counts = dictionary.counts()
        entries: dict[PartKey, list[int]] = defaultdict(list)
        code_parts: dict[int, list[PartKey]] = {}
        for code, value in enumerate(dictionary.values):
            if not value or not counts[code]:
                continue
            parts = extract_parts(
                value,
                strategy,
                max_gram_length=max_gram,
                prefixes_only=self.prefixes_only,
            )
            keys = list(dict.fromkeys((part.text, part.position) for part in parts))
            if not keys:
                continue
            code_parts[code] = keys
            for key in keys:
                entries[key].append(code)
        if self.prune_substrings:
            entries, code_parts = _prune_dominated_entries(entries, code_parts)
        weights = {
            key: sum(counts[code] for code in codes) for key, codes in entries.items()
        }
        return AttributeIndex(
            attribute=attribute,
            strategy=strategy,
            entries=dict(entries),
            code_parts=code_parts,
            weights=weights,
            row_count=self.relation.row_count,
        )

    # -- lookup --------------------------------------------------------------

    def attribute_index(self, attribute: str) -> AttributeIndex:
        return self._attributes[attribute]

    @property
    def attributes(self) -> list[str]:
        return list(self._attributes)

    def strategy(self, attribute: str) -> str:
        return self._attributes[attribute].strategy

    def frequent_keys(self, attribute: str, minimum_support: int) -> list[PartKey]:
        return self._attributes[attribute].frequent_keys(minimum_support)

    def total_entries(self) -> int:
        return sum(index.entry_count for index in self._attributes.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatternIndex(relation={self.relation.name!r}, "
            f"attributes={len(self._attributes)}, entries={self.total_entries()})"
        )


def _prune_dominated_entries(
    entries: dict[PartKey, list[int]],
    code_parts: dict[int, list[PartKey]],
) -> tuple[dict[PartKey, list[int]], dict[int, list[PartKey]]]:
    """Substring pruning (Section 4.4).

    If two entries at the same position have identical code lists and one
    text is a prefix of the other, the shorter one is dominated and dropped:
    the longer (more specific) entry carries strictly more information about
    the same set of rows.
    """
    # Group by (position, code list).
    by_signature: dict[tuple[int, tuple[int, ...]], list[str]] = defaultdict(list)
    for (text, position), codes in entries.items():
        by_signature[(position, tuple(codes))].append(text)
    dominated: set[PartKey] = set()
    for (position, _codes), texts in by_signature.items():
        if len(texts) < 2:
            continue
        longest = max(texts, key=len)
        for text in texts:
            if text != longest and longest.startswith(text):
                dominated.add((text, position))
    if not dominated:
        return entries, code_parts
    kept_entries = {
        key: codes for key, codes in entries.items() if key not in dominated
    }
    kept_code_parts = {
        code: [key for key in keys if key not in dominated]
        for code, keys in code_parts.items()
    }
    return kept_entries, kept_code_parts
