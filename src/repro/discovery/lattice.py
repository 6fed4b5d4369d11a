"""The attribute-set lattice used to enumerate candidate LHS sets.

Restriction (iv) of Section 4.2 adopts the attribute-set lattice of TANE
(Huhtala et al.): level ``n`` of the lattice contains the candidate LHS sets
with ``n`` attributes.  Discovery proceeds level by level; once a dependency
``X -> B`` has been reported, every superset of ``X`` is pruned for RHS ``B``
(a superset could only yield redundant, less general dependencies), and
candidates whose frequent-pattern coverage can no longer reach the minimum
coverage are skipped.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


class CandidateLattice:
    """Level-wise enumeration of candidate dependencies ``X -> B``.

    Parameters
    ----------
    attributes:
        The attributes eligible for the LHS.
    rhs_attributes:
        The attributes eligible for the RHS (defaults to ``attributes``).
    """

    def __init__(
        self,
        attributes: Sequence[str],
        rhs_attributes: Sequence[str] | None = None,
    ):
        self.attributes = tuple(attributes)
        self.rhs_attributes = tuple(rhs_attributes if rhs_attributes is not None else attributes)
        #: RHS attribute -> set of LHS sets already satisfied (for pruning).
        self._satisfied: dict[str, list[frozenset[str]]] = {}
        #: LHS sets whose covered rows cannot reach the support/coverage
        #: floor; supersets cover a subset of the same rows, so the whole
        #: cone above them is pruned for every RHS.
        self._deficient: list[frozenset[str]] = []

    # -- pruning ------------------------------------------------------------

    def mark_satisfied(self, lhs: Iterable[str], rhs: str) -> None:
        """Record that ``lhs -> rhs`` was reported; supersets get pruned."""
        self._satisfied.setdefault(rhs, []).append(frozenset(lhs))

    def mark_coverage_deficient(self, lhs: Iterable[str]) -> None:
        """Record that ``lhs`` cannot cover enough rows (partition-based
        bound): ``lhs`` and every superset are pruned for every RHS, since
        an intersection partition only ever covers fewer rows."""
        self._deficient.append(frozenset(lhs))

    def is_pruned(self, lhs: Iterable[str], rhs: str) -> bool:
        lhs_set = frozenset(lhs)
        for deficient in self._deficient:
            if deficient <= lhs_set:
                return True
        for satisfied in self._satisfied.get(rhs, ()):
            if satisfied < lhs_set:
                return True
        return False

    # -- enumeration ---------------------------------------------------------

    def level(self, size: int) -> Iterator[tuple[tuple[str, ...], str]]:
        """Candidates ``(X, B)`` with ``|X| == size``, in deterministic order,
        skipping pruned candidates and trivial dependencies (``B ∈ X``)."""
        for lhs in itertools.combinations(self.attributes, size):
            lhs_set = frozenset(lhs)
            for rhs in self.rhs_attributes:
                if rhs in lhs_set:
                    continue
                if self.is_pruned(lhs_set, rhs):
                    continue
                yield lhs, rhs

    def level_groups(self, size: int) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        """The candidates of :meth:`level` grouped by LHS, ``(X, (B, ...))``,
        in enumeration order.

        The groups are decided once, at the level boundary: within one level
        :meth:`mark_satisfied` prunes only strict supersets and
        :meth:`mark_coverage_deficient` only the identical LHS, so marking
        one group's outcome never changes another group of the same level.
        """
        return [
            (lhs, tuple(rhs for _, rhs in candidates))
            for lhs, candidates in itertools.groupby(
                self.level(size), key=lambda candidate: candidate[0]
            )
        ]
