"""Controlled error injection (the experimental setup of Section 5.3).

The controlled evaluation of the paper cleans a table, injects errors into a
target attribute at rates from 1 % to 10 %, and measures how well the PFDs
discovered from the *dirty* table detect the injected cells.  Two noise
sources are used:

* ``outside`` the active domain — the replacement value is drawn from a pool
  of values that do not occur in the column (Figure 5), and
* ``active`` domain — the replacement is another value already present in
  the column, which is expected to be harder (Figure 6).

A third mode, ``typo``, perturbs characters of the original value (delete /
substitute / append) and is used by the qualitative Table 3 reproduction,
whose real-world errors are misspellings like ``Chicag`` and ``lL``.

All injection is deterministic given a seed and returns the exact set of
injected cells so that precision/recall can be computed.
"""

from __future__ import annotations

import dataclasses
import random
import string
from typing import Optional, Sequence

from ..constraints.base import CellRef
from ..dataset.relation import Relation
from ..exceptions import CleaningError


@dataclasses.dataclass(frozen=True)
class InjectedError:
    """One injected error: where, what it was, and what it became."""

    cell: CellRef
    original_value: str
    injected_value: str


@dataclasses.dataclass
class InjectionResult:
    """The dirty relation plus the full injection log."""

    relation: Relation
    errors: list[InjectedError]

    @property
    def error_cells(self) -> set[CellRef]:
        return {error.cell for error in self.errors}

    @property
    def error_rate(self) -> float:
        if self.relation.row_count == 0:
            return 0.0
        return len(self.errors) / self.relation.row_count


def _typo(value: str, rng: random.Random) -> str:
    """A single-character perturbation of ``value`` (never the identity)."""
    if not value:
        return "?"
    choice = rng.choice(("delete", "substitute", "append", "swap"))
    index = rng.randrange(len(value))
    if choice == "delete" and len(value) > 1:
        return value[:index] + value[index + 1 :]
    if choice == "swap" and len(value) > 1:
        j = (index + 1) % len(value)
        chars = list(value)
        chars[index], chars[j] = chars[j], chars[index]
        mutated = "".join(chars)
        if mutated != value:
            return mutated
    if choice == "append":
        return value + rng.choice(string.ascii_lowercase)
    alphabet = string.ascii_letters + string.digits
    replacement = rng.choice([c for c in alphabet if c != value[index]])
    return value[:index] + replacement + value[index + 1 :]


def inject_errors(
    relation: Relation,
    attribute: str,
    error_rate: float,
    mode: str = "outside",
    seed: int = 0,
    outside_pool: Optional[Sequence[str]] = None,
    copy: bool = True,
) -> InjectionResult:
    """Inject errors into ``attribute`` of ``relation``.

    Parameters
    ----------
    relation:
        The clean relation; it is copied unless ``copy=False``.
    attribute:
        Target column.
    error_rate:
        Fraction of rows to corrupt (0–1).
    mode:
        ``"outside"`` (values from ``outside_pool`` / synthesized values not
        in the active domain), ``"active"`` (another value from the active
        domain), or ``"typo"`` (character-level perturbation).
    seed:
        Seed of the deterministic RNG.
    outside_pool:
        Candidate replacement values for ``outside`` mode; values that happen
        to be in the active domain are skipped.  When omitted, synthetic
        out-of-domain strings are generated.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise CleaningError(f"error_rate must be in [0, 1], got {error_rate}")
    if mode not in ("outside", "active", "typo"):
        raise CleaningError(f"unknown injection mode {mode!r}")
    target = relation.copy() if copy else relation
    rng = random.Random(seed)
    row_count = target.row_count
    error_count = int(round(error_rate * row_count))
    if error_count == 0:
        return InjectionResult(relation=target, errors=[])

    active_domain = sorted(target.active_domain(attribute))
    if mode == "active" and len(active_domain) < 2:
        raise CleaningError(
            "active-domain injection needs at least two distinct values "
            f"in {attribute!r}"
        )
    pool: list[str] = []
    if mode == "outside":
        if outside_pool is not None:
            pool = [value for value in outside_pool if value not in set(active_domain)]
        if not pool:
            pool = [f"ERR_{index:04d}" for index in range(max(error_count, 16))]

    candidate_rows = target.non_empty_rows(attribute)
    rng.shuffle(candidate_rows)
    chosen = sorted(candidate_rows[:error_count])

    errors: list[InjectedError] = []
    for row_id in chosen:
        original = target.cell(row_id, attribute)
        if mode == "outside":
            replacement = rng.choice(pool)
            if replacement == original:
                replacement = replacement + "_x"
        elif mode == "active":
            alternatives = [value for value in active_domain if value != original]
            replacement = rng.choice(alternatives)
        else:
            replacement = _typo(original, rng)
            if replacement == original:
                replacement = original + "x"
        target.set_cell(row_id, attribute, replacement)
        errors.append(
            InjectedError(
                cell=CellRef(row_id, attribute),
                original_value=original,
                injected_value=replacement,
            )
        )
    return InjectionResult(relation=target, errors=errors)


def inject_errors_multi(
    relation: Relation,
    attributes: Sequence[str],
    error_rate: float,
    mode: str = "typo",
    seed: int = 0,
) -> InjectionResult:
    """Spread errors across several attributes (used by the Table 7 error
    detection reproduction, where every table carries mixed dirtiness)."""
    target = relation.copy()
    all_errors: list[InjectedError] = []
    for offset, attribute in enumerate(attributes):
        result = inject_errors(
            target,
            attribute,
            error_rate,
            mode=mode,
            seed=seed + offset,
            copy=False,
        )
        all_errors.extend(result.errors)
    return InjectionResult(relation=target, errors=all_errors)
