"""Abstract syntax tree for the paper's pattern language.

A pattern is a concatenation of *elements*.  Each element is either

* a :class:`Literal` character,
* a :class:`ClassAtom` (one of the generalization-tree classes),
* a :class:`Repeat` wrapping a literal/class atom with a repetition range, or
* a :class:`ConstrainedGroup` containing a sub-sequence of elements.

The constrained group corresponds to the underlined part of a constrained
pattern in the paper (Section 2.1): when two strings both match the pattern,
they are *equivalent* with respect to it iff the substrings captured by the
constrained group are identical.

The AST is immutable and hashable, so patterns can be used as dictionary keys
(the discovery algorithm indexes tableaux by pattern).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterator, Optional, Union

from ..exceptions import PatternError
from .alphabet import CharClass

#: Characters that need escaping when serialising a literal back to the
#: textual pattern syntax.  ``⊥`` is included so a literal-⊥ pattern never
#: serialises to the bare wildcard marker used by tableau (de)serialization.
_ESCAPE_REQUIRED = set("\\{}*+ ⊥")

#: Upper bound used when converting an unbounded repetition to a finite one
#: (only for length estimation, never for matching).
UNBOUNDED = None


def _escape_literal(char: str) -> str:
    if char in _ESCAPE_REQUIRED:
        return "\\" + char
    return char


@dataclasses.dataclass(frozen=True)
class Literal:
    """A single concrete character, e.g. ``J`` or an escaped ``\\ `` space."""

    char: str

    def __post_init__(self) -> None:
        if len(self.char) != 1:
            raise PatternError(f"Literal must be a single character, got {self.char!r}")

    def to_pattern_string(self) -> str:
        return _escape_literal(self.char)

    def to_regex(self) -> str:
        return re.escape(self.char)

    def min_length(self) -> int:
        return 1

    def max_length(self) -> Optional[int]:
        return 1

    def is_constant(self) -> bool:
        return True


@dataclasses.dataclass(frozen=True)
class ClassAtom:
    """A character-class atom from the generalization tree, e.g. ``\\D``."""

    cls: CharClass

    def to_pattern_string(self) -> str:
        return self.cls.escape

    def to_regex(self) -> str:
        mapping = {
            CharClass.ANY: r"[\s\S]",
            CharClass.UPPER: r"[A-Z]",
            CharClass.LOWER: r"[a-z]",
            CharClass.DIGIT: r"[0-9]",
            CharClass.SYMBOL: r"[^A-Za-z0-9]",
        }
        return mapping[self.cls]

    def min_length(self) -> int:
        return 1

    def max_length(self) -> Optional[int]:
        return 1

    def is_constant(self) -> bool:
        return False


Atom = Union[Literal, ClassAtom]


@dataclasses.dataclass(frozen=True)
class Repeat:
    """Repetition of an atom: ``X*``, ``X+``, ``X{N}`` or ``X{m,n}``.

    ``max_count`` of ``None`` means unbounded.
    """

    atom: Atom
    min_count: int
    max_count: Optional[int]

    def __post_init__(self) -> None:
        if self.min_count < 0:
            raise PatternError("Repeat min_count must be >= 0")
        if self.max_count is not None and self.max_count < self.min_count:
            raise PatternError("Repeat max_count must be >= min_count")

    def to_pattern_string(self) -> str:
        inner = self.atom.to_pattern_string()
        if self.min_count == 0 and self.max_count is None:
            return inner + "*"
        if self.min_count == 1 and self.max_count is None:
            return inner + "+"
        if self.max_count == self.min_count:
            return f"{inner}{{{self.min_count}}}"
        if self.max_count is None:
            return f"{inner}{{{self.min_count},}}"
        return f"{inner}{{{self.min_count},{self.max_count}}}"

    def to_regex(self) -> str:
        inner = self.atom.to_regex()
        if self.min_count == 0 and self.max_count is None:
            return inner + "*"
        if self.min_count == 1 and self.max_count is None:
            return inner + "+"
        if self.max_count == self.min_count:
            return f"{inner}{{{self.min_count}}}"
        if self.max_count is None:
            return f"{inner}{{{self.min_count},}}"
        return f"{inner}{{{self.min_count},{self.max_count}}}"

    def min_length(self) -> int:
        return self.min_count * self.atom.min_length()

    def max_length(self) -> Optional[int]:
        if self.max_count is None:
            return None
        return self.max_count * self.atom.min_length()

    def is_constant(self) -> bool:
        return isinstance(self.atom, Literal) and self.min_count == self.max_count


@dataclasses.dataclass(frozen=True)
class ConstrainedGroup:
    """The constrained (underlined) part of a pattern: ``{{ ... }}``.

    Two strings matching the enclosing pattern are equivalent with respect to
    the pattern iff the substring matched by this group is identical in both.
    """

    elements: tuple[Union[Literal, ClassAtom, Repeat], ...]

    def to_pattern_string(self) -> str:
        inner = "".join(e.to_pattern_string() for e in self.elements)
        return "{{" + inner + "}}"

    def to_regex(self) -> str:
        inner = "".join(e.to_regex() for e in self.elements)
        return f"(?P<constrained>{inner})"

    def min_length(self) -> int:
        return sum(e.min_length() for e in self.elements)

    def max_length(self) -> Optional[int]:
        total = 0
        for element in self.elements:
            part = element.max_length()
            if part is None:
                return None
            total += part
        return total

    def is_constant(self) -> bool:
        return all(e.is_constant() for e in self.elements)


Element = Union[Literal, ClassAtom, Repeat, ConstrainedGroup]


@dataclasses.dataclass(frozen=True)
class Pattern:
    """A full pattern: an anchored concatenation of elements.

    Matching is *anchored*: a string matches the pattern iff the whole string
    is generated by it (``90001`` matches ``\\D{5}``, not ``\\D{3}``).

    At most one :class:`ConstrainedGroup` is allowed — the paper restricts
    attention to constrained patterns with a single constrained part.

    Patterns are cache keys all over the engine (memoized NFAs, shared-DFA
    pattern sets, per-column match sets), so the recursive hash, the
    textual serialization and the constant classification are computed once
    and cached on the instance.
    """

    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        groups = [e for e in self.elements if isinstance(e, ConstrainedGroup)]
        if len(groups) > 1:
            raise PatternError(
                "a pattern may contain at most one constrained group "
                f"(got {len(groups)})"
            )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self.elements)
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- structure ---------------------------------------------------------

    @property
    def has_constrained_group(self) -> bool:
        """True if the pattern carries a constrained (underlined) part."""
        return any(isinstance(e, ConstrainedGroup) for e in self.elements)

    @property
    def constrained_group(self) -> Optional[ConstrainedGroup]:
        """The constrained group, or ``None`` if the pattern has none."""
        for element in self.elements:
            if isinstance(element, ConstrainedGroup):
                return element
        return None

    @property
    def constrained_group_index(self) -> Optional[int]:
        """Index of the constrained group among the top-level elements."""
        for i, element in enumerate(self.elements):
            if isinstance(element, ConstrainedGroup):
                return i
        return None

    def flattened_elements(self) -> tuple[Union[Literal, ClassAtom, Repeat], ...]:
        """All atoms/repeats in order, with constrained-group markers removed.

        This is the *embedded* pattern of the paper: the regular expression
        obtained by erasing the underline.
        """
        flat: list[Union[Literal, ClassAtom, Repeat]] = []
        for element in self.elements:
            if isinstance(element, ConstrainedGroup):
                flat.extend(element.elements)
            else:
                flat.append(element)
        return tuple(flat)

    def embedded(self) -> "Pattern":
        """The embedded pattern: same language, no constrained group."""
        return Pattern(self.flattened_elements())

    def constrained_subpattern(self) -> Optional["Pattern"]:
        """The constrained group as a stand-alone pattern (or ``None``)."""
        group = self.constrained_group
        if group is None:
            return None
        return Pattern(group.elements)

    def with_constrained_prefix(self, prefix_length: int) -> "Pattern":
        """Return a copy where the first ``prefix_length`` top-level elements
        form the constrained group.  Raises if a group already exists."""
        if self.has_constrained_group:
            raise PatternError("pattern already has a constrained group")
        if not 0 < prefix_length <= len(self.elements):
            raise PatternError(
                f"prefix_length must be in [1, {len(self.elements)}], got {prefix_length}"
            )
        head = ConstrainedGroup(tuple(self.elements[:prefix_length]))
        return Pattern((head,) + tuple(self.elements[prefix_length:]))

    # -- properties of the generated language ------------------------------

    def is_constant(self) -> bool:
        """True if the pattern generates exactly one string (cached)."""
        cached = self.__dict__.get("_is_constant")
        if cached is None:
            cached = all(e.is_constant() for e in self.elements)
            object.__setattr__(self, "_is_constant", cached)
        return cached

    def constant_value(self) -> str:
        """The unique string generated by a constant pattern (cached).

        Raises
        ------
        PatternError
            If the pattern is not constant.
        """
        cached = self.__dict__.get("_constant_value")
        if cached is None:
            cached = self._build_constant_value()
            object.__setattr__(self, "_constant_value", cached)
        return cached

    def _build_constant_value(self) -> str:
        if not self.is_constant():
            raise PatternError(f"pattern {self} is not constant")
        parts: list[str] = []
        for element in self.flattened_elements():
            if isinstance(element, Literal):
                parts.append(element.char)
            elif isinstance(element, Repeat):
                assert isinstance(element.atom, Literal)
                parts.append(element.atom.char * element.min_count)
            else:  # pragma: no cover - is_constant() rules this out
                raise PatternError("non-constant element in constant pattern")
        return "".join(parts)

    def min_length(self) -> int:
        """Length of the shortest string generated by the pattern."""
        return sum(e.min_length() for e in self.elements)

    def max_length(self) -> Optional[int]:
        """Length of the longest generated string, or ``None`` if unbounded."""
        total = 0
        for element in self.elements:
            part = element.max_length()
            if part is None:
                return None
            total += part
        return total

    def specificity(self) -> float:
        """A heuristic score of how specific the pattern is.

        Literals count 3, bounded classes 2, unbounded repeats of classes 1.
        Used when ranking competing patterns during discovery (the most
        specific pattern that still covers the group is preferred,
        cf. the substring-pruning optimization in Section 4.4).
        """
        score = 0.0
        for element in self.flattened_elements():
            if isinstance(element, Literal):
                score += 3.0
            elif isinstance(element, ClassAtom):
                score += 2.0
            elif isinstance(element, Repeat):
                unit = 3.0 if isinstance(element.atom, Literal) else 2.0
                if element.max_count is None:
                    score += 1.0
                else:
                    score += unit * element.min_count
        return score

    # -- serialization -----------------------------------------------------

    def to_pattern_string(self) -> str:
        """Serialize back to the textual pattern syntax (cached)."""
        cached = self.__dict__.get("_pattern_string")
        if cached is None:
            cached = "".join(e.to_pattern_string() for e in self.elements)
            object.__setattr__(self, "_pattern_string", cached)
        return cached

    def to_regex(self, anchored: bool = True) -> str:
        """Translate to an equivalent Python ``re`` expression.

        The constrained group becomes the named group ``constrained``.
        """
        body = "".join(e.to_regex() for e in self.elements)
        if anchored:
            return r"\A" + body + r"\Z"
        return body

    def __str__(self) -> str:
        return self.to_pattern_string()

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def literal_pattern(value: str, constrain_all: bool = False) -> Pattern:
    """Build a constant pattern matching exactly ``value``.

    Parameters
    ----------
    value:
        The constant string.
    constrain_all:
        If True, the whole constant becomes the constrained group (the
        common case for constant PFD tableau cells, where equivalence means
        exact equality on the full value).
    """
    atoms: tuple[Literal, ...] = tuple(Literal(c) for c in value)
    if constrain_all and atoms:
        return Pattern((ConstrainedGroup(atoms),))
    return Pattern(atoms)


def any_string_pattern() -> Pattern:
    """The pattern ``\\A*`` that matches every string (the wildcard body)."""
    return Pattern((Repeat(ClassAtom(CharClass.ANY), 0, None),))
