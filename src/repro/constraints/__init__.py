"""Classical integrity constraints: FDs and CFDs, plus the shared violation
objects used by every constraint class in the library."""

from .base import CellRef, ClassCells, Constraint, Violation, embedded_dependency_key
from .cfd import CFD, CFDTuple, WILDCARD as CFD_WILDCARD, constant_cfd
from .fd import FD, satisfied_fds, violation_ratio

__all__ = [
    "CellRef",
    "ClassCells",
    "Constraint",
    "Violation",
    "embedded_dependency_key",
    "CFD",
    "CFDTuple",
    "CFD_WILDCARD",
    "constant_cfd",
    "FD",
    "satisfied_fds",
    "violation_ratio",
]
