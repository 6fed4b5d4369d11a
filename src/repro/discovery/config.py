"""Configuration of the PFD discovery algorithm.

The thresholds mirror the restrictions of Section 4.2 and the parameter
values used in Section 5 of the paper:

* ``min_support`` (K) — minimum number of records a pattern must appear in
  before the constant PFD built from it is considered (paper default 5, the
  controlled experiments sweep 2/4/6).
* ``noise_ratio`` (δ) — the fraction of supporting records that may deviate
  from the dominant RHS pattern (paper default 5 %, sweeps 1/4/7 %).
* ``min_coverage`` (γ) — minimum fraction of the table that the tableau of a
  reported dependency must cover (paper default 10 %).
* ``max_lhs_size`` — 1 reproduces the single-LHS experiments; 2+ enables the
  multi-attribute-LHS lattice search (Table 7, row 14).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

import numpy as np

from ..exceptions import DiscoveryError


@dataclasses.dataclass(frozen=True)
class DiscoveryConfig:
    """Tunable knobs of :class:`~repro.discovery.pfd_discovery.PFDDiscoverer`."""

    min_support: int = 5
    noise_ratio: float = 0.05
    min_coverage: float = 0.10
    max_lhs_size: int = 1
    generalize: bool = True
    generalization_noise_ratio: Optional[float] = None
    prune_substrings: bool = True
    positional_grouping: bool = True
    prefixes_only: bool = True
    max_patterns_per_attribute: int = 5000
    max_tableau_rows: int = 400
    include_attributes: Optional[Sequence[str]] = None
    exclude_attributes: Sequence[str] = ()
    skip_trivial: bool = True
    #: Process-parallel workers for candidate validation (see
    #: :mod:`repro.engine.parallel`).  ``None`` defers to the session's
    #: ``workers=`` (or the ``REPRO_WORKERS`` environment variable, else 1);
    #: 1 never creates a pool and validates every level in process.
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise DiscoveryError("min_support must be at least 1")
        if not 0.0 <= self.noise_ratio < 1.0:
            raise DiscoveryError("noise_ratio must be in [0, 1)")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise DiscoveryError("min_coverage must be in [0, 1]")
        if self.max_lhs_size < 1:
            raise DiscoveryError("max_lhs_size must be at least 1")
        if self.max_patterns_per_attribute < 1:
            raise DiscoveryError("max_patterns_per_attribute must be positive")
        if self.max_tableau_rows < 1:
            raise DiscoveryError("max_tableau_rows must be positive")
        if self.workers is not None and self.workers < 1:
            raise DiscoveryError("workers must be at least 1")

    @property
    def effective_generalization_noise(self) -> float:
        """Noise ratio used when validating a generalized (variable) PFD.

        Defaults to the constant-PFD noise ratio when not set explicitly.
        """
        if self.generalization_noise_ratio is None:
            return self.noise_ratio
        return self.generalization_noise_ratio

    def required_rhs_agreement(self, support: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
        """Minimum number of supporting records whose RHS must agree with the
        dominant pattern for the decision function ``f`` of the paper to
        accept the pattern pair.

        The paper allows "δ·100" deviating records per pattern; interpreted
        proportionally that is ``ceil(δ · support)`` records, which keeps the
        tolerance meaningful for both small and large pattern groups.  The
        dominant pattern must additionally be a strict majority, so tiny
        groups cannot be decided by a tie (Example 8: K=2 finds no
        single-attribute PFD because every 2-record group splits 1–1).

        ``support`` may be an int or an integer ndarray of group sizes; the
        result has the same shape.
        """
        allowed = np.ceil(self.noise_ratio * np.asarray(support)).astype(np.int64)
        required = np.maximum(support // 2 + 1, support - allowed)
        return required if isinstance(support, np.ndarray) else int(required)

    def with_overrides(self, **kwargs) -> "DiscoveryConfig":
        """A copy with selected fields replaced (dataclasses.replace wrapper)."""
        return dataclasses.replace(self, **kwargs)


#: Configuration matching the fixed parameters of Section 5.1.
PAPER_DEFAULTS = DiscoveryConfig(min_support=5, noise_ratio=0.05, min_coverage=0.10)
