"""Schema-driven scenario specs: declarative synthetic workloads.

A :class:`ScenarioSpec` replaces hand-rolled generator functions with a
declarative description of a table and its workload: columns (pattern
templates or explicit domains, distinct-value cardinality, zipf skew,
functional links between columns), an error-injection profile, a row scale,
and a CRUD op-mix.  One spec drives three things:

- :meth:`ScenarioSpec.build` — a deterministic
  :class:`~repro.datagen.generators.GeneratedTable` (relation + ground-truth
  dependencies + seeded dirty cells);
- :meth:`ScenarioSpec.mutation_stream` — an endless deterministic stream of
  :class:`~repro.dataset.mutations.MutationBatch` objects mixing updates,
  appends, and deletes in the spec's proportions (the update-heavy stream
  benchmark and the CI smoke leg both consume this);
- the scenario matrix — :data:`SCENARIO_MATRIX` names four canonical shapes
  (tall-narrow, wide-sparse, high-cardinality, adversarial free-start) the
  scenario tests sweep.

Specs are plain dicts (JSON-native); YAML loading is available when PyYAML
is installed (:func:`load_scenario` accepts ``.json``, ``.yaml``, ``.yml``).

Pattern templates use ``#`` for a random digit and ``@`` for a random
uppercase letter; every other character is literal.  A column with
``determined_by`` draws its value from a deterministic mapping keyed on the
determinant's value (or its first ``key_prefix`` characters), so the
embedded dependency genuinely holds before error injection.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, Union

from ..constraints.base import CellRef
from ..dataset.mutations import DeleteOp, MutationBatch, UpdateOp, UpsertOp
from ..dataset.relation import Relation
from ..dataset.schema import Attribute, AttributeRole, Schema
from ..exceptions import ReproError
from .generators import GeneratedTable, _typo, dependency

_DIGITS = "0123456789"
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclasses.dataclass(frozen=True)
class ColumnSpec:
    """One column of a scenario table.

    Exactly one of ``pattern`` / ``domain`` supplies values.  A column with
    ``determined_by`` is functionally determined by that column: its value is
    a deterministic function of the determinant's value (truncated to
    ``key_prefix`` characters when set, which makes the dependency a *pattern*
    dependency on the determinant's prefix rather than a plain FD).
    """

    name: str
    pattern: Optional[str] = None
    domain: Optional[tuple[str, ...]] = None
    cardinality: int = 20
    skew: float = 0.0
    determined_by: Optional[str] = None
    key_prefix: Optional[int] = None
    role: str = "mixed"

    def __post_init__(self):
        if self.domain is not None:
            object.__setattr__(self, "domain", tuple(str(v) for v in self.domain))
        if self.pattern is None and self.domain is None:
            raise ReproError(f"column {self.name!r} needs a 'pattern' or a 'domain'")
        if self.pattern is not None and self.domain is not None:
            raise ReproError(f"column {self.name!r} has both 'pattern' and 'domain'")
        if self.cardinality < 1:
            raise ReproError(f"column {self.name!r} cardinality must be >= 1")
        if self.skew < 0:
            raise ReproError(f"column {self.name!r} skew must be >= 0")

    def attribute(self) -> Union[str, Attribute]:
        if self.role == "mixed":
            return self.name
        try:
            return Attribute(self.name, AttributeRole(self.role))
        except ValueError:
            raise ReproError(
                f"column {self.name!r} role {self.role!r} is not an AttributeRole"
            ) from None


@dataclasses.dataclass(frozen=True)
class ErrorProfile:
    """How much dirt to inject and where.

    ``rate`` is the per-row probability of corrupting one cell; ``columns``
    restricts the candidates (default: every non-determinant column).  Kinds:
    ``typo`` perturbs characters, ``swap`` replaces with another value from
    the column's pool.
    """

    rate: float = 0.0
    columns: Optional[tuple[str, ...]] = None
    kind: str = "typo"

    def __post_init__(self):
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError("error rate must be in [0, 1]")
        if self.kind not in ("typo", "swap"):
            raise ReproError(f"error kind must be 'typo' or 'swap', got {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class OpMix:
    """CRUD proportions for the mutation stream (normalized on use)."""

    update: float = 1.0
    append: float = 0.0
    delete: float = 0.0

    def __post_init__(self):
        if min(self.update, self.append, self.delete) < 0:
            raise ReproError("op-mix weights must be >= 0")
        if self.update + self.append + self.delete <= 0:
            raise ReproError("op-mix weights must not all be zero")

    def weights(self) -> tuple[float, float, float]:
        total = self.update + self.append + self.delete
        return (self.update / total, self.append / total, self.delete / total)


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A declarative table + workload description (see module docstring)."""

    name: str
    columns: tuple[ColumnSpec, ...]
    rows: int = 500
    seed: int = 0
    errors: ErrorProfile = dataclasses.field(default_factory=ErrorProfile)
    mix: OpMix = dataclasses.field(default_factory=OpMix)
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ReproError(f"scenario {self.name!r} needs at least one column")
        if self.rows < 1:
            raise ReproError(f"scenario {self.name!r} needs rows >= 1")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise ReproError(f"scenario {self.name!r} has duplicate column names")
        known = set(names)
        for column in self.columns:
            if column.determined_by is not None:
                if column.determined_by not in known:
                    raise ReproError(
                        f"column {column.name!r} is determined by unknown column "
                        f"{column.determined_by!r}"
                    )
                if column.determined_by == column.name:
                    raise ReproError(f"column {column.name!r} cannot determine itself")

    # -- dict / YAML round-trip ----------------------------------------------

    @classmethod
    def from_dict(cls, document: Mapping) -> "ScenarioSpec":
        if not isinstance(document, Mapping):
            raise ReproError("a scenario spec must be a mapping")
        unknown = set(document) - {
            "name", "columns", "rows", "seed", "errors", "mix", "description",
        }
        if unknown:
            raise ReproError(f"unknown scenario keys: {sorted(unknown)}")
        raw_columns = document.get("columns")
        if not isinstance(raw_columns, Sequence) or isinstance(raw_columns, (str, bytes)):
            raise ReproError("'columns' must be a list of column specs")
        columns = []
        for entry in raw_columns:
            if not isinstance(entry, Mapping):
                raise ReproError(f"each column spec must be a mapping, got {entry!r}")
            fields = {field.name for field in dataclasses.fields(ColumnSpec)}
            extra = set(entry) - fields
            if extra:
                raise ReproError(f"unknown column keys: {sorted(extra)}")
            if "domain" in entry and entry["domain"] is not None:
                entry = {**entry, "domain": tuple(entry["domain"])}
            columns.append(ColumnSpec(**entry))
        errors = document.get("errors") or {}
        mix = document.get("mix") or {}
        return cls(
            name=str(document.get("name") or "scenario"),
            columns=tuple(columns),
            rows=int(document.get("rows", 500)),
            seed=int(document.get("seed", 0)),
            errors=errors if isinstance(errors, ErrorProfile) else ErrorProfile(**errors),
            mix=mix if isinstance(mix, OpMix) else OpMix(**mix),
            description=str(document.get("description", "")),
        )

    def to_dict(self) -> dict:
        document = {
            "name": self.name,
            "description": self.description,
            "rows": self.rows,
            "seed": self.seed,
            "columns": [
                {
                    key: (list(value) if isinstance(value, tuple) else value)
                    for key, value in dataclasses.asdict(column).items()
                    if value is not None and (key, value) not in (
                        ("cardinality", 20), ("skew", 0.0), ("role", "mixed"),
                    )
                }
                for column in self.columns
            ],
            "errors": dataclasses.asdict(self.errors),
            "mix": dataclasses.asdict(self.mix),
        }
        if self.errors.columns is not None:
            document["errors"]["columns"] = list(self.errors.columns)
        return document

    # -- generation ------------------------------------------------------------

    def _pools(self, rng: random.Random) -> dict[str, list[str]]:
        """Distinct value pools per column, deterministic in the seed."""
        pools: dict[str, list[str]] = {}
        for column in self.columns:
            if column.domain is not None:
                pools[column.name] = list(column.domain)
                continue
            seen: dict[str, None] = {}
            attempts = 0
            limit = max(1000, column.cardinality * 50)
            while len(seen) < column.cardinality and attempts < limit:
                seen.setdefault(_fill_pattern(rng, column.pattern or ""), None)
                attempts += 1
            pools[column.name] = list(seen)
        return pools

    def _mappings(
        self, rng: random.Random, pools: dict[str, list[str]]
    ) -> dict[str, dict[str, str]]:
        """determinant-key -> value mapping for each determined column."""
        mappings: dict[str, dict[str, str]] = {}
        for column in self.columns:
            if column.determined_by is None:
                continue
            mapping: dict[str, str] = {}
            for value in pools[column.determined_by]:
                key = value[: column.key_prefix] if column.key_prefix else value
                if key not in mapping:
                    mapping[key] = rng.choice(pools[column.name])
            mappings[column.name] = mapping
        return mappings

    def _draw_row(
        self,
        rng: random.Random,
        pools: dict[str, list[str]],
        mappings: dict[str, dict[str, str]],
    ) -> list[str]:
        """One dependency-consistent row (determined columns follow their map)."""
        values: dict[str, str] = {}
        for column in self.columns:
            if column.determined_by is not None:
                continue
            values[column.name] = _skewed_choice(rng, pools[column.name], column.skew)
        # Determined columns may chain (a determined column determining
        # another); resolve until fixpoint — the validated DAG guarantees
        # progress.
        pending = [c for c in self.columns if c.determined_by is not None]
        while pending:
            remaining = []
            for column in pending:
                source = values.get(column.determined_by or "")
                if source is None:
                    remaining.append(column)
                    continue
                key = source[: column.key_prefix] if column.key_prefix else source
                mapping = mappings[column.name]
                if key not in mapping:
                    mapping[key] = rng.choice(pools[column.name])
                values[column.name] = mapping[key]
            if len(remaining) == len(pending):
                raise ReproError(
                    f"scenario {self.name!r} has a determined-by cycle among "
                    f"{sorted(c.name for c in remaining)}"
                )
            pending = remaining
        return [values[column.name] for column in self.columns]

    def _corrupt(
        self, rng: random.Random, row: list[str], pools: dict[str, list[str]]
    ) -> Optional[tuple[int, str, str]]:
        """Maybe corrupt one cell; returns (column index, dirty, original)."""
        if rng.random() >= self.errors.rate:
            return None
        candidates = self.errors.columns
        if candidates is None:
            candidates = tuple(
                column.name for column in self.columns if column.determined_by is not None
            ) or tuple(column.name for column in self.columns)
        index = self._column_index(rng.choice(list(candidates)))
        original = row[index]
        if self.errors.kind == "swap":
            pool = [v for v in pools[self.columns[index].name] if v != original]
            dirty = rng.choice(pool) if pool else _typo(rng, original)
        else:
            dirty = _typo(rng, original)
        if dirty == original:
            dirty = original + "x"
        return (index, dirty, original)

    def _column_index(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise ReproError(f"scenario {self.name!r} has no column {name!r}")

    def build(self, scale: float = 1.0, backend: Optional[str] = None) -> GeneratedTable:
        """Materialize the scenario as a :class:`GeneratedTable`."""
        rng = random.Random(self.seed)
        pools = self._pools(rng)
        mappings = self._mappings(rng, pools)
        row_count = max(1, int(round(self.rows * scale)))
        schema = Schema([column.attribute() for column in self.columns], name=self.name)
        relation = Relation(schema, backend=backend)
        rows = []
        errors: dict[CellRef, str] = {}
        for row_id in range(row_count):
            row = self._draw_row(rng, pools, mappings)
            corruption = self._corrupt(rng, row, pools)
            if corruption is not None:
                index, dirty, original = corruption
                row[index] = dirty
                errors[CellRef(row_id, self.columns[index].name)] = original
            rows.append(row)
        relation.append_rows(rows)
        true_dependencies = {
            dependency(column.determined_by, column.name)
            for column in self.columns
            if column.determined_by is not None
        }
        return GeneratedTable(
            name=self.name,
            repository="SCN",
            description=self.description or f"scenario {self.name}",
            relation=relation,
            true_dependencies=true_dependencies,
            oracles={},
            error_cells=errors,
        )

    # -- mutation stream -------------------------------------------------------

    def mutation_stream(
        self,
        relation: Relation,
        operations: int,
        batch_size: int = 1,
        seed: Optional[int] = None,
    ) -> Iterator[MutationBatch]:
        """Yield deterministic CRUD batches in the spec's op-mix proportions.

        Updates rewrite a random live row with fresh dependency-consistent
        values (dirtied at the spec's error rate), appends add fresh rows,
        deletes tombstone live rows.  Deleted rows never come back into the
        target pool.  ``operations`` counts individual ops; they are grouped
        into batches of ``batch_size``.  Updates and deletes only target rows
        that existed before their batch (the :meth:`Relation.apply`
        contract): rows appended by a batch join the pool once it is yielded.
        """
        if operations < 1:
            raise ReproError("mutation_stream needs operations >= 1")
        if batch_size < 1:
            raise ReproError("mutation_stream needs batch_size >= 1")
        rng = random.Random(self.seed + 1 if seed is None else seed)
        # Replay build()'s rng sequence so pools and determinant mappings are
        # the ones the built table actually used — a clean stream must stay
        # consistent with the existing rows.
        setup = random.Random(self.seed)
        pools = self._pools(setup)
        mappings = self._mappings(setup, pools)
        live = [r for r in range(relation.row_count) if r not in relation.deleted_rows]
        next_row = relation.row_count
        update_w, append_w, delete_w = self.mix.weights()
        emitted = 0
        while emitted < operations:
            ops = []
            appended: list[int] = []
            for _ in range(min(batch_size, operations - emitted)):
                roll = rng.random()
                if (roll < update_w or not append_w + delete_w) and live:
                    row_id = rng.choice(live)
                    row = self._draw_row(rng, pools, mappings)
                    corruption = self._corrupt(rng, row, pools)
                    if corruption is not None:
                        index, dirty, _original = corruption
                        row[index] = dirty
                    ops.append(UpdateOp(
                        row_id,
                        tuple(zip((c.name for c in self.columns), row)),
                    ))
                elif roll < update_w + append_w or not live:
                    row = self._draw_row(rng, pools, mappings)
                    corruption = self._corrupt(rng, row, pools)
                    if corruption is not None:
                        index, dirty, _original = corruption
                        row[index] = dirty
                    ops.append(UpsertOp((row,)))
                    appended.append(next_row)
                    next_row += 1
                else:
                    victim = live.pop(rng.randrange(len(live)))
                    ops.append(DeleteOp((victim,)))
                emitted += 1
            yield MutationBatch(ops)
            live.extend(appended)


# ---------------------------------------------------------------------------
# Loading from files
# ---------------------------------------------------------------------------


def scenario_from_yaml(text: str) -> ScenarioSpec:
    """Parse a YAML scenario spec (requires PyYAML; JSON is always available)."""
    try:
        import yaml
    except ImportError:  # pragma: no cover - environment-dependent
        raise ReproError(
            "YAML scenario specs need PyYAML; install it or use JSON"
        ) from None
    document = yaml.safe_load(text)
    if not isinstance(document, Mapping):
        raise ReproError("a YAML scenario spec must be a mapping at top level")
    return ScenarioSpec.from_dict(document)


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Load a scenario spec from a ``.json`` / ``.yaml`` / ``.yml`` file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".yaml", ".yml"):
        return scenario_from_yaml(text)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(f"scenario file {path} is not valid JSON: {error}")
    return ScenarioSpec.from_dict(document)


# ---------------------------------------------------------------------------
# The canonical scenario matrix
# ---------------------------------------------------------------------------

#: Four canonical table shapes the scenario tests sweep.  All are
#: update-heavy (70/20/10) so the delta paths get exercised by default.
SCENARIO_MATRIX: dict[str, ScenarioSpec] = {
    "tall_narrow": ScenarioSpec(
        name="tall_narrow",
        description="Many rows, two columns, strong prefix dependency",
        rows=1200,
        seed=101,
        columns=(
            ColumnSpec(name="code", pattern="@@###", cardinality=120, skew=0.6),
            ColumnSpec(name="region", pattern="R-#", cardinality=8,
                       determined_by="code", key_prefix=2),
        ),
        errors=ErrorProfile(rate=0.02, kind="swap"),
        mix=OpMix(update=0.7, append=0.2, delete=0.1),
    ),
    "wide_sparse": ScenarioSpec(
        name="wide_sparse",
        description="Eight columns, low cardinality, several independent FDs",
        rows=400,
        seed=102,
        columns=(
            ColumnSpec(name="dept", pattern="@@@", cardinality=6),
            ColumnSpec(name="floor", pattern="F#", cardinality=4, determined_by="dept"),
            ColumnSpec(name="badge", pattern="B-####", cardinality=350),
            ColumnSpec(name="shift", domain=("day", "night", "swing")),
            ColumnSpec(name="site", pattern="S##", cardinality=5, determined_by="shift"),
            ColumnSpec(name="grade", domain=("G1", "G2", "G3", "G4"), skew=1.0),
            ColumnSpec(name="status", domain=("active", "leave")),
            ColumnSpec(name="pay_band", pattern="P#", cardinality=4, determined_by="grade"),
        ),
        errors=ErrorProfile(rate=0.03, kind="swap"),
        mix=OpMix(update=0.7, append=0.2, delete=0.1),
    ),
    "high_cardinality": ScenarioSpec(
        name="high_cardinality",
        description="Near-key determinant column: many tiny partition classes",
        rows=800,
        seed=103,
        columns=(
            ColumnSpec(name="serial", pattern="@@-#####", cardinality=700),
            ColumnSpec(name="line", pattern="L#", cardinality=9,
                       determined_by="serial", key_prefix=2),
            ColumnSpec(name="qa", domain=("pass", "fail"), skew=1.5),
        ),
        errors=ErrorProfile(rate=0.015, kind="typo"),
        mix=OpMix(update=0.7, append=0.2, delete=0.1),
    ),
    "adversarial_free_start": ScenarioSpec(
        name="adversarial_free_start",
        description="Shared suffixes and typo dirt: patterns cannot anchor at 0",
        rows=600,
        seed=104,
        columns=(
            ColumnSpec(name="tag", pattern="###-@@X", cardinality=200, skew=0.8),
            ColumnSpec(name="bucket", pattern="K#", cardinality=6,
                       determined_by="tag", key_prefix=3),
            ColumnSpec(name="note", pattern="@#@#@", cardinality=500),
        ),
        errors=ErrorProfile(rate=0.04, kind="typo"),
        mix=OpMix(update=0.7, append=0.2, delete=0.1),
    ),
}


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _fill_pattern(rng: random.Random, template: str) -> str:
    out = []
    for char in template:
        if char == "#":
            out.append(rng.choice(_DIGITS))
        elif char == "@":
            out.append(rng.choice(_LETTERS))
        else:
            out.append(char)
    return "".join(out)


def _skewed_choice(rng: random.Random, pool: Sequence[str], skew: float) -> str:
    if skew <= 0 or len(pool) == 1:
        return rng.choice(pool)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=1)[0]
