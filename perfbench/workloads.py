"""The benchmark's three workloads.

Each workload builds its inputs from the seed (which replaces the
``ScenarioSpec.seed`` of its ``SCENARIO_MATRIX`` shape), runs ops in a
closed loop for a given number of seconds, and checks the program's outputs
afterwards.  An op is one pipeline run (clean_wide), one mutation
(crud_tall) or one HTTP request (service_mixed).  Everything runs serially
(``workers=1``): the machine this was sized on has two cores, too few to
show a process-pool speedup steadily.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Optional

from repro.datagen.scenario import SCENARIO_MATRIX, OpMix
from repro.dataset.csvio import relation_to_csv_string, write_csv
from repro.exceptions import ReproError
from repro.service import CleaningService, ConstraintRegistry, ServiceClient, start_server
from repro.session import CleaningSession
from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"


@dataclasses.dataclass(frozen=True)
class Sizes:
    clean_rows: int
    crud_rows: int
    service_rows: tuple[tuple[str, str, int], ...]
    #: Ops whose results the golden digests cover; a run does at least these.
    golden_ops: int


FULL = Sizes(
    clean_rows=20_000,
    crud_rows=48_000,
    service_rows=(("tall", "tall_narrow", 12_000), ("hicard", "high_cardinality", 8_000)),
    golden_ops=1000,
)
SMOKE = Sizes(
    clean_rows=400,
    crud_rows=1_200,
    service_rows=(("tall", "tall_narrow", 600), ("hicard", "high_cardinality", 400)),
    golden_ops=50,
)


@dataclasses.dataclass
class Op:
    """One completed op: what it was, how long it took, whether it worked."""

    op_id: int
    kind: str
    seconds: float
    ok: bool
    #: User payload bytes of a write request (service_mixed).
    payload_bytes: int = 0


_op_ids = itertools.count(1)


def next_op_id() -> int:
    return next(_op_ids)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def f1_score(flagged: set, planted: set) -> float:
    hits = len(flagged & planted)
    if not hits:
        return 0.0
    precision = hits / len(flagged)
    recall = hits / len(planted)
    return 2 * precision * recall / (precision + recall)


def load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


def golden_key(workload: str, sizes: Sizes, seed: int) -> str:
    return f"{workload}/{'full' if sizes is FULL else 'smoke'}/seed{seed}"


def wchar() -> int:
    """Bytes this process passed to write() on files.  Socket sends go
    through send(), which this counter does not include."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class Workload:
    """Shared shape: ``setup`` (repeatable), ``run``, ``checks``, ``close``."""

    name = ""
    #: Percentile reported as the per-layer ``op_tail_ms``, fixed per
    #: workload so that at least ten samples lie beyond it even on a slow run
    #: (None = maximum).
    tail_quantile: Optional[float] = None

    def __init__(self, sizes: Sizes, seed: int, work_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir
        #: Quality of the workload's detection against the planted errors.
        self.detect_f1 = 0.0
        #: Samples the machine's speed between ops (see ``speed.py``).
        self.probe = SpeedProbe()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> list[Op]:
        raise NotImplementedError

    def checks(self) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cumulative counters read from the program's public attributes."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass

    def _closed_loop(self, seconds: float, min_ops: int, op, tracer) -> list[Op]:
        """Run ``op`` back to back for ``seconds`` (and at least ``min_ops``)."""
        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        while len(ops) < min_ops or time.perf_counter() < deadline:
            self.probe.tick()
            op_id = next_op_id()
            if tracer is None:
                ops.append(op(op_id, None))
            else:
                tracer.set_op(op_id)
                ops.append(tracer.call("op", op, op_id, tracer))
                tracer.set_op(0)
        return ops


# ---------------------------------------------------------------------------
# clean_wide: the paper's pipeline, CSV in, report out, in a fresh process
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _CleanInput:
    input_csv: Path
    output_csv: Path
    report_json: Path
    planted: set


class CleanWide(Workload):
    """``pfd-discover clean`` on wide_sparse, one cold process per op."""

    name = "clean_wide"
    tail_quantile = None
    #: A wide_sparse table's cleaning cost depends on which dependencies its
    #: seed happens to plant (about +-20% between seeds), so a run cycles
    #: through several tables generated from its seed.
    tables = 8

    def setup(self) -> None:
        self.inputs: list[_CleanInput] = []
        for k in range(self.tables):
            spec = dataclasses.replace(
                SCENARIO_MATRIX["wide_sparse"],
                rows=self.sizes.clean_rows,
                seed=self.seed * self.tables + k,
            )
            table = spec.build()
            entry = _CleanInput(
                input_csv=self.work_dir / f"input-{k}.csv",
                output_csv=self.work_dir / f"cleaned-{k}.csv",
                report_json=self.work_dir / f"report-{k}.json",
                planted={(k, cell.row_id, cell.attribute) for cell in table.error_cells},
            )
            write_csv(table.relation, entry.input_csv)
            self.inputs.append(entry)
        self.child_trace = self.work_dir / "child-trace.json"
        self.child_stderr = self.work_dir / "child-stderr.txt"
        self.exit_codes: list[int] = []
        self.child_rss_mb: list[float] = []
        self.stat_totals: dict[str, float] = {}
        self._next_input = itertools.count()

    def _command(self, entry: _CleanInput, traced: bool) -> list[str]:
        arguments = [
            "clean", str(entry.input_csv),
            "--output", str(entry.output_csv),
            "--report", str(entry.report_json),
            "--workers", "1",
        ]
        if traced:
            return [sys.executable, str(BENCH_DIR / "clean_child.py"), str(self.child_trace)] + arguments
        return [sys.executable, "-m", "repro.cli"] + arguments

    def _op(self, op_id: int, tracer) -> Op:
        entry = self.inputs[next(self._next_input) % self.tables]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        with self.child_stderr.open("wb") as stderr:
            start = time.perf_counter()
            process = subprocess.Popen(
                self._command(entry, tracer is not None),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                env=env,
            )
            # wait4 reaps the child and returns its own resource usage.
            _pid, status, usage = os.wait4(process.pid, 0)
            seconds = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb.append(usage.ru_maxrss / 1024)
        # Exit 1 means suspect cells remain after repair: a normal outcome.
        ok = process.returncode in (0, 1)
        self.exit_codes.append(process.returncode)
        if not ok:
            sys.stderr.write(self.child_stderr.read_text(errors="replace")[-2000:])
            return Op(op_id, "clean", seconds, ok)
        stats = json.loads(entry.report_json.read_text())["stats"]
        for key in ("match_calls", "match_cache_hits", "multi_scans",
                    "partition_hits", "partition_misses"):
            self.stat_totals[key] = self.stat_totals.get(key, 0) + stats[key]
        if tracer is not None:
            tracer.absorb(self.child_trace, op_id)
        return Op(op_id, "clean", seconds, ok)

    def run(self, seconds: float, tracer=None) -> list[Op]:
        # Every table must have run once before the output checks.
        pending = max(0, self.tables - len(self.exit_codes))
        return self._closed_loop(seconds, pending, self._op, tracer)

    def counters(self) -> dict[str, float]:
        return {
            "evaluator.match_calls": self.stat_totals.get("match_calls", 0),
            "evaluator.cache_hits": self.stat_totals.get("match_cache_hits", 0),
            "evaluator.multi_scans": self.stat_totals.get("multi_scans", 0),
            "partitions.hits": self.stat_totals.get("partition_hits", 0),
            "partitions.misses": self.stat_totals.get("partition_misses", 0),
        }

    def peak_rss_mb(self) -> float:
        """Median over ops of the ``clean`` process's peak RSS: the maximum
        would follow whichever of the run's tables is heaviest."""
        return statistics.median(self.child_rss_mb)

    @staticmethod
    def _read_rows(path: Path) -> list[list[str]]:
        with path.open(newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))

    def checks(self) -> list[tuple[str, bool]]:
        results = [("clean: every op exited 0 or 1",
                    all(code in (0, 1) for code in self.exit_codes))]
        flagged: set = set()
        planted: set = set()
        for k, entry in enumerate(self.inputs):
            report = json.loads(entry.report_json.read_text())
            before = self._read_rows(entry.input_csv)
            after = self._read_rows(entry.output_csv)
            header = before[0]
            changed = {
                (k, row_id, header[column])
                for row_id, (old, new) in enumerate(zip(before[1:], after[1:]))
                for column in range(len(header))
                if old[column] != new[column]
            }
            flagged |= changed
            planted |= entry.planted
            results += [
                (f"clean {k}: repaired CSV keeps the input's shape",
                 len(before) == len(after) and after[0] == header),
                (f"clean {k}: detected_errors == repairs_applied + unresolved_cells",
                 report["detected_errors"]
                 == report["repairs_applied"] + report["unresolved_cells"]),
                (f"clean {k}: repairs_applied == cells changed in the repaired CSV",
                 report["repairs_applied"] == len(changed)),
            ]
        self.detect_f1 = f1_score(flagged, planted)
        golden = load_golden().get(golden_key(self.name, self.sizes, self.seed))
        if golden is not None:
            results.append(("clean: reports and repaired CSVs match the golden digests",
                             self.digests() == golden))
        return results

    def digests(self) -> list[dict[str, str]]:
        """Per-table output digests, minus run-specific paths and counters."""
        digests = []
        for entry in self.inputs:
            report = json.loads(entry.report_json.read_text())
            for key in ("input", "output", "stats"):
                report.pop(key, None)
            digests.append({
                "report": sha256(json.dumps(report, sort_keys=True).encode()),
                "repaired_csv": sha256(entry.output_csv.read_bytes()),
            })
        return digests


# ---------------------------------------------------------------------------
# crud_tall: a warm session absorbing single-op CRUD batches
# ---------------------------------------------------------------------------


class CrudTall(Workload):
    """apply + detect_changed per op on a warm 48k-row tall_narrow session."""

    name = "crud_tall"
    tail_quantile = 0.99

    def setup(self) -> None:
        self.session = None  # drop the previous setup's state before building
        spec = dataclasses.replace(
            SCENARIO_MATRIX["tall_narrow"], rows=self.sizes.crud_rows, seed=self.seed
        )
        table = spec.build()
        session = CleaningSession(table.relation, workers=1)
        session.discover()
        initial = session.detect()
        self.detect_f1 = f1_score(
            {(e.cell.row_id, e.cell.attribute) for e in initial.errors},
            {(cell.row_id, cell.attribute) for cell in table.error_cells},
        )
        # batch_size=1: larger batches can update rows appended earlier in
        # the same batch, which Relation.apply rejects (a known stream bug).
        self.stream = spec.mutation_stream(session.relation, operations=10**9, batch_size=1)
        self.session = session
        #: Scoped error count per op (None for a no-op batch).
        self.error_counts: list[Optional[int]] = []

    def _op(self, op_id: int, tracer) -> Op:
        batch = next(self.stream)
        start = time.perf_counter()
        try:
            result = self.session.apply(batch)
            # A batch whose updates all match the stored values changes
            # nothing, and detect_changed then has no delta: skip it, as the
            # service does.
            count = len(self.session.detect_changed().errors) if result else None
        except ReproError as error:
            sys.stderr.write(f"crud_tall op {op_id} failed: {error}\n")
            return Op(op_id, "mutation", time.perf_counter() - start, False)
        seconds = time.perf_counter() - start
        self.error_counts.append(count)
        return Op(op_id, "mutation", seconds, True)

    def run(self, seconds: float, tracer=None) -> list[Op]:
        pending = max(0, self.sizes.golden_ops - len(self.error_counts))
        return self._closed_loop(seconds, pending, self._op, tracer)

    def counters(self) -> dict[str, float]:
        evaluator = self.session.evaluator
        stats = self.session.relation.partitions().stats
        return {
            "evaluator.match_calls": evaluator.match_calls,
            "evaluator.cache_hits": evaluator.cache_hits,
            "evaluator.multi_scans": evaluator.multi_scans,
            "partitions.hits": stats.hits,
            "partitions.misses": stats.misses,
        }

    def golden_digest(self) -> str:
        counts = self.error_counts[: self.sizes.golden_ops]
        return sha256(json.dumps(counts).encode())

    def checks(self) -> list[tuple[str, bool]]:
        pfds = self.session.pfds
        warm = _error_rows(self.session.detect(pfds).errors)
        cold = _error_rows(
            CleaningSession(self.session.relation.copy(), workers=1).detect(pfds).errors
        )
        results = [("crud: warm full detect equals a cold rebuild", warm == cold)]
        golden = load_golden().get(golden_key(self.name, self.sizes, self.seed))
        if golden is not None and len(self.error_counts) >= self.sizes.golden_ops:
            results.append(("crud: scoped error counts match the golden digest",
                            self.golden_digest() == golden["error_counts"]))
        return results


def _error_rows(errors) -> list[tuple]:
    return [
        (e.cell.row_id, e.cell.attribute, e.current_value, e.suggested_value, e.evidence_count)
        for e in errors
    ]


# ---------------------------------------------------------------------------
# service_mixed: HTTP in, JSON out, one closed-loop client
# ---------------------------------------------------------------------------

#: The requests each tenant receives, in this order, over and over: 60%
#: detect, 10% validate, 20% update, 10% ingest.
SERVICE_CYCLE = ("update", "detect", "detect", "validate", "detect",
                 "update", "detect", "detect", "ingest", "detect")
INGEST_ROWS = 10


class ServiceMixed(Workload):
    """One ServiceClient against an in-process cleaning service, alternating
    between the tenants and walking ``SERVICE_CYCLE`` on each.

    The fixed sequence fixes which detects find a fresh memo and which
    recompute after a write, so the seed moves only the data.  With two
    client threads, or request kinds drawn at random, that share would
    depend on thread interleaving or on the seed, and throughput and median
    latency spread past their bound between runs.
    """

    name = "service_mixed"
    tail_quantile = 0.95

    def setup(self) -> None:
        self.close()
        registry_dir = self.work_dir / "registry"
        shutil.rmtree(registry_dir, ignore_errors=True)
        self.registry_dir = registry_dir
        self.service = CleaningService(
            registry_dir, max_sessions=len(self.sizes.service_rows), workers=1
        )
        self.server = start_server(self.service, port=0, quiet=True)
        self.server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.server_thread.start()
        client = ServiceClient(self.server.url)
        self.tenants: dict[str, dict] = {}
        flagged: set = set()
        planted: set = set()
        for tenant, shape, rows in self.sizes.service_rows:
            spec = dataclasses.replace(SCENARIO_MATRIX[shape], rows=rows, seed=self.seed)
            table = spec.build()
            relation = table.relation
            client.load(tenant, csv_text=relation_to_csv_string(relation))
            client.discover(tenant)
            report = client.detect(tenant)  # warms the tenant's caches
            flagged |= {(tenant, e["row"], e["attribute"]) for e in report["errors"]}
            planted |= {(tenant, c.row_id, c.attribute) for c in table.error_cells}
            self.tenants[tenant] = {"spec": spec, "relation": relation}
        self.detect_f1 = f1_score(flagged, planted)
        # Request state lives as long as the set-up, so a second run() (a
        # traced slice) continues the streams instead of replaying writes
        # that would now be no-ops.
        self.requests_sent = 0
        self.updates = {t: self._updates(t) for t in self.tenants}
        self.ingests = {t: self._ingests(t) for t in self.tenants}

    def _stream(self, tenant: str, mix: OpMix, batch_size: int):
        """The tenant scenario's own mutation stream, restricted to ``mix``:
        rows follow the planted dependencies and are dirtied at the spec's
        error rate, so the tables' error count stays level through a run."""
        info = self.tenants[tenant]
        stream = dataclasses.replace(info["spec"], mix=mix).mutation_stream(
            info["relation"], operations=10**9, batch_size=batch_size,
            seed=self.seed * 1000 + batch_size,
        )
        # Pull the first batch now: the stream's set-up replays the table's
        # generation and must not land inside the timed region.
        first = next(stream)
        return itertools.chain([first], stream)

    def _updates(self, tenant: str):
        """Single-row updates: every cell of one existing row."""
        for batch in self._stream(tenant, OpMix(update=1.0), 1):
            (op,) = batch.ops
            yield [[op.row_id, attribute, value] for attribute, value in op.values]

    def _ingests(self, tenant: str):
        """10-row append batches."""
        for batch in self._stream(tenant, OpMix(update=0.0, append=1.0), INGEST_ROWS):
            yield [list(op.rows[0]) for op in batch.ops]

    @staticmethod
    def _request(op_id: int, kind: str, request, payload, tracer) -> Op:
        expected = "entries" if kind == "validate" else "error_count"
        start = time.perf_counter()
        try:
            if tracer is None:
                document = request()
            else:
                tracer.set_op(op_id)
                try:
                    document = tracer.call("op", request)
                finally:
                    tracer.set_op(0)
            ok = isinstance(document, dict) and expected in document
        except Exception:  # noqa: BLE001 - a failed request is a failed op, not a crash
            sys.stderr.write(f"service_mixed op {op_id} ({kind}) failed:\n")
            traceback.print_exc()
            ok = False
        seconds = time.perf_counter() - start
        size = 0
        if payload is not None:
            size = len(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
        return Op(op_id, kind, seconds, ok, size)

    def run(self, seconds: float, tracer=None) -> list[Op]:
        client = ServiceClient(self.server.url)
        tenants = sorted(self.tenants)
        ops: list[Op] = []
        written_before = wchar()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.probe.tick()
            turn, tenant_index = divmod(self.requests_sent, len(tenants))
            tenant = tenants[tenant_index]
            kind = SERVICE_CYCLE[turn % len(SERVICE_CYCLE)]
            self.requests_sent += 1
            payload = None
            if kind == "detect":
                request = lambda: client.detect(tenant)  # noqa: E731
            elif kind == "validate":
                request = lambda: client.validate(tenant)  # noqa: E731
            elif kind == "update":
                cells = next(self.updates[tenant])
                payload = {"cells": cells, "min_evidence": 1}
                request = lambda: client.update(tenant, {"cells": cells})  # noqa: E731
            else:
                rows = next(self.ingests[tenant])
                payload = {"min_evidence": 1, "rows": rows}
                request = lambda: client.ingest(tenant, rows=rows)  # noqa: E731
            ops.append(self._request(next_op_id(), kind, request, payload, tracer))
        self.written_bytes = wchar() - written_before
        return ops

    def counters(self) -> dict[str, float]:
        totals = {
            "evaluator.match_calls": 0, "evaluator.cache_hits": 0, "evaluator.multi_scans": 0,
            "partitions.hits": 0, "partitions.misses": 0, "rwlock.acquisitions": 0,
        }
        for tenant in self.tenants:
            runtime = self.service.manager.peek(tenant)
            if runtime is None:
                continue
            evaluator = runtime.session.evaluator
            stats = runtime.session.relation.partitions().stats
            totals["evaluator.match_calls"] += evaluator.match_calls
            totals["evaluator.cache_hits"] += evaluator.cache_hits
            totals["evaluator.multi_scans"] += evaluator.multi_scans
            totals["partitions.hits"] += stats.hits
            totals["partitions.misses"] += stats.misses
            totals["rwlock.acquisitions"] += (
                runtime.lock.read_acquisitions + runtime.lock.write_acquisitions
            )
        totals["manager.rehydrations"] = self.service.manager.stats().rehydrated
        totals["registry.bytes_written"] = wchar()
        return totals

    def checks(self) -> list[tuple[str, bool]]:
        client = ServiceClient(self.server.url)
        registry = ConstraintRegistry(self.registry_dir)
        results = []
        for tenant in sorted(self.tenants):
            live = client.detect(tenant)["errors"]
            pfds, _metadata = registry.load_constraints(tenant)
            stored = registry.load_data(tenant)
            live_rows = list(self.service.manager.peek(tenant).session.relation.iter_rows())
            results.append((f"service: {tenant} data.csv holds the live table",
                            list(stored.iter_rows()) == live_rows))
            cold = CleaningSession(stored, workers=1).detect(pfds)
            cold_doc = [
                {
                    "row": e.cell.row_id,
                    "attribute": e.cell.attribute,
                    "value": e.current_value,
                    "suggested": e.suggested_value,
                    "evidence": e.evidence_count,
                    "constraints": list(e.constraints),
                }
                for e in cold.errors
            ]
            results.append((f"service: {tenant} live detect equals a cold detect on data.csv",
                            live == cold_doc))
        return results

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        server.shutdown()
        self.server_thread.join(timeout=30)
        server.close()
        self.server = None


WORKLOADS = {cls.name: cls for cls in (CleanWide, CrudTall, ServiceMixed)}
