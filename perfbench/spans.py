"""Span tracing for the benchmark, installed from outside the program.

The program has no tracing of its own yet, so a traced run monkeypatches the
public functions at each layer boundary, at the module or class binding the
caller actually uses (``repro.discovery.pfd_discovery.induce_pattern``, not
``repro.patterns.induction.induce_pattern``).  Each wrapped call records one
span: id, name, start, end, parent span (per thread) and the operation id of
the benchmark op it serves.  Spans are kept in memory and written out once,
as Chrome trace-event JSON that Perfetto and ``chrome://tracing`` open.

:meth:`Tracer.install` is the only thing that patches, and
:meth:`Tracer.uninstall` restores every original binding, so an untraced
run executes the program exactly as shipped.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import json
import os
import threading
import time
import urllib.request
from pathlib import Path
from typing import Callable, Optional

#: Header a traced client request carries so server-side spans join the op.
OP_HEADER = "X-Bench-Op"

# Span name -> per-layer self-time metric.  Spans not listed here (the
# ``op`` root and the ``session.*`` facade) are not layers: their self time
# is the op's unattributed time.
LAYER_OF = {
    "csvio.read_csv": "csvio.read_s",
    "csvio.write_csv": "csvio.write_s",
    "dictionary.from_values": "dictionary.encode_s",
    "dictionary.extend": "dictionary.encode_s",
    "dictionary.update_rows": "dictionary.encode_s",
    "index.build": "index.build_s",
    "index.keys_for_rows": "index.build_s",
    "induction.induce_pattern": "induction.induce_s",
    "discovery.discover": "discovery.self_s",
    "evaluator.match_column": "evaluator.match_s",
    "evaluator.match_column_many": "evaluator.match_s",
    "partitions.attribute_partition": "partitions.build_s",
    "partitions.pattern_partition": "partitions.build_s",
    "partitions.intersection": "partitions.build_s",
    "partitions.extend": "partitions.patch_s",
    "partitions.apply_update": "partitions.patch_s",
    "relation.apply": "relation.apply_s",
    "pfd.violations": "pfd.violations_s",
    "detector.detect": "detector.self_s",
    "repair.repair": "repair.self_s",
    "rwlock.acquire_read": "rwlock.read_wait_s",
    "rwlock.acquire_write": "rwlock.write_wait_s",
    "registry.save_data": "registry.mirror_s",
    "registry.append_data": "registry.mirror_s",
    "registry.save_constraints": "registry.mirror_s",
    "manager.checkout": "manager.checkout_s",
    "app.detect": "app.self_s",
    "app.validate": "app.self_s",
    "app.update": "app.self_s",
    "app.ingest": "app.self_s",
    "http.dispatch": "http.dispatch_s",
}

#: Endpoint spans whose duration ``http.overhead_s`` subtracts from the
#: client-observed latency.
ENDPOINT_SPANS = ("app.detect", "app.validate", "app.update", "app.ingest")


def _count_discovery(tracer, args, kwargs, result):
    tracer.count("discovery.candidates", result.candidate_count)
    tracer.count("discovery.accepted", len(result.dependencies))


def _count_violations(tracer, args, kwargs, result):
    tracer.count("pfd.violations", len(result))
    changed = kwargs.get("changed_rows")
    if changed is not None:
        tracer.count("pfd.changed_rows", len(set(changed)))
        tracer.count("pfd.changed_cells", sum(len(v.cells) for v in result))


def _count_detector(tracer, args, kwargs, result):
    tracer.count("detector.errors", len(result.errors))


def _count_new_distinct(tracer, args, kwargs, result):
    tracer.count("dictionary.distinct_values", args[0].distinct_count - result.old_distinct_count)


def _count_from_values(tracer, args, kwargs, result):
    tracer.count("dictionary.distinct_values", result.distinct_count)


# (span name, module, attribute path, optional post-call counter).
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("csvio.read_csv", "repro.session", "read_csv", None),
    ("csvio.read_csv", "repro.cli", "read_csv", None),
    ("csvio.read_csv", "repro.service.app", "read_csv", None),
    ("csvio.read_csv", "repro.service.registry", "read_csv", None),
    ("csvio.write_csv", "repro.cli", "write_csv", None),
    ("dictionary.from_values", "repro.engine.dictionary", "DictionaryColumn.from_values",
     _count_from_values),
    ("dictionary.extend", "repro.engine.dictionary", "DictionaryColumn.extend",
     _count_new_distinct),
    ("dictionary.update_rows", "repro.engine.dictionary", "DictionaryColumn.update_rows",
     _count_new_distinct),
    ("index.build", "repro.dataset.index", "PatternIndex.__init__", None),
    ("index.keys_for_rows", "repro.dataset.index", "AttributeIndex.keys_for_rows", None),
    ("induction.induce_pattern", "repro.discovery.pfd_discovery", "induce_pattern", None),
    ("induction.induce_pattern", "repro.discovery.generalization", "induce_pattern", None),
    ("discovery.discover", "repro.discovery.pfd_discovery", "PFDDiscoverer.discover",
     _count_discovery),
    ("evaluator.match_column", "repro.engine.evaluator", "PatternEvaluator.match_column", None),
    ("evaluator.match_column_many", "repro.engine.evaluator",
     "PatternEvaluator.match_column_many", None),
    ("partitions.attribute_partition", "repro.engine.partitions",
     "PartitionManager.attribute_partition", None),
    ("partitions.pattern_partition", "repro.engine.partitions",
     "PartitionManager.pattern_partition", None),
    ("partitions.intersection", "repro.engine.partitions", "PartitionManager.intersection", None),
    ("partitions.extend", "repro.engine.partitions", "PartitionManager.extend", None),
    ("partitions.apply_update", "repro.engine.partitions", "PartitionManager.apply_update", None),
    ("relation.apply", "repro.dataset.relation", "Relation.apply", None),
    ("pfd.violations", "repro.core.pfd", "PFD.violations", _count_violations),
    ("detector.detect", "repro.cleaning.detector", "ErrorDetector.detect", _count_detector),
    ("repair.repair", "repro.cleaning.repair", "Repairer.repair", None),
    ("session.discover", "repro.session", "CleaningSession.discover", None),
    ("session.detect", "repro.session", "CleaningSession.detect", None),
    ("session.repair", "repro.session", "CleaningSession.repair", None),
    ("session.validate", "repro.session", "CleaningSession.validate", None),
    ("session.apply", "repro.session", "CleaningSession.apply", None),
    ("session.detect_changed", "repro.session", "CleaningSession.detect_changed", None),
    ("session.detect_new", "repro.session", "CleaningSession.detect_new", None),
    ("rwlock.acquire_read", "repro.service.rwlock", "RWLock.acquire_read", None),
    ("rwlock.acquire_write", "repro.service.rwlock", "RWLock.acquire_write", None),
    ("registry.save_data", "repro.service.registry", "ConstraintRegistry.save_data", None),
    ("registry.append_data", "repro.service.registry", "ConstraintRegistry.append_data", None),
    ("registry.save_constraints", "repro.service.registry",
     "ConstraintRegistry.save_constraints", None),
    ("manager.checkout", "repro.service.manager", "SessionManager.checkout", None),
    ("app.detect", "repro.service.app", "CleaningService.detect", None),
    ("app.validate", "repro.service.app", "CleaningService.validate", None),
    ("app.update", "repro.service.app", "CleaningService.update", None),
    ("app.ingest", "repro.service.app", "CleaningService.ingest", None),
)

#: Marks a patched attribute that the owner did not define itself (it was
#: inherited), so uninstall deletes the override instead of restoring it.
_MISSING = object()


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, op id, pid, thread id) tuples;
        #: list.append is atomic, so threads share one list without a lock.
        self.spans: list[tuple] = []
        #: (op id, counter name, value) tuples.
        self.counts: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_op(self) -> int:
        return getattr(self._local, "op", 0)

    def set_op(self, op_id: int) -> None:
        self._local.op = op_id

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.current_op, name, value))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.current_op, os.getpid(),
                 threading.get_ident())
            )

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._restore.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer boundary in :data:`TARGETS` (plus the HTTP hooks)."""
        for name, module_name, path, after in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, after))
            else:
                replacement = self._wrap(name, raw, after)
            self._patch(owner, attribute, replacement)
        self._install_http()

    def _install_http(self) -> None:
        from repro.service import http as service_http

        tracer = self
        handler = service_http._Handler
        dispatch = handler._dispatch
        send_header = handler.send_header

        def traced_dispatch(self, method):
            tracer.set_op(int(self.headers.get(OP_HEADER) or 0))
            try:
                return tracer.call("http.dispatch", dispatch, self, method)
            finally:
                tracer.set_op(0)

        def counted_send_header(self, keyword, value):
            if keyword == "Content-Length":
                tracer.count("http.response_bytes", int(value))
            return send_header(self, keyword, value)

        self._patch(handler, "_dispatch", traced_dispatch)
        self._patch(handler, "send_header", counted_send_header)

        request_class = urllib.request.Request

        def tagged_request(*args, **kwargs):
            request = request_class(*args, **kwargs)
            if tracer.current_op:
                request.add_header(OP_HEADER, str(tracer.current_op))
            return request

        self._patch(urllib.request, "Request", tagged_request)

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- export ----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write spans and counters as JSON (the traced child process uses
        this to hand its trace back to the benchmark)."""
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def absorb(self, path: Path, op_id: int) -> None:
        """Merge a child process's dumped trace, re-labelled with ``op_id``."""
        document = json.loads(path.read_text())
        # Child ids restart at 1; shift them clear of this process's ids.
        offset = 10_000_000 * op_id
        for span_id, name, start, end, parent, _op, pid, tid in document["spans"]:
            self.spans.append(
                (offset + span_id, name, start, end, offset + parent if parent else 0,
                 op_id, pid, tid)
            )
        for _op, name, value in document["counts"]:
            self.counts.append((op_id, name, value))


def chrome_trace(spans: list[tuple]) -> dict:
    """Chrome trace-event document: one complete ("X") event per span."""
    origin = min((span[2] for span in spans), default=0.0)
    events = []
    for span_id, name, start, end, parent, op_id, pid, tid in spans:
        events.append({
            "name": name,
            "cat": LAYER_OF.get(name, "op" if name == "op" else "session"),
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": {"id": span_id, "parent": parent, "op": op_id},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = collections.defaultdict(float)
    for _id, _name, start, end, parent, *_rest in spans:
        if parent:
            children[parent] += end - start
    return {span[0]: (span[3] - span[2]) - children[span[0]] for span in spans}
