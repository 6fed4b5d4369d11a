"""Crash consistency of the service's durable mirror: ``data.csv`` + ``data.log``.

Every write endpoint appends one framed, fsynced record of the batch's
post-images to the tenant's log before it answers.  These tests kill a
writing process at random points, damage the log's tail, replay a log over a
``data.csv`` that already holds it, and fail the disk, and check each time
that a rehydrated table equals what the service acknowledged.  Every test
runs on both engine backends.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import DiscoveryConfig, MutationBatch, Relation
from repro.dataset.mutations import batch_from_document
from repro.service import CleaningService, ConstraintRegistry

CONFIG = DiscoveryConfig(min_support=4)
COLUMNS = ["zip", "city"]
CITIES = ("Los Angeles", "New York", "Boston")


def _rows(count: int) -> list[list[str]]:
    return [[f"{10000 + i % 8:05d}", CITIES[i % 8 % 3]] for i in range(count)]


@pytest.fixture(params=["numpy", "sql"])
def engine(request) -> str:
    return request.param


@pytest.fixture
def root(tmp_path) -> Path:
    return tmp_path / "registry"


def _service(root: Path, engine: str) -> CleaningService:
    return CleaningService(ConstraintRegistry(root), config=CONFIG, backend=engine)


def _loaded(root: Path, engine: str, rows: int = 40) -> CleaningService:
    service = _service(root, engine)
    service.load_tenant("acme", columns=COLUMNS, rows=_rows(rows))
    service.discover("acme")
    return service


def _live_rows(service: CleaningService) -> list[tuple[str, ...]]:
    return list(service.manager.peek("acme").session.relation.iter_rows())


def _stored_rows(root: Path, engine: str) -> list[tuple[str, ...]]:
    return list(ConstraintRegistry(root).load_data("acme", backend=engine).iter_rows())


def _write(service: CleaningService, document: dict) -> dict:
    """One write: ``{"ingest": rows}`` goes to ``ingest``, anything else to
    ``update`` (the child process below does the same)."""
    if "ingest" in document:
        return service.ingest("acme", rows=document["ingest"])
    return service.update("acme", document)


def _write_stream(seed: int, rows: int, count: int) -> list[dict]:
    """Single-cell updates, deletes, and ingests of 1-40 rows, over a table
    that starts with ``rows`` rows."""
    rng = random.Random(seed)
    documents = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.5:
            documents.append({"cells": [[rng.randrange(rows), "city", rng.choice(CITIES)]]})
        elif kind < 0.65:
            documents.append({"delete": [rng.randrange(rows)]})
        else:
            batch = [[f"{10000 + rng.randrange(8):05d}", rng.choice(CITIES)]
                     for _ in range(rng.randint(1, 40))]
            documents.append({"ingest": batch})
            rows += len(batch)
    return documents


def _prefix_states(start: list[list[str]], documents: list[dict]) -> list[list[tuple]]:
    """The table after each prefix of ``documents`` (index = writes applied)."""
    relation = Relation.from_rows(COLUMNS, start)
    states = [list(relation.iter_rows())]
    for document in documents:
        if "ingest" in document:
            relation.apply(MutationBatch.appends(document["ingest"]))
        else:
            relation.apply(batch_from_document(document))
        states.append(list(relation.iter_rows()))
    return states


#: The writer: applies the documents in order and prints the index of each
#: write once the service has answered it.
_CHILD = """
import json, sys
from repro import DiscoveryConfig
from repro.service import CleaningService
root, engine, ops = sys.argv[1:]
service = CleaningService(root, config=DiscoveryConfig(min_support=4), backend=engine)
with open(ops) as handle:
    documents = json.load(handle)
for index, document in enumerate(documents):
    if "ingest" in document:
        service.ingest("acme", rows=document["ingest"])
    else:
        service.update("acme", document)
    print(index, flush=True)
"""


class TestKilledWriter:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rehydrated_table_is_the_acknowledged_prefix(self, tmp_path, root, engine, seed):
        """kill -9 a process streaming writes (the log compacts several times
        on the way); the table it leaves is every acknowledged write, plus
        possibly the one in flight, and nothing else."""
        start = _rows(24)
        _loaded(root, engine, rows=24).close()
        documents = _write_stream(seed, rows=24, count=200)
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps(documents))
        env = dict(os.environ, REPRO_ENGINE=engine)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(root), engine, str(ops_path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        rng = random.Random(seed)
        kill_after = rng.randrange(1, len(documents) // 2)
        acknowledged = 0
        try:
            while acknowledged < kill_after:
                line = child.stdout.readline()
                assert line, "the writer exited before it was killed"
                acknowledged = int(line) + 1
            time.sleep(rng.uniform(0, 0.01))  # may land inside a write
            os.kill(child.pid, signal.SIGKILL)
            # Acknowledgements printed before the kill are still in the pipe.
            for line in child.stdout:
                acknowledged = int(line) + 1
        finally:
            child.kill()
            child.wait(timeout=60)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        states = _prefix_states(start, documents)
        stored = _stored_rows(root, engine)
        assert stored in (states[acknowledged], states[acknowledged + 1])
        # The repaired log takes further writes: a restarted service goes on.
        with _service(root, engine) as service:
            _write(service, {"cells": [[0, "city", "Chicago"]]})
            live = _live_rows(service)
        assert _stored_rows(root, engine) == live


class TestDamagedTail:
    @pytest.mark.parametrize("damage", ["truncated", "corrupted", "corrupted-middle"])
    def test_log_is_cut_at_the_first_bad_record(self, root, engine, damage):
        service = _loaded(root, engine)
        log = service.registry.log_path("acme")
        states, sizes = [], []
        for document in ({"cells": [[0, "city", "Chicago"]]}, {"delete": [1]},
                         {"ingest": [["10007", "Boston"], ["10008", "Boston"]]}):
            _write(service, document)
            states.append(_live_rows(service))
            sizes.append(log.stat().st_size)
        service.close()
        raw = bytearray(log.read_bytes())
        if damage == "truncated":  # a torn append: half of the last record
            del raw[(sizes[1] + sizes[2]) // 2:]
            good = 1
        elif damage == "corrupted":  # a flipped byte in the last record
            raw[sizes[2] - 3] ^= 0xFF
            good = 1
        else:  # a flipped byte in the second record cuts the third too
            raw[sizes[1] - 3] ^= 0xFF
            good = 0
        log.write_bytes(bytes(raw))

        assert _stored_rows(root, engine) == states[good]
        assert log.stat().st_size == sizes[good]
        # The next append follows the last good record.
        with _service(root, engine) as service:
            _write(service, {"cells": [[2, "city", "Chicago"]]})
            live = _live_rows(service)
        assert _stored_rows(root, engine) == live


class TestCompaction:
    def test_log_grows_until_it_outweighs_data_csv(self, root, engine):
        service = _loaded(root, engine)
        registry = service.registry
        log, data = registry.log_path("acme"), registry.data_path("acme")
        csv_bytes = data.stat().st_size
        cities = itertools.cycle(("Chicago", "Boston"))
        _write(service, {"cells": [[0, "city", next(cities)]]})
        writes = 1
        while log.exists():
            assert log.stat().st_size <= csv_bytes
            _write(service, {"cells": [[0, "city", next(cities)]]})
            writes += 1
        # The batch that would have outgrown data.csv rewrote it instead.
        assert writes > 5
        assert _stored_rows(root, engine) == _live_rows(service)
        service.close()

    @pytest.mark.parametrize("rewrite", ["compaction", "load"])
    def test_log_of_an_older_data_csv_changes_nothing(self, root, engine, rewrite):
        """A crash between a rewrite's rename and the log's removal leaves
        the old log beside the new data.csv; replaying it changes nothing."""
        service = _loaded(root, engine)
        log = service.registry.log_path("acme")
        _write(service, {"cells": [[0, "city", "Chicago"]]})
        _write(service, {"ingest": [["10001", "Boston"]]})
        old_log = log.read_bytes()
        if rewrite == "compaction":
            _write(service, {"ingest": _rows(60)})
        else:
            service.load_tenant("acme", columns=COLUMNS, rows=_rows(30))
        assert not log.exists()
        live = _live_rows(service)
        service.close()
        log.write_bytes(old_log)

        assert _stored_rows(root, engine) == live
        assert not log.exists()

    def test_load_after_writes_starts_an_empty_log(self, root, engine):
        service = _loaded(root, engine)
        registry = service.registry
        _write(service, {"cells": [[0, "city", "Chicago"]]})
        _write(service, {"delete": [3]})
        assert registry.log_path("acme").exists()
        service.load_tenant("acme", columns=COLUMNS, rows=_rows(20))
        assert not registry.log_path("acme").exists()
        assert _stored_rows(root, engine) == [tuple(row) for row in _rows(20)]
        _write(service, {"ingest": [["10002", "Boston"]]})
        assert _stored_rows(root, engine) == _live_rows(service)
        service.close()


class TestFullDisk:
    def test_failed_log_append_is_truncated_and_evicts(self, root, engine, monkeypatch):
        service = _loaded(root, engine)
        _write(service, {"cells": [[0, "city", "Chicago"]]})
        log = service.registry.log_path("acme")
        size, before = log.stat().st_size, _live_rows(service)

        def full_disk(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", full_disk)
            with pytest.raises(OSError):
                _write(service, {"cells": [[1, "city", "Boston"]]})
        assert service.manager.peek("acme") is None
        assert log.stat().st_size == size
        assert _stored_rows(root, engine) == before
        assert service.detect("acme")["rows"] == len(before)
        service.close()
