"""Command line interface: ``pfd-discover``.

Every data-facing sub-command is a thin shell over one
:class:`~repro.session.CleaningSession`: the CSV is loaded once, the engine
caches (evaluator, dictionaries, stripped partitions) are primed once, and
the stages compose — ``clean`` runs discover → detect → repair end-to-end
without re-reading or re-priming anything.

Sub-commands
------------
``discover``  — run PFD discovery on a CSV file and print the dependencies.
``detect``    — discover (or load) PFDs and report suspected errors.
``repair``    — discover (or load) PFDs, detect, and apply repairs.
``clean``     — end-to-end: discover → detect → repair → write the repaired
                CSV plus a JSON report.  Exits 0 when the repaired table is
                clean, 1 when suspect cells remain, 2 on errors.
``ingest``    — append a CSV of new rows to a cleaned base table and report
                only the errors the batch introduced (delta detection over
                the incrementally maintained engine caches).  Same exit-code
                convention as ``clean``: 0 delta clean, 1 new errors, 2 on
                failure.
``update``    — apply a mutation document (cell overwrites / deletes /
                appends from an ``--ops`` JSON file or repeated ``--cell``
                flags) to a base table and report only the errors among the
                touched tuples — the same delta-report shape and exit codes
                as ``ingest``.
``delete``    — tombstone rows (``--rows 3,5,7``) and re-check the classes
                they left; same report shape and exit codes as ``update``.
``scenario``  — build a schema-driven scenario (a JSON/YAML spec file or a
                named shape from the built-in matrix), stream its CRUD
                op-mix through the session, and report the surviving errors.
``validate``  — load saved PFDs and report per-PFD coverage / violations.
``suite``     — materialize the 15-table synthetic benchmark suite to CSV.
``experiment``— run one of the paper's experiments (table3/table7/table8/
                figure5/figure6/efficiency) and print the reproduced rows.
``serve``     — run the long-lived cleaning service daemon: concurrent
                tenant sessions over a persistent constraint registry
                (see :mod:`repro.service`).
``client``    — drive a running daemon over HTTP (load/discover/detect/
                ingest/update/delete/validate/repair/stats/…); prints the
                JSON response.  ``detect``/``ingest``/``update``/``delete``
                exit 1 when errors were found, so the smoke jobs can assert
                on cleanliness.

``--stats`` (on discover/detect/validate/repair/clean) prints the session's
:class:`~repro.session.SessionStats` — shared-cache counters covering both
pattern matching and the partition layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .cleaning.detector import DetectionReport
from .core.serialization import load_pfds, save_pfds
from .datagen.suite import materialize_suite
from .dataset.csvio import read_csv, write_csv
from .dataset.mutations import DeleteOp, MutationBatch, UpdateOp, batch_from_document
from .discovery.config import DiscoveryConfig
from .engine.backend import available_backends
from .exceptions import ReproError
from .session import CleaningSession


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-support", type=int, default=5,
                        help="minimum support K of a pattern (default 5)")
    parser.add_argument("--noise", type=float, default=0.05,
                        help="allowed violation ratio delta (default 0.05)")
    parser.add_argument("--min-coverage", type=float, default=0.10,
                        help="minimum tableau coverage gamma (default 0.10)")
    parser.add_argument("--max-lhs", type=int, default=1,
                        help="maximum number of LHS attributes (default 1)")
    parser.add_argument("--no-generalize", action="store_true",
                        help="keep constant PFDs instead of generalizing to variable PFDs")
    _add_stats_argument(parser)


def _add_stats_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats", action="store_true",
                        help="print the session's shared-cache counters "
                             "(pattern matching + partition cache)")
    parser.add_argument("--engine", default=None, metavar="BACKEND",
                        help="engine backend: 'numpy' (in-memory engine, "
                             "default) or 'sql' (out-of-core SQLite store for "
                             "tables larger than RAM); both produce identical "
                             "results")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="process-parallel workers for discovery "
                             "(default: REPRO_WORKERS env var, else 1 = "
                             "serial; detection is always serial); results "
                             "are identical at any worker count")


def _config_from_args(args: argparse.Namespace) -> DiscoveryConfig:
    return DiscoveryConfig(
        min_support=args.min_support,
        noise_ratio=args.noise,
        min_coverage=args.min_coverage,
        max_lhs_size=args.max_lhs,
        generalize=not args.no_generalize,
    )


def _resolve_engine(args: argparse.Namespace) -> Optional[str]:
    """Validate ``--engine`` eagerly — before any CSV is read — so a typo
    fails with the available choices instead of a late resolution error
    deep in the pipeline."""
    engine = getattr(args, "engine", None)
    if engine is None:
        return None
    normalized = engine.strip().lower()
    available = available_backends()
    if normalized not in available:
        raise ReproError(
            f"unknown engine backend {engine!r}: "
            f"available backends are {', '.join(available)}"
        )
    return normalized


def _session_from_args(args: argparse.Namespace) -> CleaningSession:
    config = _config_from_args(args) if hasattr(args, "min_support") else None
    backend = _resolve_engine(args)
    workers = getattr(args, "workers", None)
    return CleaningSession.from_csv(
        args.csv, config=config, backend=backend, workers=workers
    )


def _session_pfds(session: CleaningSession, args: argparse.Namespace):
    """The PFD set a command works with: loaded from ``--load``, otherwise
    discovered on the session (memoized for any later stage)."""
    if getattr(args, "load", None):
        pfds = load_pfds(args.load)
        print(f"loaded {len(pfds)} PFD(s) from {args.load}")
        return pfds
    return session.discover().pfds


def _print_stats(session: CleaningSession) -> None:
    print(session.stats().summary())
    discovery = session.discovery
    if discovery is not None:
        for level in sorted(discovery.candidates_per_level):
            print(f"level {level}: {discovery.candidates_per_level[level]} candidate(s)")


def _maybe_save(args: argparse.Namespace, pfds) -> None:
    if getattr(args, "save", None):
        path = save_pfds(args.save, pfds)
        print(f"saved {len(pfds)} PFD(s) to {path}")


def _command_discover(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    result = session.discover()
    print(result.summary())
    if args.verbose:
        for dependency in result.dependencies:
            print()
            print(dependency.pfd.describe())
    if args.stats:
        _print_stats(session)
    _maybe_save(args, result.pfds)
    return 0


def _command_detect(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    pfds = _session_pfds(session, args)
    report = session.detect(pfds if args.load else None)
    print(report.summary())
    if args.stats:
        _print_stats(session)
    _maybe_save(args, pfds)
    return 0


def _command_repair(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    pfds = _session_pfds(session, args)
    result = session.repair(
        pfds if args.load else None,
        min_evidence=args.min_evidence,
        verify=not args.no_verify,
    )
    print(result.summary())
    if result.remaining_error_cells is not None:
        print(
            f"verification: {len(result.remaining_error_cells)} suspect cell(s) "
            "remain on the repaired table"
        )
    if args.output:
        path = Path(args.output)
        write_csv(result.relation, path)
        print(f"wrote repaired CSV to {path}")
    if args.stats:
        _print_stats(session)
    _maybe_save(args, pfds)
    return 0


def _command_clean(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    pfds = _session_pfds(session, args)
    explicit = pfds if args.load else None
    report = session.detect(explicit, min_evidence=args.min_evidence)
    print(report.summary())
    result = session.repair(explicit, min_evidence=args.min_evidence, verify=True)
    print(result.summary())
    remaining = result.remaining_error_cells or frozenset()
    print(
        f"verification: {len(remaining)} suspect cell(s) remain on the repaired table"
    )

    output = Path(args.output) if args.output else Path(args.csv).with_suffix(".cleaned.csv")
    write_csv(result.relation, output)
    print(f"wrote repaired CSV to {output}")

    stats = session.stats()
    if args.report:
        report_doc = {
            "input": str(args.csv),
            "output": str(output),
            "pfds": len(pfds),
            "pfds_loaded": bool(args.load),
            "detected_errors": len(report.errors),
            "repairs_applied": len(result.repairs),
            "unresolved_cells": len(result.unresolved),
            "remaining_errors": len(remaining),
            "clean": not remaining,
            "stats": stats.to_json_dict(),
        }
        report_path = Path(args.report)
        report_path.write_text(
            json.dumps(report_doc, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote JSON report to {report_path}")
    if args.stats:
        _print_stats(session)
    _maybe_save(args, pfds)
    return 0 if not remaining else 1


def _command_ingest(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    batch = read_csv(args.batch)
    if batch.attribute_names != session.relation.attribute_names:
        raise ReproError(
            f"batch columns {list(batch.attribute_names)} do not match "
            f"base columns {list(session.relation.attribute_names)}"
        )
    return _run_mutation(
        args,
        session,
        MutationBatch.appends(batch.iter_rows()),
        kind="ingest",
        batch=str(args.batch),
    )


def _delta_report_doc(
    args: argparse.Namespace,
    session: CleaningSession,
    pfds,
    result,
    report: DetectionReport,
    rows_before: int,
    kind: str,
    **extra,
) -> dict:
    """The shared delta-report document: one schema for ``ingest`` /
    ``update`` / ``delete`` (and mirrored by the service's write
    endpoints) — ``error_rows`` + ``clean`` drive the 0/1 exit codes."""
    doc = {
        "base": str(args.csv),
        "kind": kind,
        "rows_before": rows_before,
        "rows_updated": len(result.updated_rows),
        "rows_deleted": len(result.deleted_rows),
        "rows_appended": len(result.appended),
        "appended_start": result.appended.start,
        "changed_rows": list(result.changed_rows),
        "pfds": len(pfds),
        "pfds_loaded": bool(args.load),
        "new_errors": len(report.errors),
        "error_rows": sorted({error.cell.row_id for error in report.errors}),
        "errors": [
            {
                "row": error.cell.row_id,
                "attribute": error.cell.attribute,
                "value": error.current_value,
                "suggested": error.suggested_value,
                "evidence": error.evidence_count,
            }
            for error in report.errors
        ],
        "clean": not report.errors,
        "stats": session.stats().to_json_dict(),
    }
    doc.update(extra)
    return doc


def _run_mutation(
    args: argparse.Namespace,
    session: CleaningSession,
    mutations: MutationBatch,
    kind: str,
    **extra,
) -> int:
    """Shared core of ``ingest`` / ``update`` / ``delete``: apply the batch,
    re-detect only the touched tuples, and emit the delta report."""
    pfds = _session_pfds(session, args)
    rows_before = session.relation.row_count
    result = session.apply(mutations)
    print(
        f"applied {len(result.updated_rows)} update(s), "
        f"{len(result.deleted_rows)} delete(s), "
        f"{len(result.appended)} append(s) to {args.csv} ({rows_before} rows before)"
    )
    if result:
        report = session.detect_changed(
            pfds if args.load else None, min_evidence=args.min_evidence
        )
    else:
        # Every assignment matched the stored value: nothing moved, clean delta.
        report = DetectionReport(
            relation_name=session.relation.name, errors=[], violations=[]
        )
    print(report.summary())

    if args.output:
        path = Path(args.output)
        write_csv(session.relation, path)
        print(f"wrote mutated CSV to {path}")

    if args.report:
        report_doc = _delta_report_doc(
            args, session, pfds, result, report, rows_before, kind, **extra
        )
        report_path = Path(args.report)
        report_path.write_text(
            json.dumps(report_doc, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote JSON delta report to {report_path}")
    if args.stats:
        _print_stats(session)
    _maybe_save(args, pfds)
    return 0 if not report.errors else 1


def _command_update(args: argparse.Namespace) -> int:
    document: dict = {}
    if args.ops:
        try:
            document = json.loads(Path(args.ops).read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ReproError(f"ops file {args.ops} is not valid JSON: {error}")
        if not isinstance(document, dict):
            raise ReproError(f"ops file {args.ops} must hold a JSON object")
    if args.cell:
        cells = list(document.get("cells") or [])
        for row_id, attribute, value in args.cell:
            try:
                row = int(row_id)
            except ValueError:
                raise ReproError(f"--cell row id must be an integer, got {row_id!r}")
            cells.append([row, attribute, value])
        document["cells"] = cells
    if not document:
        raise ReproError("update needs --ops FILE and/or --cell ROW ATTR VALUE")
    batch = batch_from_document(document)
    return _run_mutation(
        args,
        _session_from_args(args),
        batch,
        kind="update",
        ops=str(args.ops) if args.ops else None,
    )


def _command_delete(args: argparse.Namespace) -> int:
    row_ids = _parse_row_ids(args.rows)
    batch = MutationBatch.deletes(row_ids)
    return _run_mutation(
        args, _session_from_args(args), batch, kind="delete", requested_rows=row_ids
    )


def _parse_row_ids(text: str) -> list[int]:
    row_ids = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            row_ids.append(int(token))
        except ValueError:
            raise ReproError(f"--rows expects comma-separated integers, got {token!r}")
    if not row_ids:
        raise ReproError("--rows is empty: give at least one row id")
    return sorted(set(row_ids))


def _command_scenario(args: argparse.Namespace) -> int:
    from .datagen.scenario import SCENARIO_MATRIX, load_scenario

    if args.spec in SCENARIO_MATRIX:
        spec = SCENARIO_MATRIX[args.spec]
    else:
        spec = load_scenario(args.spec)
    table = spec.build(scale=args.scale, backend=_resolve_engine(args))
    session = CleaningSession(
        table.relation,
        config=_config_from_args(args),
        workers=getattr(args, "workers", None),
    )
    session.discover()
    print(
        f"scenario {spec.name!r}: {table.relation.row_count} rows x "
        f"{len(table.relation.schema)} columns, "
        f"{len(session.pfds)} PFD(s) discovered"
    )

    op_counts = {"update": 0, "append": 0, "delete": 0}
    error_rows: set[int] = set()
    total_errors = 0
    batches = 0
    for batch in spec.mutation_stream(
        session.relation, operations=args.operations, batch_size=args.batch_size
    ):
        for op in batch:
            if isinstance(op, UpdateOp):
                op_counts["update"] += 1
            elif isinstance(op, DeleteOp):
                op_counts["delete"] += 1
            else:
                op_counts["append"] += 1
        result = session.apply(batch)
        report = session.detect_changed(min_evidence=args.min_evidence)
        total_errors += len(report.errors)
        error_rows.update(error.cell.row_id for error in report.errors)
        batches += 1
    print(
        f"streamed {args.operations} op(s) in {batches} batch(es) "
        f"({op_counts['update']} update / {op_counts['append']} append / "
        f"{op_counts['delete']} delete): {total_errors} delta error(s)"
    )

    if args.output:
        path = Path(args.output)
        write_csv(session.relation, path)
        print(f"wrote final table to {path}")
    if args.report:
        report_doc = {
            "scenario": spec.name,
            "kind": "scenario",
            "rows": session.relation.row_count,
            "columns": len(session.relation.schema),
            "pfds": len(session.pfds),
            "operations": args.operations,
            "op_counts": op_counts,
            "new_errors": total_errors,
            "error_rows": sorted(error_rows),
            "clean": total_errors == 0,
            "stats": session.stats().to_json_dict(),
        }
        report_path = Path(args.report)
        report_path.write_text(
            json.dumps(report_doc, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote JSON scenario report to {report_path}")
    if args.stats:
        _print_stats(session)
    return 0 if total_errors == 0 else 1


def _command_validate(args: argparse.Namespace) -> int:
    session = CleaningSession.from_csv(
        args.csv, backend=_resolve_engine(args),
        workers=getattr(args, "workers", None),
    )
    pfds = load_pfds(args.load)
    print(f"loaded {len(pfds)} PFD(s) from {args.load}")
    print(session.validate(pfds).summary())
    if args.stats:
        _print_stats(session)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: plain pipeline commands never pay for the service tier.
    from .service import CleaningService, serve

    service = CleaningService(
        args.registry,
        max_sessions=args.max_sessions,
        backend=_resolve_engine(args),
        workers=getattr(args, "workers", None),
    )
    print(
        f"serving cleaning service on http://{args.host}:{args.port} "
        f"(registry {args.registry}, max {args.max_sessions} live session(s)) "
        f"— stop with POST /shutdown or Ctrl-C"
    )
    serve(service, host=args.host, port=args.port, quiet=args.quiet)
    print("cleaning service stopped")
    return 0


def _command_client(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    with ServiceClient(args.url) as client:
        document = _client_request(client, args)
    print(json.dumps(document, ensure_ascii=False, indent=2))
    if args.action in ("detect", "ingest", "update", "delete") and not document.get("clean", True):
        return 1
    return 0


def _client_request(client, args: argparse.Namespace) -> dict:
    """Send the request ``pfd-discover client <action>`` names."""
    action = args.action

    def read_csv_text() -> str:
        if not args.csv:
            raise ReproError(f"client {action} needs --csv PATH")
        return Path(args.csv).read_text(encoding="utf-8")

    def need_tenant() -> str:
        if not args.tenant:
            raise ReproError(f"client {action} needs --tenant NAME")
        return args.tenant

    if action == "health":
        document = client.health()
    elif action == "wait":
        document = client.wait_until_ready()
    elif action == "stats":
        document = client.stats()
    elif action == "tenants":
        document = client.tenants()
    elif action == "info":
        document = client.tenant(need_tenant())
    elif action == "load":
        document = client.load(need_tenant(), csv_text=read_csv_text())
    elif action == "profile":
        document = client.profile(need_tenant())
    elif action == "discover":
        config = {}
        if args.min_support is not None:
            config["min_support"] = args.min_support
        if args.noise is not None:
            config["noise_ratio"] = args.noise
        if args.min_coverage is not None:
            config["min_coverage"] = args.min_coverage
        if args.max_lhs is not None:
            config["max_lhs_size"] = args.max_lhs
        document = client.discover(need_tenant(), **config)
    elif action == "detect":
        document = client.detect(need_tenant(), min_evidence=args.min_evidence)
    elif action == "validate":
        document = client.validate(need_tenant())
    elif action == "repair":
        document = client.repair(need_tenant(), min_evidence=args.min_evidence)
    elif action == "ingest":
        document = client.ingest(
            need_tenant(),
            csv_text=read_csv_text(),
            min_evidence=args.min_evidence,
        )
    elif action == "update":
        if not args.ops:
            raise ReproError("client update needs --ops PATH (a JSON mutation document)")
        try:
            ops_document = json.loads(Path(args.ops).read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ReproError(f"ops file {args.ops} is not valid JSON: {error}")
        if not isinstance(ops_document, dict):
            raise ReproError(f"ops file {args.ops} must hold a JSON object")
        document = client.update(
            need_tenant(), ops_document, min_evidence=args.min_evidence
        )
    elif action == "delete":
        if not args.rows:
            raise ReproError("client delete needs --rows IDS (comma-separated)")
        document = client.delete_rows(
            need_tenant(), _parse_row_ids(args.rows), min_evidence=args.min_evidence
        )
    elif action == "drop":
        document = client.drop(need_tenant())
    elif action == "shutdown":
        document = client.shutdown()
    else:  # pragma: no cover - argparse choices prevent this
        raise ReproError(f"unknown client action {action!r}")
    return document


def _command_suite(args: argparse.Namespace) -> int:
    paths = materialize_suite(args.directory, scale=args.scale)
    for path in paths:
        print(path)
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    # Imported lazily: the experiment runners pull in the full generator suite.
    from .experiments import (
        run_efficiency,
        run_figure5,
        run_figure6,
        run_table3,
        run_table7,
        run_table8,
    )

    name = args.name
    scale = args.scale
    if name == "table3":
        print(run_table3(scale=scale).render())
    elif name == "table7":
        print(run_table7(scale=scale).render())
    elif name == "table8":
        print(run_table8(scale=scale).render())
    elif name == "figure5":
        print(run_figure5(rows=max(200, int(920 * scale))).render())
    elif name == "figure6":
        print(run_figure6(rows=max(200, int(920 * scale))).render())
    elif name == "efficiency":
        print(run_efficiency().render())
    else:  # pragma: no cover - argparse choices prevent this
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfd-discover",
        description="Pattern functional dependency discovery and error detection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    discover = subparsers.add_parser("discover", help="discover PFDs in a CSV file")
    discover.add_argument("csv", help="path to the input CSV file")
    discover.add_argument("--verbose", action="store_true", help="print full tableaux")
    discover.add_argument("--save", metavar="PATH",
                          help="write the discovered PFDs to a JSON file")
    _add_config_arguments(discover)
    discover.set_defaults(handler=_command_discover)

    detect = subparsers.add_parser("detect", help="detect errors in a CSV file using discovered PFDs")
    detect.add_argument("csv", help="path to the input CSV file")
    detect.add_argument("--load", metavar="PATH",
                        help="load PFDs from a JSON file instead of discovering them")
    detect.add_argument("--save", metavar="PATH",
                        help="write the PFDs used for detection to a JSON file")
    _add_config_arguments(detect)
    detect.set_defaults(handler=_command_detect)

    repair = subparsers.add_parser(
        "repair", help="detect and repair errors in a CSV file using discovered PFDs"
    )
    repair.add_argument("csv", help="path to the input CSV file")
    repair.add_argument("--load", metavar="PATH",
                        help="load PFDs from a JSON file instead of discovering them")
    repair.add_argument("--save", metavar="PATH",
                        help="write the PFDs used for repair to a JSON file")
    repair.add_argument("--output", metavar="PATH",
                        help="write the repaired table to this CSV file")
    repair.add_argument("--min-evidence", type=int, default=1,
                        help="violations needed before a cell is repaired (default 1)")
    repair.add_argument("--no-verify", action="store_true",
                        help="skip re-detecting on the repaired table")
    _add_config_arguments(repair)
    repair.set_defaults(handler=_command_repair)

    clean = subparsers.add_parser(
        "clean",
        help="end-to-end cleaning: discover, detect, repair, write CSV + report "
             "(exit 0 clean / 1 errors remain / 2 failure)",
    )
    clean.add_argument("csv", help="path to the input CSV file")
    clean.add_argument("--load", metavar="PATH",
                       help="load PFDs from a JSON file instead of discovering them")
    clean.add_argument("--save", metavar="PATH",
                       help="write the PFDs used for cleaning to a JSON file")
    clean.add_argument("--output", metavar="PATH",
                       help="repaired CSV path (default: <input>.cleaned.csv)")
    clean.add_argument("--report", metavar="PATH",
                       help="write a JSON cleaning report to this path")
    clean.add_argument("--min-evidence", type=int, default=1,
                       help="violations needed before a cell is repaired (default 1)")
    _add_config_arguments(clean)
    clean.set_defaults(handler=_command_clean)

    ingest = subparsers.add_parser(
        "ingest",
        help="append a CSV batch to a cleaned base table and report only the "
             "errors the batch introduced (exit 0 delta clean / 1 new errors / 2 failure)",
    )
    ingest.add_argument("csv", help="path to the cleaned base CSV file")
    ingest.add_argument("batch", help="path to the CSV file of rows to append")
    ingest.add_argument("--load", metavar="PATH",
                        help="load PFDs from a JSON file instead of discovering them "
                             "on the base table")
    ingest.add_argument("--save", metavar="PATH",
                        help="write the PFDs used for delta detection to a JSON file")
    ingest.add_argument("--output", metavar="PATH",
                        help="write the merged (base + batch) table to this CSV file")
    ingest.add_argument("--report", metavar="PATH",
                        help="write a JSON delta report to this path")
    ingest.add_argument("--min-evidence", type=int, default=1,
                        help="violations needed before a cell is reported (default 1)")
    _add_config_arguments(ingest)
    ingest.set_defaults(handler=_command_ingest)

    update = subparsers.add_parser(
        "update",
        help="apply a mutation document to a base table and report only the "
             "errors among the touched tuples (exit 0 delta clean / 1 new "
             "errors / 2 failure)",
    )
    update.add_argument("csv", help="path to the base CSV file")
    update.add_argument("--ops", metavar="PATH",
                        help="JSON mutation document: {'cells': [[row, attr, value], ...]} "
                             "and/or 'delete', 'rows', 'ops' keys")
    update.add_argument("--cell", nargs=3, action="append",
                        metavar=("ROW", "ATTR", "VALUE"),
                        help="one cell overwrite (repeatable; merged with --ops)")
    update.add_argument("--load", metavar="PATH",
                        help="load PFDs from a JSON file instead of discovering them "
                             "on the base table")
    update.add_argument("--save", metavar="PATH",
                        help="write the PFDs used for delta detection to a JSON file")
    update.add_argument("--output", metavar="PATH",
                        help="write the mutated table to this CSV file")
    update.add_argument("--report", metavar="PATH",
                        help="write a JSON delta report to this path")
    update.add_argument("--min-evidence", type=int, default=1,
                        help="violations needed before a cell is reported (default 1)")
    _add_config_arguments(update)
    update.set_defaults(handler=_command_update)

    delete = subparsers.add_parser(
        "delete",
        help="tombstone rows of a base table and re-check the classes they "
             "left (exit 0 delta clean / 1 new errors / 2 failure)",
    )
    delete.add_argument("csv", help="path to the base CSV file")
    delete.add_argument("--rows", required=True, metavar="IDS",
                        help="comma-separated row ids to delete (e.g. 3,5,7)")
    delete.add_argument("--load", metavar="PATH",
                        help="load PFDs from a JSON file instead of discovering them "
                             "on the base table")
    delete.add_argument("--save", metavar="PATH",
                        help="write the PFDs used for delta detection to a JSON file")
    delete.add_argument("--output", metavar="PATH",
                        help="write the mutated table to this CSV file")
    delete.add_argument("--report", metavar="PATH",
                        help="write a JSON delta report to this path")
    delete.add_argument("--min-evidence", type=int, default=1,
                        help="violations needed before a cell is reported (default 1)")
    _add_config_arguments(delete)
    delete.set_defaults(handler=_command_delete)

    scenario = subparsers.add_parser(
        "scenario",
        help="build a schema-driven scenario and stream its CRUD op-mix "
             "through delta detection (exit 0 clean / 1 errors / 2 failure)",
    )
    scenario.add_argument("spec",
                          help="scenario spec file (.json/.yaml) or a built-in "
                               "matrix name (tall_narrow, wide_sparse, "
                               "high_cardinality, adversarial_free_start)")
    scenario.add_argument("--operations", type=int, default=100, metavar="N",
                          help="CRUD ops to stream through the session (default 100)")
    scenario.add_argument("--batch-size", type=int, default=10, metavar="K",
                          help="ops per mutation batch (default 10)")
    scenario.add_argument("--scale", type=float, default=1.0,
                          help="row-count scale factor for the built table")
    scenario.add_argument("--output", metavar="PATH",
                          help="write the final table to this CSV file")
    scenario.add_argument("--report", metavar="PATH",
                          help="write a JSON scenario report to this path")
    scenario.add_argument("--min-evidence", type=int, default=1,
                          help="violations needed before a cell is reported (default 1)")
    _add_config_arguments(scenario)
    scenario.set_defaults(handler=_command_scenario)

    validate = subparsers.add_parser(
        "validate", help="validate saved PFDs against a CSV file (coverage + violations)"
    )
    validate.add_argument("csv", help="path to the input CSV file")
    validate.add_argument("--load", metavar="PATH", required=True,
                          help="JSON file of PFDs to validate (from discover/detect --save)")
    _add_stats_argument(validate)
    validate.set_defaults(handler=_command_validate)

    serve = subparsers.add_parser(
        "serve",
        help="run the cleaning service daemon: concurrent tenant sessions "
             "over a persistent constraint registry (JSON over HTTP)",
    )
    serve.add_argument("--registry", required=True, metavar="DIR",
                       help="registry directory holding per-tenant pfds.json, data.csv and data.log "
                            "(created if missing; survives restarts)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="port to listen on (default 8765)")
    serve.add_argument("--max-sessions", type=int, default=8, metavar="K",
                       help="LRU bound on live tenant sessions (default 8); "
                            "evicted tenants rehydrate from the registry")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")
    serve.add_argument("--engine", default=None, metavar="BACKEND",
                       help="engine backend for tenant sessions "
                            "('numpy'/'sql'; default: REPRO_ENGINE, else numpy)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-parallel workers for each tenant "
                            "session's discovery (default: REPRO_WORKERS, "
                            "else 1; detection is always serial)")
    serve.set_defaults(handler=_command_serve)

    client = subparsers.add_parser(
        "client",
        help="drive a running cleaning service daemon over HTTP "
             "(detect/ingest exit 1 when errors were found)",
    )
    client.add_argument("action",
                        choices=["health", "wait", "stats", "tenants", "info", "load",
                                 "profile", "discover", "detect", "validate",
                                 "repair", "ingest", "update", "delete",
                                 "drop", "shutdown"])
    client.add_argument("--url", default="http://127.0.0.1:8765",
                        help="daemon base URL (default http://127.0.0.1:8765)")
    client.add_argument("--tenant", metavar="NAME",
                        help="tenant name (required by the per-tenant actions)")
    client.add_argument("--csv", metavar="PATH",
                        help="CSV file to upload (load: full table with header; "
                             "ingest: batch with a matching header)")
    client.add_argument("--ops", metavar="PATH",
                        help="update: JSON mutation document to POST")
    client.add_argument("--rows", metavar="IDS",
                        help="delete: comma-separated row ids to delete")
    client.add_argument("--min-evidence", type=int, default=1,
                        help="violations needed before a cell is reported (default 1)")
    client.add_argument("--min-support", type=int, default=None,
                        help="discover: minimum pattern support K")
    client.add_argument("--noise", type=float, default=None,
                        help="discover: allowed violation ratio delta")
    client.add_argument("--min-coverage", type=float, default=None,
                        help="discover: minimum tableau coverage gamma")
    client.add_argument("--max-lhs", type=int, default=None,
                        help="discover: maximum number of LHS attributes")
    client.set_defaults(handler=_command_client)

    suite = subparsers.add_parser("suite", help="materialize the synthetic benchmark suite as CSV")
    suite.add_argument("directory", help="output directory")
    suite.add_argument("--scale", type=float, default=1.0, help="row-count scale factor")
    suite.set_defaults(handler=_command_suite)

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument(
        "name",
        choices=["table3", "table7", "table8", "figure5", "figure6", "efficiency"],
    )
    experiment.add_argument("--scale", type=float, default=0.5, help="dataset scale factor")
    experiment.set_defaults(handler=_command_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
