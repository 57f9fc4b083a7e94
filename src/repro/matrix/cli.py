"""Command-line front end: ``python -m repro.matrix``.

Subcommands::

    run [SPEC.json] [--factor NAME=V1,V2 ...]   expand a grid and sweep it
    resume [SWEEP]                              continue a recorded sweep
    status                                      list recorded sweeps
    report [SWEEP]                              re-analyze recorded rows

Examples::

    python -m repro.matrix run examples/matrix_demo_grid.json --workers 4
    python -m repro.matrix run --factor workload=lu_nopivot,conv \\
        --factor b=2,4,8 --factor cache_kb=1,2 --factor n=16,24
    python -m repro.matrix resume 9f31
    python -m repro.matrix status
    python -m repro.matrix report 9f31 --only b
    python -m repro.matrix report --only cache_kb --metric miss_ratio

``run`` executes through the ``repro.serve`` worker pool against the
shared artifact store, records one sqlite row per cell as it resolves,
self-validates the ``repro.matrix/1`` artifact, and writes it (default
``BENCH_matrix.json``).  A rerun of the same grid recomputes zero cells:
finished cells are skipped from the database, and ``--fresh`` reruns
still resolve warm cells as store hits (``attempts=0``).

``report --only FACTOR`` restricts the sensitivity section to one
factor, mirroring ``repro.bench.report --only``: naming a factor that is
absent or does not vary in the selected rows exits 2 with the list of
varied factors.

Exit status: 0 when every cell lands, 1 when any cell is ``timeout`` /
``failed``, 2 for usage errors or a report that fails self-validation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.errors import MatrixError, ReproError
from repro.matrix.analysis import METRICS
from repro.matrix.db import MatrixDB
from repro.matrix.grid import FACTOR_ORDER, GridSpec
from repro.matrix.report import build_report, render, write_report
from repro.matrix.runner import cell_digests, run_grid
from repro.obs import core as obs_core
from repro.obs import export as obs_export
from repro.serve.store import ArtifactStore

DEFAULT_OUT = "BENCH_matrix.json"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.matrix",
        description="declarative experiment grids over the repro.serve "
        "worker pool, persisted to a sqlite results database",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand a grid and sweep it")
    run.add_argument("spec", nargs="?", metavar="SPEC.json",
                     help="grid spec file; omit when using --factor")
    run.add_argument("--factor", action="append", default=[],
                     metavar="NAME=V1,V2",
                     help=f"one factor and its levels (repeatable); "
                     f"factors: {', '.join(FACTOR_ORDER)}")
    _sweep_flags(run)
    _report_flags(run)

    resume = sub.add_parser("resume", help="continue a recorded sweep")
    resume.add_argument("sweep", nargs="?", metavar="SWEEP",
                        help="sweep digest prefix (optional when only one "
                        "sweep is recorded)")
    _sweep_flags(resume)
    _report_flags(resume)

    status = sub.add_parser("status", help="list recorded sweeps")
    status.add_argument("--db", metavar="PATH", help=_DB_HELP)
    status.add_argument("--store-dir", metavar="PATH", help=_STORE_HELP)
    status.add_argument("--json", action="store_true", help="emit JSON")

    report = sub.add_parser("report", help="re-analyze recorded rows")
    report.add_argument("sweep", nargs="?", metavar="SWEEP",
                        help="sweep digest prefix (default: all rows)")
    report.add_argument("--db", metavar="PATH", help=_DB_HELP)
    report.add_argument("--store-dir", metavar="PATH", help=_STORE_HELP)
    _report_flags(report, default_out=None)
    return p


_DB_HELP = "results database (default matrix.db under .repro-cache/ or $REPRO_CACHE_DIR)"
_STORE_HELP = "artifact store root (default .repro-cache/ or $REPRO_CACHE_DIR)"


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", "-j", type=int, default=2, metavar="N",
                   help="worker processes (default 2)")
    p.add_argument("--retries", type=int, default=2, metavar="K",
                   help="retries per crashed/timed-out cell (default 2)")
    p.add_argument("--timeout", type=float, default=600.0, metavar="S",
                   help="per-cell timeout in seconds (default 600)")
    p.add_argument("--db", metavar="PATH", help=_DB_HELP)
    p.add_argument("--store-dir", metavar="PATH", help=_STORE_HELP)
    p.add_argument("--no-store", action="store_true",
                   help="compute everything; skip the artifact store")
    p.add_argument("--fresh", action="store_true",
                   help="ignore recorded rows; re-resolve every cell "
                   "(warm store entries still land as hits)")
    p.add_argument("--progress", action="store_true",
                   help="print one line per cell as it resolves")
    p.add_argument("--obs", metavar="PATH",
                   help="write a repro.obs/1 metrics profile here "
                   "(worker-side counters and spans are merged in)")
    p.add_argument("--chrome-trace", metavar="PATH",
                   help="write a merged multi-process Chrome trace here "
                   "(one pid lane per worker)")


def _report_flags(p: argparse.ArgumentParser, default_out: Optional[str] = DEFAULT_OUT) -> None:
    p.add_argument("--out", metavar="PATH", default=default_out,
                   help="write the repro.matrix/1 artifact here"
                   + (f" (default {default_out})" if default_out else ""))
    p.add_argument("--metric", choices=METRICS, default="speedup",
                   help="metric for sensitivity/best-blocking (default speedup)")
    p.add_argument("--only", metavar="FACTOR",
                   help="restrict sensitivity to one factor (exit 2 when it "
                   "is absent or does not vary)")


def _grid_from_run(args) -> GridSpec:
    if args.spec and args.factor:
        raise MatrixError("give either SPEC.json or --factor, not both")
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as e:
            raise MatrixError(f"cannot read grid spec: {e}") from e
        except json.JSONDecodeError as e:
            raise MatrixError(f"grid spec is not valid JSON: {e}") from e
        return GridSpec.from_json(doc)
    if args.factor:
        return GridSpec.from_cli(args.factor)
    raise MatrixError("give a SPEC.json or at least --factor workload=...")


def _match_sweep(db: MatrixDB, prefix: Optional[str]) -> dict:
    sweeps = db.sweeps()
    if not sweeps:
        raise MatrixError("no sweeps recorded; run a grid first")
    if prefix is None:
        if len(sweeps) > 1:
            known = ", ".join(s["digest"][:12] for s in sweeps)
            raise MatrixError(
                f"{len(sweeps)} sweeps recorded, name one (known: {known})"
            )
        return sweeps[0]
    matches = [s for s in sweeps if s["digest"].startswith(prefix)]
    if not matches:
        known = ", ".join(s["digest"][:12] for s in sweeps)
        raise MatrixError(f"no sweep matches {prefix!r} (known: {known})")
    if len(matches) > 1:
        raise MatrixError(
            f"sweep prefix {prefix!r} is ambiguous "
            f"({', '.join(s['digest'][:12] for s in matches)})"
        )
    return matches[0]


def _progress_printer(total: int):
    seen = [0]

    def on_row(row: dict) -> None:
        seen[0] += 1
        tail = f"  [{row['error']}]" if row.get("error") else ""
        speedup = row.get("speedup")
        mid = f"speedup {speedup:.3f}" if speedup is not None else "--"
        print(
            f"  [{seen[0]}/{total}] {row['status']:<9} "
            f"{row['workload']}:{row['recipe']} n={row['n']} b={row['b']} "
            f"{row['cache_kb']}KB  {mid}{tail}",
            flush=True,
        )

    return on_row


def _run_sweep(args, grid: GridSpec) -> int:
    store = None if args.no_store else ArtifactStore(args.store_dir)
    meta = {"tool": __package__, "command": args.command,
            "grid": grid.digest()[:12]}
    only = [args.only] if args.only else None

    with MatrixDB(args.db) as db:
        total = len(cell_digests(grid, store))

        def go() -> dict:
            return run_grid(
                grid,
                workers=args.workers,
                store=store,
                db=db,
                resume=not args.fresh,
                max_retries=args.retries,
                timeout_s=args.timeout,
                meta=meta,
                metric=args.metric,
                only=only,
                on_row=_progress_printer(total) if args.progress else None,
            )

        if args.obs or args.chrome_trace:
            with obs_core.enabled() as o:
                doc = go()
            if args.obs:
                obs_export.write_metrics(args.obs, obs_export.metrics(o, meta=meta))
            if args.chrome_trace:
                obs_export.write_json(
                    args.chrome_trace, obs_export.chrome_trace(o)
                )
        else:
            doc = go()

    # publish validates even without --out (exit 2 on a malformed report);
    # with --out the sweep lands in the store the cells ran against
    write_report(args.out, doc, store=store if args.out else None)
    print(render(doc))
    if args.out:
        print(f"report written to {args.out}")
    if args.obs:
        print(f"obs metrics written to {args.obs}")
    if args.chrome_trace:
        print(f"chrome trace written to {args.chrome_trace}")
    run = doc["run"]
    bad = sum(run.get(s, 0) for s in ("timeout", "failed"))
    return 1 if bad else 0


def _status(args) -> int:
    store = ArtifactStore(args.store_dir)
    with MatrixDB(args.db) as db:
        out = []
        for sweep in db.sweeps():
            grid = GridSpec.from_json(json.loads(sweep["spec"]))
            counts = db.counts(list(cell_digests(grid, store)))
            out.append({
                "sweep": sweep["digest"],
                "cells": counts["total"],
                "done": counts["done"],
                "failed": counts["failed"],
                "missing": counts["missing"],
                "grid": grid.describe(),
            })
    if args.json:
        print(json.dumps(out, indent=2))
        return 0
    if not out:
        print("no sweeps recorded")
        return 0
    for s in out:
        state = "complete" if s["done"] == s["cells"] else "partial"
        print(f"  {s['sweep'][:12]}  {s['done']}/{s['cells']} done "
              f"({s['failed']} failed, {s['missing']} missing, {state})")
        print(f"               {s['grid']}")
    return 0


def _report(args) -> int:
    store = ArtifactStore(args.store_dir)
    with MatrixDB(args.db) as db:
        grid = None
        digests = None
        if args.sweep is not None:
            sweep = _match_sweep(db, args.sweep)
            grid = GridSpec.from_json(json.loads(sweep["spec"]))
            digests = list(cell_digests(grid, store))
        rows = db.rows(digests)
    if not rows:
        raise MatrixError("no result rows recorded; run a grid first")
    doc = build_report(
        rows,
        grid=grid,
        meta={"tool": __package__, "command": "report"},
        metric=args.metric,
        only=[args.only] if args.only else None,
    )
    write_report(args.out, doc, store=store if args.out else None)
    print(render(doc))
    if args.out:
        print(f"report written to {args.out}")
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_sweep(args, _grid_from_run(args))
        if args.command == "resume":
            with MatrixDB(args.db) as db:
                sweep = _match_sweep(db, args.sweep)
            grid = GridSpec.from_json(json.loads(sweep["spec"]))
            args.fresh = False  # resuming is the whole point
            return _run_sweep(args, grid)
        if args.command == "status":
            return _status(args)
        if args.command == "report":
            return _report(args)
        raise MatrixError(f"unknown command {args.command!r}")
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
