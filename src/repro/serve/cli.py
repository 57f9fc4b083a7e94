"""Command-line front end: ``python -m repro.serve``.

Subcommands::

    submit WORKLOAD [WORKLOAD...]   run jobs for named workloads
    batch SPECS.json                run a JSON batch of job specs
    stats                           print artifact-store statistics
    gc                              prune the artifact store

Examples::

    python -m repro.serve submit lu_nopivot conv --workers 4 --check
    python -m repro.serve submit lu_nopivot --kind execute --out report.json
    python -m repro.serve batch jobs.json --workers 8 --obs serve_obs.json
    python -m repro.serve stats
    python -m repro.serve gc --max-entries 512 --max-age-s 604800

A batch file is either a list of job-spec objects or ``{"jobs":
[...]}``; each spec takes ``kind`` (derive|check|execute|bench),
``workload``, ``passes`` (list or comma string), ``options`` (unroll,
factor), ``check``, ``timeout_s``, ``max_retries``, ``use_store``,
``label``.

Exit status: 0 when every job lands (``hit``/``computed``/``retried``),
1 when any job is ``timeout`` or ``failed``, 2 for usage errors.  The
report file is written either way, so failures are inspectable offline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.artifacts import publish
from repro.errors import PipelineError, ReproError
from repro.obs import core as obs_core
from repro.obs import export as obs_export
from repro.serve.jobs import JobSpec
from repro.serve.service import build_store_ops, run_batch, write_report
from repro.serve.store import ArtifactStore


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="concurrent compile-and-run service over a persistent "
        "content-addressed artifact store",
    )
    sub = p.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="run jobs for named workloads")
    submit.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    submit.add_argument(
        "--kind",
        choices=("derive", "check", "execute", "bench", "cell"),
        default="derive",
        help="what each job does (default: derive; 'cell' runs one "
        "experiment-matrix cell at default factors)",
    )
    submit.add_argument(
        "--passes",
        help="comma-separated pass names (default: each workload's pipeline)",
    )
    submit.add_argument(
        "--check",
        action="store_true",
        help="run the repro.check legality gate inside the workers",
    )
    submit.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="submit every job N times (deduplicated in flight; default 1)",
    )
    submit.add_argument("--timeout", type=float, default=300.0, metavar="S",
                        help="per-job timeout in seconds (default 300)")
    _pool_flags(submit)
    _store_flags(submit)
    _report_flags(submit)

    batch = sub.add_parser("batch", help="run a JSON batch of job specs")
    batch.add_argument("specs", metavar="SPECS.json")
    _pool_flags(batch)
    _store_flags(batch)
    _report_flags(batch)

    stats = sub.add_parser("stats", help="print artifact-store statistics")
    _store_flags(stats)
    stats.add_argument("--json", action="store_true", help="emit JSON")

    gc = sub.add_parser("gc", help="prune the artifact store")
    _store_flags(gc)
    gc.add_argument("--max-entries", type=int, metavar="N",
                    help="keep at most N entries (oldest evicted first)")
    gc.add_argument("--max-age-s", type=float, metavar="S",
                    help="evict entries older than S seconds")
    gc.add_argument("--json", action="store_true", help="emit JSON")
    return p


def _pool_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", "-j", type=int, default=2, metavar="N",
                   help="worker processes (default 2)")
    p.add_argument("--retries", type=int, default=2, metavar="K",
                   help="retries per crashed/timed-out job (default 2)")
    p.add_argument("--backoff", type=float, default=0.05, metavar="S",
                   help="base retry backoff seconds, doubled per attempt")


def _store_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store-dir", metavar="PATH",
                   help="artifact store root (default .repro-cache/ or "
                   "$REPRO_CACHE_DIR)")
    if p.prog.endswith(("submit", "batch")):
        p.add_argument("--no-store", action="store_true",
                       help="compute everything; skip the artifact store")


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH",
                   help="write the repro.serve/1 report here")
    p.add_argument("--obs", metavar="PATH",
                   help="write a repro.obs/1 metrics profile here "
                   "(workers observe their own jobs; worker counters and "
                   "spans are merged in)")
    p.add_argument("--chrome-trace", metavar="PATH",
                   help="write a merged multi-process Chrome trace here "
                   "(one pid lane per worker; open at "
                   "https://ui.perfetto.dev)")


def _specs_from_submit(args) -> list[JobSpec]:
    passes = (
        tuple(s.strip() for s in args.passes.split(",") if s.strip())
        if args.passes
        else None
    )
    specs = []
    for _ in range(max(1, args.repeat)):
        for name in args.workloads:
            specs.append(
                JobSpec(
                    kind=args.kind,
                    workload=name,
                    passes=passes,
                    check=args.check,
                    timeout_s=args.timeout,
                )
            )
    return specs


def _specs_from_batch(path: str) -> list[JobSpec]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise PipelineError(f"cannot read batch file: {e}") from e
    except json.JSONDecodeError as e:
        raise PipelineError(f"batch file is not valid JSON: {e}") from e
    if isinstance(doc, dict):
        doc = doc.get("jobs")
    if not isinstance(doc, list) or not doc:
        raise PipelineError(
            "batch file must be a non-empty list of job specs "
            '(or {"jobs": [...]})'
        )
    return [JobSpec.from_dict(entry) for entry in doc]


def _print_report(report: dict) -> None:
    for job in report["jobs"]:
        worker = f"w{job['worker']}" if job["worker"] is not None else "--"
        dedup = f"  x{job['submissions']}" if job["submissions"] > 1 else ""
        tail = f"  [{job['error']}]" if job["error"] else ""
        print(
            f"  {job['status']:<9} {job['label']:<32} "
            f"{job['wall_s'] * 1000:9.1f} ms  {worker}  "
            f"attempt {job['attempts']}{dedup}{tail}"
        )
    s = report["summary"]
    parts = [f"{s[k]} {k}" for k in ("hit", "computed", "retried",
                                     "timeout", "failed", "cancelled") if s[k]]
    util = report["pool"].get("utilization")
    util_txt = f", pool utilization {util:.0%}" if util is not None else ""
    print(f"{s['total']} job(s): {', '.join(parts) or 'none'} "
          f"in {report['elapsed_s']:.2f}s{util_txt}")
    wall = report.get("latency", {}).get("wall_s", {})
    if wall.get("count"):
        print(
            f"latency: p50 {wall['p50'] * 1000:.1f} ms / "
            f"p95 {wall['p95'] * 1000:.1f} ms / "
            f"p99 {wall['p99'] * 1000:.1f} ms "
            f"(max {wall['max'] * 1000:.1f} ms over {wall['count']} job(s))"
        )
    for entry in report["pool"].get("per_worker", []):
        if not entry["jobs"] and not entry["busy_s"]:
            continue
        u = entry.get("utilization")
        u_txt = f"  ({u:.0%} busy)" if u is not None else ""
        print(f"  worker {entry['worker']}: {entry['jobs']} job(s), "
              f"{entry['busy_s']:.2f}s busy{u_txt}")
    store = report["store"]
    if store.get("enabled"):
        print(
            f"store: {store['hits']} hits / {store['misses']} misses, "
            f"{store['writes']} writes, {store['entries']} entries "
            f"({store['bytes']} bytes) at {store['root']}"
        )


def _run_jobs(args, specs: list[JobSpec]) -> int:
    store = (
        None
        if getattr(args, "no_store", False)
        else ArtifactStore(args.store_dir)
    )
    meta = {"tool": __package__, "command": args.command}

    def go() -> dict:
        return run_batch(
            specs,
            workers=args.workers,
            store=store,
            max_retries=args.retries,
            backoff_s=args.backoff,
            meta=meta,
        )

    if args.obs or args.chrome_trace:
        with obs_core.enabled() as o:
            report = go()
        if args.obs:
            obs_export.write_metrics(args.obs, obs_export.metrics(o, meta=meta))
        if args.chrome_trace:
            obs_export.write_json(args.chrome_trace, obs_export.chrome_trace(o))
    else:
        report = go()

    # publish validates even without --out (exit 2 on a malformed report);
    # with --out the report lands in the store the batch ran against (the
    # stats snapshot inside it predates this write, on purpose)
    write_report(args.out, report, store=store if args.out else None)
    _print_report(report)
    if args.out:
        print(f"report written to {args.out}")
    if args.obs:
        print(f"obs metrics written to {args.obs}")
    if args.chrome_trace:
        print(f"chrome trace written to {args.chrome_trace} "
              "(open at https://ui.perfetto.dev)")
    return 0 if report["summary"]["ok"] == report["summary"]["total"] else 1


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "submit":
            return _run_jobs(args, _specs_from_submit(args))
        if args.command == "batch":
            return _run_jobs(args, _specs_from_batch(args.specs))
        store = ArtifactStore(args.store_dir)
        if args.command == "stats":
            doc = build_store_ops("stats", store)
            on_disk = doc["store"]
            line = (f"store at {on_disk['root']} "
                    f"(schema v{on_disk['schema_version']}): "
                    f"{on_disk['entries']} entries, {on_disk['bytes']} bytes")
        elif args.command == "gc":
            if args.max_entries is None and args.max_age_s is None:
                print("error: gc needs --max-entries and/or --max-age-s",
                      file=sys.stderr)
                return 2
            summary = store.gc(
                max_entries=args.max_entries, max_age_s=args.max_age_s
            )
            doc = build_store_ops("gc", store, gc=summary)
            line = f"gc: removed {summary['removed']}, kept {summary['kept']}"
        else:
            raise PipelineError(f"unknown command {args.command!r}")
        # even the maintenance records ship enveloped: `--json` output
        # is a repro.serve.store/1 document that `python -m
        # repro.artifacts validate -` accepts
        if args.json:
            line = json.dumps(publish(None, doc, producer=__package__),
                              indent=2)
        print(line)
        return 0
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
