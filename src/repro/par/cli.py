"""Command-line front end: ``python -m repro.par``.

Subcommands::

    classify [WORKLOAD...|--all]       static verdict per DO loop
    sanitize [WORKLOAD...|--all]       annotate, run the race sanitizer
    run WORKLOAD [--loop V] [...]      sharded PARALLEL DO execution
    bench [--run WORKLOAD] [...]       all three layers -> BENCH_par.json

Examples::

    python -m repro.par classify --all
    python -m repro.par sanitize matmul conv
    python -m repro.par run matmul --shards 2 --size N=48
    python -m repro.par run conv --shards 2 --chunk 4
    python -m repro.par bench --json BENCH_par.json --run conv

``classify`` prints the detector's verdict (PARALLEL / REDUCTION /
SERIAL) for every loop, with the blocking witness for SERIAL ones.
``sanitize`` executes each workload under the instrumented interpreter
and reports any cross-iteration conflict on a marked loop — a non-empty
result means the static layer mis-marked something and exits 1.
``run`` shards one top-level PARALLEL DO across the serve worker pool
and asserts the merged result byte-identical to the serial interpreter.
``bench`` does all of the above and writes the enveloped, self-validated
``repro.par/1`` artifact (default ``BENCH_par.json``) — the file CI
uploads and ``repro.perf`` records/gates.

Exit status: 0 on success, 1 on sanitizer conflicts or a failed sharded
run, 2 for usage errors (unknown workload, no PARALLEL loop to shard).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.errors import ReproError
from repro.par.detect import annotate_procedure, classify_procedure, verdict_counts
from repro.par.report import build_report, build_workload_entry, write_report
from repro.par.sanitizer import sanitize
from repro.par.shard import run_sharded
from repro.pipeline.workloads import available_workloads, get_workload

_TAG = {"parallel": "PARALLEL ", "reduction": "REDUCTION", "serial": "SERIAL   "}


def _workload_names(args) -> list[str]:
    if getattr(args, "all", False):
        return [w.name for w in available_workloads()]
    names = list(getattr(args, "workloads", []) or [])
    if not names:
        raise ReproError("name at least one WORKLOAD (or use --all)")
    return names


def _sizes(args) -> Optional[dict]:
    pairs = getattr(args, "size", None)
    if not pairs:
        return None
    out = {}
    for pair in pairs:
        k, sep, v = pair.partition("=")
        if not sep:
            raise ReproError(f"--size wants K=V, got {pair!r}")
        out[k] = int(v)
    return out


def _cmd_classify(args) -> int:
    entries = []
    for name in _workload_names(args):
        workload = get_workload(name)
        proc = workload.build()
        verdicts = classify_procedure(proc, workload.context(None))
        entries.append(build_workload_entry(name, proc.name, verdicts))
        counts = verdict_counts(verdicts)
        print(f"{name} ({proc.name}): "
              f"{counts['parallel']} parallel, {counts['reduction']} "
              f"reduction, {counts['serial']} serial")
        for v in verdicts:
            line = f"  {_TAG[v.verdict]} DO {'/'.join(v.path):<10} {v.reason}"
            if v.reductions:
                line += f" [{', '.join(v.reductions)}]"
            print(line)
            if v.witness and "array" in v.witness:
                w = v.witness
                print(f"            witness: {w['kind']} dep on {w['array']} "
                      f"({w['source']} -> {w['sink']}, "
                      f"direction {'/'.join(w['direction'])})")
    if args.json:
        write_report(args.json, build_report(entries, meta={"mode": "classify"}))
        print(f"report written to {args.json}")
    return 0


def _cmd_sanitize(args) -> int:
    total = 0
    for name in _workload_names(args):
        workload = get_workload(name)
        proc, _ = annotate_procedure(workload.build(), workload.context(None))
        result = sanitize(proc, dict(workload.verify_sizes), seed=args.seed)
        status = "clean" if result.clean else f"{len(result.conflicts)} CONFLICT(S)"
        print(f"{name}: {result.loops_checked} PARALLEL loop(s) checked, {status}")
        for c in result.conflicts:
            print(f"  {c.rule}: {c.describe()}")
        total += len(result.conflicts)
    return 1 if total else 0


def _cmd_run(args) -> int:
    result = run_sharded(
        args.workload,
        loop_var=args.loop,
        shards=args.shards,
        workers=args.workers,
        sizes=_sizes(args),
        seed=args.seed,
        chunk=args.chunk,
    )
    grain = f", chunk {result['chunk']}" if result["chunk"] else ""
    print(f"{result['workload']}: PARALLEL DO {result['loop']} "
          f"({result['iterations']} iterations) over {result['shards']} "
          f"shard(s), {result['workers']} worker(s){grain}")
    print(f"  serial  {result['serial_s']:.4f}s")
    print(f"  sharded {result['sharded_s']:.4f}s  "
          f"(speedup {result['speedup']}x)")
    print(f"  identical to serial: {result['identical']}")
    if args.json:
        print(json.dumps(result, indent=2))
    return 0


def _cmd_bench(args) -> int:
    names = [w.name for w in available_workloads()] \
        if not args.workloads else args.workloads
    entries = []
    conflicts = 0
    for name in names:
        workload = get_workload(name)
        proc, verdicts = annotate_procedure(
            workload.build(), workload.context(None))
        result = sanitize(proc, dict(workload.verify_sizes), seed=args.seed)
        entries.append(build_workload_entry(
            name, proc.name, verdicts, sanitizer=result.to_dict()))
        conflicts += len(result.conflicts)
        counts = verdict_counts(verdicts)
        print(f"{name}: {counts['parallel']}p/{counts['reduction']}r/"
              f"{counts['serial']}s, sanitizer "
              f"{'clean' if result.clean else 'CONFLICTS'}")
    run = None
    if args.run:
        run = run_sharded(args.run, shards=args.shards, workers=args.workers,
                          sizes=_sizes(args), seed=args.seed,
                          chunk=args.chunk)
        print(f"sharded {args.run}: speedup {run['speedup']}x, "
              f"identical={run['identical']}")
    doc = build_report(
        entries, run=run,
        meta={"workloads": ",".join(names), "seed": args.seed},
    )
    env = write_report(args.json, doc)
    print(f"report written to {args.json} ({env['digest'][:12]})")
    return 1 if conflicts else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.par",
        description="static loop-parallelism detection, dynamic race "
        "sanitizing, and sharded PARALLEL DO execution",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="static verdict per DO loop")
    c.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    c.add_argument("--all", action="store_true")
    c.add_argument("--json", metavar="PATH",
                   help="write a repro.par/1 report here")
    c.set_defaults(fn=_cmd_classify)

    s = sub.add_parser("sanitize", help="run the dynamic race sanitizer")
    s.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    s.add_argument("--all", action="store_true")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_sanitize)

    r = sub.add_parser("run", help="shard a PARALLEL DO across the pool")
    r.add_argument("workload", metavar="WORKLOAD")
    r.add_argument("--loop", metavar="VAR",
                   help="induction variable of the loop to shard "
                   "(default: first top-level PARALLEL DO)")
    r.add_argument("--shards", type=int, default=2)
    r.add_argument("--chunk", type=int, default=0, metavar="N",
                   help="round-robin chunk granularity in iterations "
                   "(default 0 = contiguous shards)")
    r.add_argument("--workers", type=int, default=None)
    r.add_argument("--size", action="append", metavar="K=V",
                   help="override a size parameter (repeatable)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--json", action="store_true",
                   help="also dump the run record as JSON")
    r.set_defaults(fn=_cmd_run)

    b = sub.add_parser("bench",
                       help="classify + sanitize everything, optionally "
                       "shard one workload, write BENCH_par.json")
    b.add_argument("--workloads", nargs="*", metavar="WORKLOAD",
                   help="default: every registered workload")
    b.add_argument("--run", metavar="WORKLOAD",
                   help="also record one sharded PARALLEL DO execution")
    b.add_argument("--shards", type=int, default=2)
    b.add_argument("--chunk", type=int, default=0, metavar="N",
                   help="round-robin chunk granularity for --run "
                   "(default 0 = contiguous shards)")
    b.add_argument("--workers", type=int, default=None)
    b.add_argument("--size", action="append", metavar="K=V")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--json", metavar="PATH", default="BENCH_par.json")
    b.set_defaults(fn=_cmd_bench)
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
