"""Machine-readable pipeline benchmark: ``python -m repro.pipeline.bench``.

Two modes over one workload set (:data:`BENCH_WORKLOADS` — the paper's
derivations plus recipe/checked variants, sized so the set parallelizes
meaningfully):

- **classic** (default): runs every entry twice in-process against a
  fresh analysis cache of its own — a **cold** pass that pays for every
  dependence / Fourier–Motzkin / section query, then a **warm** pass
  that replays from the cache — and writes ``BENCH_pipeline.json`` with
  per-pass wall times and per-region hit rates summed over the entries.
  Future PRs diff this file to see whether the analysis hot path moved.
- **pool** (``--jobs N``): routes every entry as a ``derive`` job
  through the :mod:`repro.serve` worker pool against the persistent
  artifact store, so the suite spreads across cores and a warm
  ``.repro-cache/`` short-circuits whole derivations: a second run in a
  fresh process completes with zero pass executions (all store hits)
  and byte-identical derived IR (asserted via the recorded fingerprint
  and ``ir_sha256``).

``--obs OUT.json`` additionally captures a ``repro.obs/1`` metrics
profile of the same run, so the BENCH artifact carries its own
explanation.

Classic payload schema (``'mode': 'inprocess'``; written enveloped —
see :mod:`repro.artifacts`)::

    {
      'schema': 'repro.pipeline.bench/1',
      'mode': 'inprocess',
      'workloads': {
        '<label>': {
          'workload': 'lu_nopivot',
          'passes': ['block', ...],
          'cold': {'elapsed_s': f, 'spans': [{'pass','status','wall_s','cached'}]},
          'warm': {...same shape, spans mostly cached...},
          'warm_speedup': f
        }, ...
      },
      'cache': { '<region>': {'hits','misses','entries','evictions',
                              'hit_rate'}, ... }
    }

Pool payload schema (``'mode': 'pool'``) replaces ``cold``/``warm``
with the job outcome — ``status`` (``hit|computed|retried|...``),
``wall_s``, ``worker``, ``pass_executions`` (0 on a store hit),
``fingerprint``, ``ir_sha256`` — and reports ``pool`` and ``store``
statistics instead of the in-process ``cache`` block.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Optional

from repro.artifacts import publish
from repro.artifacts.flatten import Sink, cache_stats
from repro.artifacts.registry import PIPELINE_BENCH as SCHEMA
from repro.artifacts.shape import check
from repro.errors import CheckError
from repro.obs import core as obs_core
from repro.obs import export as obs_export
from repro.pipeline import derive
from repro.pipeline.cache import AnalysisCache

_MODES = ("inprocess", "pool")

#: the payload shape :func:`run_bench` / :func:`run_bench_pool` produce;
#: the mode-dependent legs are checked by :func:`invariants`
SHAPE = {"mode": _MODES, "workloads": {str: dict}}
_LEG = {"elapsed_s": float}
_MODE_SHAPES = {
    "inprocess": {"workloads": {str: {"cold": _LEG, "warm": _LEG}},
                  "cache": dict},
    "pool": {"workloads": {str: {"status": str}}, "pool": dict},
}

#: what to measure: (label, workload, pass list or None for the default
#: pipeline, run under the repro.check gate).  Labels key the JSON.
BENCH_WORKLOADS = (
    ("lu_nopivot", "lu_nopivot", None, False),
    ("lu_split_block_jam", "lu_nopivot", ("split", "block", "jam"), False),
    ("lu_checked", "lu_nopivot", None, True),
    ("givens", "givens", ("givens_opt", "scalars"), False),
    ("conv", "conv", None, False),
    ("aconv", "aconv", None, False),
    ("matmul", "matmul", None, False),
)


def _run(name: str, passes, cache: AnalysisCache, check: bool = False) -> dict:
    result = derive(
        name,
        passes=list(passes) if passes is not None else None,
        cache=cache,
        check=check,
    )
    return {
        "elapsed_s": round(result.trace["elapsed_s"], 4),
        "spans": [
            {
                "pass": s.name,
                "status": s.status,
                "wall_s": round(s.wall_s, 4),
                "cached": s.cached,
            }
            for s in result.spans
        ],
    }


def run_bench(check: bool = False) -> dict:
    workloads = {}
    totals = {r: dict.fromkeys(("hits", "misses", "entries", "evictions"), 0)
              for r in AnalysisCache.REGIONS}
    for label, name, passes, entry_check in BENCH_WORKLOADS:
        checked = check or entry_check
        # a fresh cache per workload, so no earlier entry warms the cold leg
        cache = AnalysisCache()
        cold = _run(name, passes, cache, check=checked)
        warm = _run(name, passes, cache, check=checked)
        for region, st in cache.stats().items():
            for k in totals[region]:
                totals[region][k] += st[k]
        workloads[label] = {
            "workload": name,
            "passes": [s["pass"] for s in cold["spans"]],
            "cold": cold,
            "warm": warm,
            "warm_speedup": round(
                cold["elapsed_s"] / warm["elapsed_s"], 1
            )
            if warm["elapsed_s"] > 0
            else None,
        }
    return {
        "schema": SCHEMA,
        "mode": "inprocess",
        "workloads": workloads,
        "cache": {r: {**st, "hit_rate": _rate(st)} for r, st in totals.items()},
    }


def _rate(st: dict) -> float:
    seen = st["hits"] + st["misses"]
    return st["hits"] / seen if seen else 0.0


def run_bench_pool(
    jobs: int,
    store_dir: Optional[str] = None,
    use_store: bool = True,
    check: bool = False,
) -> dict:
    """The same workload set as derive jobs on a ``repro.serve`` pool."""
    from repro.serve.jobs import JobSpec
    from repro.serve.pool import WorkerPool
    from repro.serve.store import ArtifactStore

    store = ArtifactStore(store_dir) if use_store else None
    specs = [
        JobSpec(
            kind="derive",
            workload=name,
            passes=passes,
            check=check or entry_check,
            timeout_s=300.0,
            label=label,
        )
        for label, name, passes, entry_check in BENCH_WORKLOADS
    ]
    t0 = time.perf_counter()
    with WorkerPool(workers=jobs, store=store) as pool:
        outcomes = pool.run(specs)
        elapsed = time.perf_counter() - t0
        workloads = {}
        for (label, name, _, _), out in zip(BENCH_WORKLOADS, outcomes):
            value = out.value or {}
            ir = value.get("ir", "")
            workloads[label] = {
                "workload": name,
                "passes": value.get("passes", []),
                "status": out.status,
                "wall_s": round(out.wall_s, 4),
                "worker": out.worker,
                "attempts": out.attempts,
                "error": out.error,
                # executed *this run*: a store hit replays, runs nothing
                "pass_executions": (
                    0 if out.status == "hit" else value.get("pass_executions", 0)
                ),
                "fingerprint": value.get("fingerprint"),
                "ir_sha256": (
                    hashlib.sha256(ir.encode("utf-8")).hexdigest() if ir else None
                ),
            }
        return {
            "schema": SCHEMA,
            "mode": "pool",
            "jobs": jobs,
            "workloads": workloads,
            "pool": pool.stats(),
            "store": (
                {"enabled": True, **store.stats()}
                if store is not None
                else {"enabled": False}
            ),
            "elapsed_s": round(elapsed, 4),
        }


def invariants(bench: dict) -> list[str]:
    """A bench covers at least one workload, with the legs and blocks
    its mode promises."""
    problems = [] if bench["workloads"] else ["workloads: empty"]
    return problems + check(bench, _MODE_SHAPES[bench["mode"]])


def flatten_bench(bench: dict) -> dict:
    """Flat perf metrics for a bench payload — the registered perf
    ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    workloads = bench.get("workloads") or {}
    if bench.get("mode") == "pool":
        sink.put("elapsed_s", bench.get("elapsed_s"))
        for label, data in sorted(workloads.items()):
            if not isinstance(data, dict):
                continue
            sink.put(f"bench:{label}.wall_s", data.get("wall_s"))
            sink.put(f"bench:{label}.pass_executions",
                     data.get("pass_executions"))
        pool = bench.get("pool") or {}
        sink.put("pool.busy_s", pool.get("busy_s"))
    else:
        for label, data in sorted(workloads.items()):
            if not isinstance(data, dict):
                continue
            cold = data.get("cold") or {}
            warm = data.get("warm") or {}
            sink.put(f"bench:{label}.cold_s", cold.get("elapsed_s"))
            sink.put(f"bench:{label}.warm_s", warm.get("elapsed_s"))
            sink.put(f"bench:{label}.warm_speedup", data.get("warm_speedup"))
        cache_stats(sink, bench.get("cache"))
    return sink.metrics


def _print_classic(bench: dict) -> None:
    for label, data in bench["workloads"].items():
        print(
            f"{label:<20} cold {data['cold']['elapsed_s']:7.3f}s  "
            f"warm {data['warm']['elapsed_s']:7.3f}s  "
            f"(x{data['warm_speedup']})"
        )
    for region, stats in bench["cache"].items():
        print(
            f"cache[{region}]: {stats['hits']} hits / {stats['misses']} misses "
            f"({stats['hit_rate']:.0%}, {stats['evictions']} evictions)"
        )


def _print_pool(bench: dict) -> None:
    executions = 0
    hits = 0
    for label, data in bench["workloads"].items():
        worker = f"w{data['worker']}" if data["worker"] is not None else "--"
        print(
            f"{label:<20} {data['status']:<9} {data['wall_s']:7.3f}s  "
            f"{worker}  {data['pass_executions']} pass exec"
        )
        executions += data["pass_executions"]
        hits += data["status"] == "hit"
    total = len(bench["workloads"])
    print(
        f"{total} job(s) on {bench['jobs']} worker(s) in "
        f"{bench['elapsed_s']:.3f}s: {hits} store hit(s), "
        f"{executions} pass execution(s)"
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline.bench",
        description="benchmark the pass pipeline (cold vs warm analysis "
        "cache, or --jobs N for a parallel run against the artifact store)",
    )
    parser.add_argument("path", nargs="?", default="BENCH_pipeline.json")
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="run the workloads as derive jobs on an N-worker repro.serve "
        "pool backed by the artifact store (default: classic in-process "
        "cold/warm bench)",
    )
    parser.add_argument(
        "--store-dir",
        metavar="PATH",
        help="artifact store root for --jobs (default .repro-cache/ or "
        "$REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="with --jobs: compute everything, skip the artifact store",
    )
    parser.add_argument(
        "--obs",
        metavar="PATH",
        help="write a repro.obs/1 metrics profile of the bench run here "
        "(with --jobs, worker-side counters and spans are merged in)",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="write a Chrome trace of the bench run here (with --jobs: "
        "merged across processes, one pid lane per worker; open at "
        "https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the repro.check verifier/legality predicates during the "
        "bench derivations; exit 1 on any error-severity diagnostic",
    )
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    path = args.path
    if args.jobs < 0:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    def compute() -> dict:
        if args.jobs:
            return run_bench_pool(
                args.jobs,
                store_dir=args.store_dir,
                use_store=not args.no_store,
                check=args.check,
            )
        return run_bench(check=args.check)

    try:
        if args.obs or args.chrome_trace:
            with obs_core.enabled() as o:
                bench = compute()
            if args.obs:
                obs_export.write_metrics(
                    args.obs,
                    obs_export.metrics(
                        o,
                        meta={"tool": f"{__package__}.bench"},
                        analysis_cache=bench.get("cache"),
                    ),
                )
            if args.chrome_trace:
                obs_export.write_json(args.chrome_trace, obs_export.chrome_trace(o))
        else:
            bench = compute()
    except CheckError as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        for d in e.diagnostics:
            print(f"  {d.pretty()}", file=sys.stderr)
        return 1
    store = None
    if bench["mode"] == "pool" and bench["store"].get("enabled"):
        from repro.serve.store import ArtifactStore

        store = ArtifactStore(args.store_dir)
    publish(path, bench, producer=f"{__package__}.bench", store=store)
    if bench["mode"] == "pool":
        _print_pool(bench)
    else:
        _print_classic(bench)
    print(f"wrote {path}")
    if args.obs:
        print(f"obs metrics written to {args.obs}")
    if args.chrome_trace:
        print(f"chrome trace written to {args.chrome_trace} "
              "(open at https://ui.perfetto.dev)")
    if bench["mode"] == "pool":
        bad = [
            label
            for label, data in bench["workloads"].items()
            if data["status"] in ("timeout", "failed")
        ]
        if bad:
            print(f"FAILED job(s): {', '.join(bad)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
