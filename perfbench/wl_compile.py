"""Workload ``compile``: cold derivation of the registry programs.

Every derivation runs in its own forked child of a process that has
imported the program but never derived anything, with a fresh
``AnalysisCache``: no memo of an earlier derivation can reach it.  A
round derives each of the :data:`TIMED` programs once, in a seeded
order; rounds repeat while the run's time lasts.  An operation is one
derivation: ``ops_per_s`` is derivations per second of deriving, and
``op_latency_ms`` the geometric mean over the programs of each
program's mean derivation time, both from times at reference speed
(the child runs a speed probe right before and right after deriving).
``lu_pivot`` (about 20 s a derivation) would fill a run on its own, so
it is derived only by the traced run, which attributes its time to the
layers.
"""

from __future__ import annotations

import contextlib
import random
import sys
import time
from statistics import fmean

from bench_util import (
    Tally,
    at_reference_speed,
    in_fork,
    metric,
    mix_detail,
    mix_metrics,
    peak_rss_mb,
    repeat_rounds,
    speed_probe,
    timed_setups,
    tracing_overhead,
)

PROGRAMS = ("lu_pivot", "lu_nopivot", "givens", "conv", "aconv", "matmul")
#: the programs the untraced run derives
TIMED = PROGRAMS[1:]
SETUP_REPEATS = 3
PASSES = ("block", "split", "jam", "scalars", "givens_opt", "if_inspection")


def setup() -> None:
    """Load the program: what every derivation's process starts from."""
    import repro.blockability  # noqa: F401  (the block pass classifies)
    import repro.pipeline  # noqa: F401


def _import_program() -> None:
    """Import every ``repro`` module a derivation can reach, so the layer
    wrappers see each binding site before the first call."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def derive_once(name: str, trace: bool) -> dict:
    """One cold derivation; runs inside a forked child."""
    from repro.ir.fingerprint import ir_fingerprint
    from repro.obs import Obs, enabled
    from repro.pipeline import GLOBAL_CACHE, AnalysisCache, derive

    tracer = obs = None
    if trace:
        from layers import LayerTracer

        _import_program()
        tracer = LayerTracer()
        tracer.install_compile_layers()
        obs = Obs()
    cache = AnalysisCache()
    speed_probe()  # the first run after the fork pays for copied pages
    probe_before = speed_probe()
    t0 = time.perf_counter()
    with enabled(obs) if trace else contextlib.nullcontext():
        result = derive(name, cache=cache)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
    probe_after = speed_probe()
    block = result.artifact("block")
    out = {
        "wall_s": wall,
        "probe_s": (probe_before + probe_after) / 2,
        "fingerprint": ir_fingerprint(result.procedure),
        "statuses": [s.status for s in result.spans],
        "blocked": None if block is None else bool(block.blocked_innermost),
        "cache": cache.stats(),
        "global_hits": GLOBAL_CACHE.total_hits(),
    }
    if name == "givens":
        from repro.algorithms.qr_givens import givens_optimized_ir

        out["matches_fig10"] = result.procedure.body == givens_optimized_ir().body
    if tracer is not None:
        out["layers"] = {
            "calls": dict(tracer.calls),
            "inclusive_s": dict(tracer.inclusive_s),
            "self_s": dict(tracer.self_s),
            "counters": dict(obs.counters),
        }
    return out


def check(name: str, got: dict, reference: dict) -> list[str]:
    want = reference["compile"][name]
    problems = []
    for key in ("fingerprint", "statuses", "blocked"):
        if got[key] != want[key]:
            problems.append(f"{name}: {key} {got[key]!r} != reference {want[key]!r}")
    if got["cache"]["passes"]["hits"] or got["global_hits"]:
        problems.append(f"{name}: derivation was not cold (cache hits)")
    if name == "givens" and not got["matches_fig10"]:
        problems.append("givens: derived IR differs from the Fig. 10 comparator")
    return problems


def run(seed: int, seconds: float, trace: bool, reference: dict) -> tuple[Tally, dict, dict]:
    setup_s, _ = timed_setups(setup, SETUP_REPEATS)
    rng = random.Random(seed)
    tally = Tally()
    walls: dict[str, list[float]] = {name: [] for name in TIMED}
    scaled: dict[str, list[float]] = {name: [] for name in TIMED}
    probes: list[float] = []

    def one(name: str, traced: bool) -> dict:
        got = in_fork(lambda: derive_once(name, traced))
        tally.record(check(name, got, reference))
        return got

    if trace:
        return tally, _traced(one, rng), {}

    def one_round() -> None:
        order = list(TIMED)
        rng.shuffle(order)
        for name in order:
            got = one(name, False)
            walls[name].append(got["wall_s"])
            scaled[name].append(at_reference_speed(got["wall_s"], got["probe_s"]))
            probes.append(got["probe_s"])

    rounds = repeat_rounds(seconds, one_round)
    metrics = {"setup_s": metric(setup_s, "s"), "peak_rss_mb": metric(peak_rss_mb(), "MB"),
               **mix_metrics(scaled)}
    detail = {f"derive.{name}_s": metric(fmean(w), "s") for name, w in scaled.items()}
    return tally, metrics, {**detail, **mix_detail(walls, probes, rounds)}


def _traced(one, rng: random.Random) -> dict:
    """One untraced derivation of every timed program, then one traced
    derivation of every program; the tracing overhead is taken over the
    timed programs."""
    from repro.pipeline import AnalysisCache

    order = list(TIMED)
    rng.shuffle(order)
    untraced = {name: one(name, False)["wall_s"] for name in order}
    traced = {name: one(name, True) for name in ("lu_pivot", *order)}

    calls: dict = {}
    inclusive: dict = {}
    self_s: dict = {}
    counters: dict = {}
    regions = {r: [0, 0] for r in AnalysisCache.REGIONS}
    for got in traced.values():
        layers = got["layers"]
        for src, dst in ((layers["calls"], calls), (layers["inclusive_s"], inclusive),
                         (layers["self_s"], self_s), (layers["counters"], counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for r in AnalysisCache.REGIONS:
            regions[r][0] += got["cache"][r]["hits"]
            regions[r][1] += got["cache"][r]["hits"] + got["cache"][r]["misses"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return inclusive.get(name, 0.0)

    m = {
        "symbolic.compare.calls": metric(c("symbolic.compare"), "count"),
        "symbolic.compare_s": metric(s("symbolic.compare"), "s"),
        "symbolic.bound.calls": metric(c("symbolic.bound"), "count"),
        "symbolic.bound_s": metric(s("symbolic.bound"), "s"),
        "symbolic.simplify.calls": metric(c("symbolic.simplify"), "count"),
        "symbolic.simplify_s": metric(s("symbolic.simplify"), "s"),
        "analysis.dependence.queries": metric(counters.get("dependence.queries", 0), "count"),
        "analysis.dependence.edges": metric(counters.get("dependence.edges", 0), "count"),
        "analysis.dependence_s": metric(s("analysis.dependence"), "s"),
        "analysis.fm.queries": metric(
            counters.get("fm.feasible.queries", 0) + counters.get("fm.direction.queries", 0),
            "count"),
        "analysis.fm_s": metric(s("analysis.fm"), "s"),
        "analysis.sections.calls": metric(c("analysis.sections"), "count"),
        "analysis.sections_s": metric(s("analysis.sections"), "s"),
        "analysis.graph.builds": metric(c("analysis.graph.build"), "count"),
        "analysis.graph_s": metric(s("analysis.graph"), "s"),
    }
    for p in PASSES:
        m[f"pipeline.pass.{p}_s"] = metric(s(f"pipeline.pass.{p}"), "s")
    for r, (hits, total) in regions.items():
        m[f"pipeline.cache.{r}.hit_rate"] = metric(hits / total if total else 0.0, "ratio")
    m["transform.self_s"] = metric(self_s.get("transform", 0.0), "s")
    m["ir.fingerprint.calls"] = metric(c("ir.fingerprint"), "count")
    m["ir.fingerprint_s"] = metric(s("ir.fingerprint"), "s")
    for layer in ("symbolic", "analysis", "ir"):
        m[f"layers.{layer}.self_s"] = metric(self_s.get(layer, 0.0), "s")

    pivot = traced["lu_pivot"]
    named = sum(pivot["layers"]["self_s"].values())
    m["layers.lu_pivot.coverage"] = metric(named / pivot["wall_s"], "ratio")
    derive_wall = sum(got["wall_s"] for got in traced.values())
    m["layers.unattributed_s"] = metric(derive_wall - sum(self_s.values()), "s")
    extra, ratio = tracing_overhead(sum(traced[name]["wall_s"] for name in TIMED),
                                    sum(untraced.values()))
    m["trace.overhead_s"] = metric(extra, "s")
    m["trace.overhead_ratio"] = metric(ratio, "ratio")
    print("derivations, untraced / traced: " + ", ".join(
        f"{name} {untraced.get(name, float('nan')):.3f} / {traced[name]['wall_s']:.3f} s"
        for name in PROGRAMS), file=sys.stderr)
    return m
