"""Workload ``tables``: the T1-T5 cells, traced through the cache model.

Every cell is one ``repro.bench.harness.measure`` call (codegen of the
traced kernel, execution, cache and TLB simulation) at reduced geometry.
All variants, including the compiler-derived ones, are built during
set-up.  A round measures every cell once, in a seeded order; rounds
repeat while the run's time lasts.  An operation is one cell:
``ops_per_s`` is cells measured per second of measuring, and
``op_latency_ms`` the geometric mean over the cells of each cell's mean
wall time, both from times at reference speed (a speed probe runs
between consecutive cells).  Each table's total is printed beside them.

The seed draws the array data.  It is drawn so that the access trace
does not depend on it: pivoted LU gets a column diagonally dominant
matrix (the pivot search never moves off the diagonal), the guarded
matrix multiply keeps ``sparse_b``'s zero pattern with seeded nonzero
values, and Givens QR gets entries in [0.1, 1).  Every cell's cache and
TLB statistics must therefore equal the reference exactly.
"""

from __future__ import annotations

import contextlib
import random
import time
from statistics import fmean

from bench_util import (
    Tally,
    at_reference_speed,
    median,
    metric,
    mix_detail,
    mix_metrics,
    peak_rss_mb,
    repeat_rounds,
    speed_probe,
    timed_setups,
    tracing_overhead,
)

SETUP_REPEATS = 3
#: T2-T5 geometry: the paper's geometry divided by these scales
SCALE_T2 = 8
SCALE = 16
#: T1 runs on the unscaled machine at reduced kernel sizes
T1_SIZES = (60, 100)
TABLES = ("t1", "t2", "t3", "t4", "t5")


def setup() -> dict:
    """Build every variant the tables measure."""
    from repro.algorithms import (
        aconv_ir,
        conv_ir,
        givens_point_ir,
        lu_pivot_block_fig8_ir,
        lu_pivot_point_ir,
        lu_point_ir,
        lu_sorensen_ir,
        matmul_guarded_ir,
    )
    from repro.bench import experiments as E

    return {
        "aconv": aconv_ir(),
        "aconv_x": E.conv_transformed("aconv", 4),
        "conv": conv_ir(),
        "conv_x": E.conv_transformed("conv", 4),
        "mm_orig": matmul_guarded_ir(),
        "mm_uj": E.matmul_uj_naive(4),
        "mm_ujif": E.matmul_ujif(4),
        "lu_point": lu_point_ir(),
        "lu_1": lu_sorensen_ir(),
        "lu_2": E.derived_block_lu(),
        "lu_2p": E.lu_two_plus(),
        "piv_point": lu_pivot_point_ir(),
        "piv_1": lu_pivot_block_fig8_ir(),
        "piv_1p": E.lu_pivot_one_plus(),
        "g_point": givens_point_ir(),
        "g_opt": E.givens_opt_measured(),
    }


def cells(seed: int) -> list[dict]:
    """Every cell: table, id, variant, sizes, machine, arrays."""
    import numpy as np

    from repro.algorithms import sparse_b
    from repro.bench import experiments as E
    from repro.machine.model import RS6000_540, scaled_machine

    rng = np.random.default_rng(seed)
    out = []

    def add(table, cid, variant, sizes, machine, arrays=None):
        out.append({"table": table, "id": f"{table}/{cid}/{variant}", "variant": variant,
                    "sizes": sizes, "machine": machine, "arrays": arrays})

    for kernel in ("conv", "aconv"):
        for size in T1_SIZES:
            for v in (kernel, kernel + "_x"):
                add("t1", f"{kernel}{size}", v, E.conv_sizes(size), RS6000_540)

    m2 = scaled_machine(SCALE_T2)
    n2 = E.scaled_size(300, SCALE_T2)
    for freq in (0.025, 0.10):
        pattern = sparse_b(n2, freq, run_len=max(4, n2 // 8)) != 0.0
        b = np.where(pattern, rng.uniform(0.5, 1.5, pattern.shape), 0.0)
        b = np.asfortranarray(b.astype(np.float32))
        for v in ("mm_orig", "mm_uj", "mm_ujif"):
            add("t2", f"f{freq:g}", v, {"N": n2}, m2, {"B": b})

    m = scaled_machine(SCALE)
    for table, variants, dominant in (
        ("t3", ("lu_point", "lu_1", "lu_2", "lu_2p"), False),
        ("t4", ("piv_point", "piv_1", "piv_1p"), True),
    ):
        for size in (300, 500):
            n = E.scaled_size(size, SCALE)
            arrays = None
            if dominant:
                a = rng.uniform(-1.0, 1.0, (n, n))
                a[np.diag_indices(n)] = np.abs(a).sum(axis=0) + rng.uniform(1.0, 2.0, n)
                arrays = {"A": np.asfortranarray(a)}
            for block in (32, 64):
                ks = E.scaled_block(block, SCALE)
                for v in variants:
                    sizes = {"N": n} if v.endswith("point") else {"N": n, "KS": ks}
                    add(table, f"n{size}b{block}", v, sizes, m, arrays)

    for size in (300, 500):
        n = E.scaled_size(size, SCALE)
        a = np.asfortranarray(rng.uniform(0.1, 1.0, (n, n)))
        for v in ("g_point", "g_opt"):
            add("t5", f"n{size}", v, {"M": n, "N": n}, m, {"A": a})
    return out


class TraceCapture:
    """Keeps the tracer of each ``measure`` call, whose result holds only
    counts, so the cell's full ``CacheStats`` can be checked without a
    second simulation.  The harness's ``trace_procedure`` binding is
    replaced by a pass-through that looks the real function up at call
    time (where the layer tracer may have wrapped it)."""

    def __init__(self) -> None:
        from repro.bench import harness
        from repro.machine import tracer as tracer_mod

        self.last = None

        def capture(*args, **kwargs):
            self.last = tracer_mod.trace_procedure(*args, **kwargs)
            return self.last

        harness.trace_procedure = capture


def measure_cell(variants: dict, cell: dict, seed: int, capture: TraceCapture):
    """(wall seconds, cache stats dict, tlb stats dict) of one cell."""
    from repro.bench.harness import measure

    t0 = time.perf_counter()
    measure(variants[cell["variant"]], cell["sizes"], cell["machine"],
            arrays=cell["arrays"], seed=seed)
    wall = time.perf_counter() - t0
    tracer = capture.last
    return wall, tracer.stats.to_dict(), tracer.tlb_stats.to_dict()


def exec_cell(variants: dict, cell: dict, seed: int) -> float:
    """Untraced execution time of the cell's kernel (codegen excluded)."""
    from repro.runtime.codegen import compile_procedure

    runner = compile_procedure(variants[cell["variant"]])
    t0 = time.perf_counter()
    runner(cell["sizes"], arrays=cell["arrays"], seed=seed)
    return time.perf_counter() - t0


def check(cell: dict, cache: dict, tlb: dict, reference: dict) -> list[str]:
    want = reference["tables"].get(cell["id"])
    if want is None:
        return [f"{cell['id']}: no reference"]
    problems = []
    if cache != want["cache"]:
        problems.append(f"{cell['id']}: cache stats {cache} != reference {want['cache']}")
    if tlb != want["tlb"]:
        problems.append(f"{cell['id']}: tlb stats {tlb} != reference {want['tlb']}")
    return problems


def run_round(variants, cell_list, seed, capture, tally, reference) -> dict:
    """Measure every cell once; returns each cell's wall seconds and the
    mean of the speed probes run just before and just after it, and the
    summed cache counts."""
    walls = {}
    probes = {}
    counts = {"accesses": 0, "misses": 0, "writebacks": 0, "tlb_misses": 0}
    probe_before = speed_probe()
    for cell in cell_list:
        wall, cache, tlb = measure_cell(variants, cell, seed, capture)
        probe_after = speed_probe()
        tally.record(check(cell, cache, tlb, reference))
        walls[cell["id"]] = wall
        probes[cell["id"]] = (probe_before + probe_after) / 2
        probe_before = probe_after
        counts["accesses"] += cache["accesses"]
        counts["misses"] += cache["misses"]
        counts["writebacks"] += cache["writebacks"]
        counts["tlb_misses"] += tlb["misses"]
    return {"walls": walls, "probes": probes, "counts": counts}


def run(seed: int, seconds: float, trace: bool, reference: dict):

    setup_s, variants = timed_setups(setup, SETUP_REPEATS)
    capture = TraceCapture()
    cell_list = cells(seed)
    rng = random.Random(seed)
    tally = Tally()

    if trace:
        from layers import LayerTracer
        from repro.obs import Obs, enabled

        order = list(cell_list)
        rng.shuffle(order)
        exec_s = sum(exec_cell(variants, cell, seed) for cell in order)
        # alternate untraced and traced rounds; the layers are read from
        # the last traced round
        walls: dict[bool, list[float]] = {False: [], True: []}
        for traced in (False, True, False, True):
            tracer = LayerTracer()
            if traced:
                tracer.install_runtime_layers()
            try:
                t0 = time.perf_counter()
                with enabled(Obs()) if traced else contextlib.nullcontext():
                    got = run_round(variants, order, seed, capture, tally, reference)
                walls[traced].append(time.perf_counter() - t0)
            finally:
                tracer.restore()
        trace_s = tracer.self_s.get("machine", 0.0)
        counts = got["counts"]
        extra, ratio = tracing_overhead(median(walls[True]), median(walls[False]))
        return tally, {
            "runtime.codegen.calls": metric(tracer.calls.get("runtime.codegen", 0), "count"),
            "runtime.codegen_s": metric(tracer.inclusive_s.get("runtime.codegen", 0.0), "s"),
            "runtime.exec_s": metric(exec_s, "s"),
            "machine.accesses": metric(counts["accesses"], "count"),
            "machine.misses": metric(counts["misses"], "count"),
            "machine.writebacks": metric(counts["writebacks"], "count"),
            "machine.tlb_misses": metric(counts["tlb_misses"], "count"),
            "machine.trace_s": metric(trace_s, "s"),
            "machine.maccess_per_s": metric(counts["accesses"] / trace_s / 1e6, "M/s"),
            "machine.tracing_cost_s": metric(trace_s - exec_s, "s"),
            "trace.overhead_s": metric(extra, "s"),
            "trace.overhead_ratio": metric(ratio, "ratio"),
        }, {}

    walls: dict[str, list[float]] = {cell["id"]: [] for cell in cell_list}
    scaled: dict[str, list[float]] = {cell["id"]: [] for cell in cell_list}
    probes: list[float] = []

    def one_round() -> None:
        order = list(cell_list)
        rng.shuffle(order)
        got = run_round(variants, order, seed, capture, tally, reference)
        for cid, wall in got["walls"].items():
            walls[cid].append(wall)
            scaled[cid].append(at_reference_speed(wall, got["probes"][cid]))
            probes.append(got["probes"][cid])

    rounds = repeat_rounds(seconds, one_round)
    metrics = {"setup_s": metric(setup_s, "s"), "peak_rss_mb": metric(peak_rss_mb(), "MB"),
               **mix_metrics(scaled)}
    detail = {}
    for t in TABLES:
        total = sum(fmean(scaled[c["id"]]) for c in cell_list if c["table"] == t)
        detail[f"table.{t}_s"] = metric(total, "s")
    return tally, metrics, {**detail, **mix_detail(walls, probes, rounds)}
