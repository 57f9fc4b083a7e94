"""Statistics, provenance, process and result helpers shared by the workloads.

Nothing here imports ``repro``: the helpers are used before the program
under test is loaded (set-up timing forks children that must import it
cold) and are unit-tested on their own (``test_perfbench_helpers.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: percentiles the tail rule may pick from, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10
#: seconds :func:`speed_probe` takes on an uncontended core of the host
#: the benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11)
PROBE_REF_S = 0.004


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order
    statistics (numpy's default rule)."""
    if not values:
        raise BenchError("percentile of no samples")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th percentile
    rank."""
    return n - 1 - int((n - 1) * p / 100.0)


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_PERCENTILES) -> float:
    """The highest percentile in ``candidates`` with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it; raises when none has."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    raise BenchError(
        f"{n} samples: no tail percentile has {TAIL_MIN_BEYOND} samples beyond it"
    )


def checked_percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, refused unless the tail rule allows ``p``."""
    if samples_beyond(len(values), p) < TAIL_MIN_BEYOND:
        raise BenchError(
            f"p{p:g} of {len(values)} samples has fewer than "
            f"{TAIL_MIN_BEYOND} samples beyond it"
        )
    return percentile(values, p)


def block_median(values: Sequence[float], size: int, stat: Callable) -> float:
    """Median over consecutive blocks of ``size`` values of ``stat(block)``;
    a last, incomplete block is dropped.  A burst of noise then moves only
    the blocks it falls in."""
    blocks = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    if not blocks:
        raise BenchError(f"{len(values)} samples: not one block of {size}")
    return median([stat(b) for b in blocks])


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the speed the core
    gives this process at the moment.

    The loop allocates and hashes small objects, as the program does, so
    it slows as much as the program when another tenant contends for the
    core (on a shared host a core flips within seconds between full speed
    and about half of it).  The collector is off while it runs, so the
    program's heap does not change its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(6000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + len(str(i))
        sorted(Fraction(i, 7) + Fraction(1, i + 1) for i in range(500))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def probe_every_core() -> float:
    """Mean of one :func:`speed_probe` on each core this process may
    use: the speed of work spread over several processes."""
    cores = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(speed_probe())
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.fmean(times)


def at_reference_speed(wall: float, probe_s: float) -> float:
    """``wall`` seconds, measured while :func:`speed_probe` took
    ``probe_s``, as seconds on the reference core: the operation's time
    scaled by how much slower than :data:`PROBE_REF_S` the core ran."""
    return wall * PROBE_REF_S / probe_s


def mix_metrics(walls: dict[str, list[float]]) -> dict:
    """The throughput and latency of a workload whose operations come in
    kinds; ``walls`` maps each kind to the seconds each of its operations
    took.

    ``ops_per_s`` is operations completed per second spent on them, and
    ``op_latency_ms`` the geometric mean over the kinds of each kind's
    mean latency, so every kind weighs the same however long it takes.
    Both are means: on a host whose speed drifts within a run, a mean
    follows the run's average speed, where the median of a few samples
    of a kind jumps between a fast and a slow phase."""
    if not walls or not all(walls.values()):
        raise BenchError("an operation kind has no samples")
    n = sum(len(w) for w in walls.values())
    total = sum(sum(w) for w in walls.values())
    log_mean = statistics.fmean(math.log(sum(w) / len(w)) for w in walls.values())
    return {
        "ops_per_s": metric(n / total, "1/s"),
        "op_latency_ms": metric(math.exp(log_mean) * 1000.0, "ms"),
    }


def mix_detail(walls: dict[str, list[float]], probes: Sequence[float], rounds: int) -> dict:
    """What is printed beside :func:`mix_metrics` of the times at
    reference speed: the same metrics from the raw wall times, how many
    times slower than the reference the core ran on average, and the
    rounds run."""
    raw = mix_metrics(walls)
    return {
        "raw.ops_per_s": raw["ops_per_s"],
        "raw.op_latency_ms": raw["op_latency_ms"],
        "core_slowdown": metric(statistics.fmean(probes) / PROBE_REF_S, "x"),
        "rounds": metric(rounds, "count"),
    }


def repeat_rounds(seconds: float, one_round: Callable[[], object]) -> int:
    """Run ``one_round`` once, then again while another round as long as
    the last would end less than half a round past ``seconds`` from the
    first start; returns the number of rounds run."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - t0) / 2 > seconds:
            return rounds


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: tuple[float, float], children: Sequence[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may nest or overlap each other; parts of a child outside the
    span are ignored."""
    lo, hi = span
    clipped = [(max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi]
    return (hi - lo) - union_length(clipped)


def tracing_overhead(traced_wall_s: float, untraced_wall_s: float) -> tuple[float, float]:
    """(seconds, ratio) the traced run cost over the untraced one."""
    if untraced_wall_s <= 0:
        raise BenchError("untraced wall time must be positive")
    extra = traced_wall_s - untraced_wall_s
    return extra, extra / untraced_wall_s


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

#: provenance fields that must agree before two results may be compared
HOST_KEYS = ("nproc", "cpu", "python", "numpy")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=20, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies the
    code under test where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, workers: Optional[int]) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = _git("rev-parse", "HEAD")
    dirty = None
    if commit is not None:
        dirty = bool(_git("status", "--porcelain", "--", "src"))
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "seed": seed,
        "workers": workers,
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Host fields on which two provenance records differ (empty = ok)."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process and of every waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def in_fork(fn: Callable[[], object]):
    """Run ``fn`` in a forked child and return its JSON-able result.

    The child starts from this process's memory but leaves no state
    behind, so every call is as cold as the parent was at fork time.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(r)
        code = 0
        try:
            doc = {"ok": True, "value": fn()}
        except BaseException:  # report everything, then leave the child
            doc = {"ok": False, "error": traceback.format_exc()}
            code = 1
        try:
            with os.fdopen(w, "w") as out:
                json.dump(doc, out)
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as inp:
        raw = inp.read()
    _, status = os.waitpid(pid, 0)
    if not raw:
        raise BenchError(f"forked child died without a result (status {status})")
    doc = json.loads(raw)
    if not doc["ok"]:
        raise BenchError("forked child failed:\n" + doc["error"])
    return doc["value"]


def timed_setups(setup: Callable[[], object], repeats: int,
                 discard: Optional[Callable[[object], None]] = None,
                 probe: Callable[[], float] = speed_probe) -> tuple[float, object]:
    """Run ``setup`` ``repeats`` times and return (median seconds at
    reference speed, the last run's value).  All but the last run happen
    in forked children, so each starts from the same cold state, and
    ``discard`` releases what they built; the last runs here and its value
    is what the workload measures against.  ``probe`` runs before and
    after each set-up (:func:`probe_every_core` for a set-up that starts
    processes).  Call before importing the program.
    """
    def timed() -> tuple[float, object]:
        probe()  # the first run after a fork pays for copied pages
        before = probe()
        t0 = time.perf_counter()
        value = setup()
        elapsed = time.perf_counter() - t0
        return at_reference_speed(elapsed, (before + probe()) / 2), value

    def child() -> float:
        elapsed, value = timed()
        if discard is not None:
            discard(value)
        return elapsed

    times = [in_fork(child) for _ in range(repeats - 1)]
    elapsed, value = timed()
    times.append(elapsed)
    return median(times), value


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(tally: Tally, metrics: dict, detail: dict, prov: dict, out: Optional[str]) -> int:
    """Print the human summary (the metrics, then the workload's own
    breakdown under ``detail``), then the result object as the last line.
    Returns the exit code."""
    correct = tally.failed == 0 and tally.attempted > 0
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    width = max((len(k) for k in [*metrics, *detail]), default=0)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    for name, m in detail.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}  (detail)")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if out:
        Path(out).write_text(
            json.dumps({**result, "detail": detail, "provenance": prov},
                       indent=2, sort_keys=True) + "\n"
        )
    print(json.dumps(result))
    return 0 if correct else 1
