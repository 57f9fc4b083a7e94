"""Workload ``serve``: a 2-worker ``repro.daemon`` driven closed-loop.

Set-up starts a daemon on a fresh store, computes every other key of
:func:`key_specs` through it, and stops it; a second daemon then starts
on the same store (its memory tier empty, its workers warmed by requests
that bypass the store).  One thread drives the second daemon closed-loop
with :data:`CLIENTS` requests in flight: a new request is sent only when
a reply has come back, so at most :data:`CLIENTS` connections are open.
Each request opens its own connection, as the daemon's own client
(``repro.daemon.state.request``) does.  The seed orders
the first requests of the keys and draws the repeats.  A key's first
request is answered by a compute (unseen key) or the disk store
(pre-populated key); a repeat is only sent after its key's first reply
arrived, so it is answered by the memory tier.  First requests fall due
at even intervals, so cold computes overlap warm traffic through the
whole run.  Latency is timed by the client around the round trip; the
reply's ``source`` field splits warm replies into memory and store hits.
An operation is one answered request: ``ops_per_s`` is replies per
second of the loop, and ``op_latency_ms`` the median warm reply, both at
reference speed: every half second the loop lets its requests finish and
runs a speed probe on every core, and each stretch of the loop between
two probes is scaled by their mean slowdown (the probing time is not
counted as loop time).
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import selectors
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean

from bench_util import (
    PROBE_REF_S,
    ROOT,
    SRC,
    BenchError,
    Tally,
    block_median,
    checked_percentile,
    in_fork,
    median,
    metric,
    peak_rss_mb,
    percentile,
    probe_every_core,
    tail_percentile,
    timed_setups,
)

WORKERS = 2
CLIENTS = 2
SETUP_REPEATS = 3
#: seconds between the loop's speed probes
PROBE_EVERY_S = 0.5
#: consecutive warm replies per block; warm latency is the median over
#: blocks, and a block of 1000 is the smallest with 10 samples beyond p99
WARM_BLOCK = 1000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
WORK_DIR = ROOT / ".perfbench"


def key_specs() -> list[dict]:
    """The key set: cheap programs, derive and execute, several unroll
    factors.  Even positions are pre-populated in set-up."""
    specs = [{"kind": "derive", "workload": "givens"},
             {"kind": "execute", "workload": "givens"}]
    for workload in ("conv", "aconv", "matmul"):
        for u in (2, 3, 4, 5, 6):
            specs.append({"kind": "derive", "workload": workload, "options": {"unroll": u}})
        for u in (2, 3, 4):
            specs.append({"kind": "execute", "workload": workload, "options": {"unroll": u}})
    return specs


def prepopulated(index: int) -> bool:
    return index % 2 == 0


def reference_fingerprints(specs: list[dict]) -> list[str]:
    """In-process derivation of every key (runs in a forked child)."""
    from repro.ir.fingerprint import ir_fingerprint
    from repro.pipeline import AnalysisCache, derive

    out = []
    for spec in specs:
        unroll = spec.get("options", {}).get("unroll")
        result = derive(spec["workload"], unroll=unroll, cache=AnalysisCache())
        out.append(ir_fingerprint(result.procedure))
    return out


# ---------------------------------------------------------------------------
# the daemon process and its clients
# ---------------------------------------------------------------------------

class DaemonProcess:
    """``python -m repro.daemon start --foreground`` on one store."""

    def __init__(self, store: Path, obs_out: Path) -> None:
        self.store = store
        self.obs_out = obs_out
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        store.mkdir(parents=True, exist_ok=True)
        self.log = open(store.parent / f"{store.name}.daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.daemon", "start", "--foreground",
             "--workers", str(WORKERS), "--store-dir", str(store),
             "--obs-out", str(obs_out)],
            cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        state = self.store / "daemon.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited during start ({self.proc.returncode})")
            try:
                doc = json.loads(state.read_text())
                if doc.get("pid") == self.proc.pid:
                    port = int(doc["port"])
                    status, _ = http_call(port, "GET", "/v1/healthz")
                    if status == 200:
                        return port
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.02)
        self.kill()
        raise BenchError("daemon did not become healthy")

    def stop(self) -> None:
        """Graceful drain; the process is waited for in every case."""
        try:
            http_call(self.port, "POST", "/v1/shutdown", {})
            self.proc.wait(STOP_TIMEOUT_S)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.log.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def http_call(port: int, method: str, path: str, body=None) -> tuple[int, dict]:
    """One exchange on a fresh connection, as the daemon's own client
    makes it: on a reused connection the daemon's reply waits on the
    peer's delayed acknowledgement."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if payload is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def _submit_all(port: int, bodies: list[dict]) -> list[tuple[int, dict]]:
    """Send ``bodies`` from one thread per worker; replies in order."""
    replies: list = [None] * len(bodies)
    lock = threading.Lock()
    todo = list(range(len(bodies)))

    def worker():
        while True:
            with lock:
                if not todo:
                    return
                i = todo.pop(0)
            replies[i] = http_call(port, "POST", "/v1/jobs", bodies[i])

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(REQUEST_TIMEOUT_S * len(bodies))
    if any(r is None for r in replies):
        raise BenchError("set-up request got no reply")
    return replies


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Setup:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.count = 0

    def __call__(self) -> dict:
        """Pre-populate a fresh store from one daemon lifetime, then start
        the daemon the run measures and warm its workers."""
        self.count += 1
        store = self.work / f"store{self.count}-{os.getpid()}"
        specs = key_specs()
        first = DaemonProcess(store, self.work / f"obs-prepop{self.count}-{os.getpid()}.json")
        try:
            replies = _submit_all(first.port, [
                {"job": s} for i, s in enumerate(specs) if prepopulated(i)])
        finally:
            first.stop()
        if any(status != 200 or body.get("status") != "computed"
               for status, body in replies):
            raise BenchError(f"pre-population failed: {replies}")
        obs_out = self.work / f"obs{self.count}-{os.getpid()}.json"
        daemon = DaemonProcess(store, obs_out)
        try:
            warm = _warm_workers(daemon.port)
        except BaseException:
            daemon.stop()
            raise
        return {"daemon": daemon, "warm_busy_s": warm, "obs_out": obs_out}


def _warm_workers(port: int) -> float:
    """Run store-bypassing jobs until every worker has served one; returns
    the workers' busy seconds spent on them."""
    # distinct specs: identical in-flight jobs would coalesce onto one
    # worker; both kinds, so each worker has loaded what either needs
    bodies = [{"job": {"kind": kind, "workload": "matmul", "use_store": False,
                       "options": {"unroll": 2 + i}}}
              for kind in ("derive", "execute") for i in range(WORKERS)]
    seen: set = set()
    busy = 0.0
    for _ in range(10):
        for status, reply in _submit_all(port, bodies):
            if status != 200 or reply.get("status") != "computed":
                raise BenchError(f"warm-up request failed: {reply}")
            seen.add(reply["worker"])
            busy += reply["wall_s"]
        if len(seen) == WORKERS:
            return busy
    raise BenchError(f"warm-up reached workers {sorted(seen)} only")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Schedule:
    """Hands the client its next request; see the module docstring.

    First requests fall due at even intervals over the run, so every
    part of the run mixes the same share of cold and warm work."""

    def __init__(self, n_keys: int, seed: int, seconds: float) -> None:
        self.rng = random.Random(seed)
        self.firsts = list(range(n_keys))
        self.rng.shuffle(self.firsts)
        self.ready: list[int] = []
        self.start = time.perf_counter()
        self.gap = seconds / (n_keys + 1)
        self.deadline = self.start + seconds
        self.firsts_sent = 0

    def next(self):
        """(key, is_first), "wait", or None when the run is over."""
        now = time.perf_counter()
        if self.firsts and now >= self.start + self.firsts_sent * self.gap:
            self.firsts_sent += 1
            return self.firsts.pop(0), True
        if now >= self.deadline and not self.firsts:
            return None
        if not self.ready:  # every answered key is still in flight
            return "wait"
        return self.rng.choice(self.ready), False

    def first_done(self, key: int) -> None:
        self.ready.append(key)


class Outcomes:
    """Checks each reply as it arrives and keeps only what the metrics
    need: (source, completion time, latency) per reply and the bodies of
    computed replies."""

    def __init__(self, specs: list[dict], fingerprints: list[str]) -> None:
        self.specs = specs
        self.fingerprints = fingerprints
        self.tally = Tally()
        self.samples: list[tuple[str, float, float]] = []
        self.computed: list[dict] = []

    def add(self, key: int, first: bool, done: float, latency: float,
            status: int, raw: bytes) -> None:
        try:
            body = json.loads(raw or b"{}")
        except ValueError:
            body = {"error": f"unparsable reply {raw[:80]!r}"}
        expected = ("store" if prepopulated(key) else "pool") if first else "memory"
        self.tally.record(
            check_reply(self.specs[key], expected, status, body, self.fingerprints[key]))
        self.samples.append((expected, done, latency))
        if expected == "pool" and status == 200:
            self.computed.append(body)


class _Exchange:
    """One request in flight on its own connection."""

    __slots__ = ("key", "first", "t0", "sock", "buf")

    def __init__(self, key: int, first: bool, t0: float, sock: socket.socket) -> None:
        self.key, self.first, self.t0, self.sock = key, first, t0, sock
        self.buf = b""


def parse_response(buf: bytes):
    """(status, body) once ``buf`` holds a whole HTTP response, else None."""
    head, sep, rest = buf.partition(b"\r\n\r\n")
    if not sep:
        return None
    lines = head.split(b"\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if len(rest) < length:
        return None
    return int(lines[0].split()[1]), rest[:length]


def closed_loop(port: int, specs: list[dict], seed: int, seconds: float,
                outcomes: Outcomes) -> tuple[float, float, Slowdowns]:
    """Drive the daemon from this one thread with up to :data:`CLIENTS`
    requests in flight, each on its own connection, a new one sent only
    when a reply has come back.

    Every :data:`PROBE_EVERY_S` the loop lets the requests in flight
    finish, once no first request is among them, and runs a speed probe;
    returns the loop's start and end and a :class:`Slowdowns` of the
    probes."""
    sched = Schedule(len(specs), seed, seconds)
    requests = []
    for spec in specs:
        body = json.dumps({"job": spec}).encode()
        requests.append(
            f"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode() + body)
    sel = selectors.DefaultSelector()
    in_flight = firsts_in_flight = 0
    next_probe = sched.start + PROBE_EVERY_S
    probes = Slowdowns()
    try:
        while True:
            over = False
            probe_due = not firsts_in_flight and time.perf_counter() >= next_probe
            while in_flight < CLIENTS and not probe_due:
                item = sched.next()
                if item is None:
                    over = True
                    break
                if item == "wait":
                    break
                key, first = item
                t0 = time.perf_counter()
                sock = socket.create_connection(("127.0.0.1", port), REQUEST_TIMEOUT_S)
                sock.sendall(requests[key])
                sock.setblocking(False)
                sel.register(sock, selectors.EVENT_READ, _Exchange(key, first, t0, sock))
                in_flight += 1
                firsts_in_flight += first
            if not in_flight:
                if over:
                    break
                if probe_due:
                    t0 = time.perf_counter()
                    probe_s = probe_every_core()
                    next_probe = time.perf_counter()
                    probes.add(t0, next_probe, probe_s)
                    next_probe += PROBE_EVERY_S
                else:
                    time.sleep(0.001)
                continue
            events = sel.select(REQUEST_TIMEOUT_S)
            if not events:
                raise BenchError(f"no reply within {REQUEST_TIMEOUT_S:g}s")
            for selkey, _ in events:
                ex = selkey.data
                chunk = ex.sock.recv(65536)
                if not chunk:
                    raise BenchError("the daemon closed a connection before replying")
                ex.buf += chunk
                got = parse_response(ex.buf)
                if got is None:
                    continue
                done = time.perf_counter()
                sel.unregister(ex.sock)
                ex.sock.close()
                in_flight -= 1
                firsts_in_flight -= ex.first
                outcomes.add(ex.key, ex.first, done, done - ex.t0, *got)
                if ex.first:
                    sched.first_done(ex.key)
    finally:
        for selkey in list(sel.get_map().values()):
            selkey.fileobj.close()
        sel.close()
    if not probes.values:
        raise BenchError("the loop ended before its first speed probe")
    return sched.start, time.perf_counter(), probes


class Slowdowns:
    """The loop's speed probes.  They split the loop into stretches, and
    a stretch ran as many times slower than the reference as the mean of
    the probes on either side of it says."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []

    def add(self, start: float, end: float, probe_s: float) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self.values.append(probe_s)

    def at(self, t: float) -> float:
        """The slowdown of the stretch holding time ``t``."""
        k = bisect.bisect_right(self.ends, t)
        return fmean(self.values[max(k - 1, 0):k + 1]) / PROBE_REF_S

    def reference_seconds(self, start: float, end: float) -> float:
        """The loop time from ``start`` to ``end``, probes left out, at
        reference speed."""
        bounds = zip([start, *self.ends], [*self.starts, end])
        return sum((b - a) / self.at(a) for a, b in bounds)


def check_reply(spec: dict, expected: str, status: int, body: dict, want_fp: str) -> list[str]:
    label = f"{spec['kind']}:{spec['workload']}:{spec.get('options', {})}"
    if status != 200:
        return [f"{label}: HTTP {status} {body}"]
    problems = []
    if expected == "pool":
        if body.get("status") != "computed" or body.get("attempts", 0) < 1:
            problems.append(f"{label}: first request not computed: "
                            f"{body.get('status')} attempts={body.get('attempts')}")
    elif body.get("status") != "hit":
        problems.append(f"{label}: expected a hit, got {body.get('status')}")
    if body.get("source") != expected:
        problems.append(f"{label}: source {body.get('source')} != {expected}")
    result = body.get("result") or {}
    if result.get("fingerprint") != want_fp:
        problems.append(f"{label}: fingerprint {result.get('fingerprint')} != in-process derive")
    if spec["kind"] == "execute" and result.get("verified") is not True:
        problems.append(f"{label}: differential execution not verified")
    return problems


def run(seed: int, seconds: float, trace: bool, reference: dict):
    work = WORK_DIR / f"serve-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work: Path, seed: int, seconds: float, trace: bool):
    specs = key_specs()
    setup = Setup(work)
    setup_s, state = timed_setups(setup, SETUP_REPEATS, discard=lambda s: s["daemon"].stop(),
                                  probe=probe_every_core)
    daemon = state["daemon"]
    try:
        outcomes = Outcomes(specs, in_fork(lambda: reference_fingerprints(specs)))
        t0 = time.perf_counter()
        before = _status(daemon.port) if trace else None
        trace_extra = time.perf_counter() - t0
        start, end, probes = closed_loop(daemon.port, specs, seed, seconds, outcomes)
        t0 = time.perf_counter()
        after = _status(daemon.port) if trace else None
    finally:
        daemon.stop()

    tally, samples = outcomes.tally, outcomes.samples
    lat: dict[str, list[float]] = {"pool": [], "store": [], "memory": []}
    for source, _, latency in samples:
        lat[source].append(latency)
    # every key is asked for a first time exactly once, and the first reply
    # comes from the store exactly for the pre-populated keys
    n_store = sum(1 for i in range(len(specs)) if prepopulated(i))
    if (len(lat["store"]), len(lat["pool"])) != (n_store, len(specs) - n_store):
        tally.record([f"outcome counts: {len(lat['store'])} store, {len(lat['pool'])} "
                      f"computed for {n_store} pre-populated of {len(specs)} keys"])
    ms = 1000.0
    if not trace:
        warm = [latency for source, _, latency in samples if source != "pool"]
        tail = tail_percentile(len(warm))
        print(f"samples: {len(samples)} replies, {len(lat['memory'])} memory, "
              f"{len(lat['store'])} store, {len(lat['pool'])} computed; warm latency "
              f"over blocks of {WARM_BLOCK} replies; warm p{tail:g} over the run "
              f"{percentile(warm, tail) * ms:.3f} ms", file=sys.stderr)
        probing_s = sum(b - a for a, b in zip(probes.starts, probes.ends))
        scaled_warm = [latency / probes.at(done)
                       for source, done, latency in samples if source != "pool"]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ops_per_s": metric(len(samples) / probes.reference_seconds(start, end), "1/s"),
            "op_latency_ms": metric(median(scaled_warm) * ms, "ms"),
        }
        detail = {
            "raw.ops_per_s": metric(len(samples) / (end - start - probing_s), "1/s"),
            "raw.op_latency_ms": metric(median(warm) * ms, "ms"),
            "core_slowdown": metric(fmean(probes.values) / PROBE_REF_S, "x"),
            "warm_p50_ms": metric(block_median(warm, WARM_BLOCK, median) * ms, "ms"),
            "warm_p99_ms": metric(
                block_median(warm, WARM_BLOCK,
                             lambda block: checked_percentile(block, 99.0)) * ms, "ms"),
            "store_p50_ms": metric(median(lat["store"]) * ms, "ms"),
            "cold_p50_ms": metric(median(lat["pool"]) * ms, "ms"),
        }
        return tally, metrics, detail

    t1 = time.perf_counter()
    obs = _payload(json.loads(Path(state["obs_out"]).read_text()))
    final = _payload(json.loads((daemon.store / "daemon_final_status.json").read_text()))
    trace_extra += (t1 - t0) + (time.perf_counter() - t1)
    counters, spans = obs["counters"], obs["spans"]
    busy = final["pool"]["busy_s"] - state["warm_busy_s"]
    walls = [b["wall_s"] for b in outcomes.computed]
    waits = [b["queue_wait_s"] for b in outcomes.computed]
    # a worker stores its result after the job's own clock stops and
    # before the pool's clock does; the put is the step between them
    puts = [b["wall_s"] - b["result"]["elapsed_s"] for b in outcomes.computed]
    print(f"note: serve.job_wall_p90_ms not reported: {len(walls)} computed jobs, "
          "the tail rule needs 10 beyond p90", file=sys.stderr)
    print("note: ir.fingerprint.* read 0 on serve: the daemon fingerprints "
          "specs in its own process, which exposes no counter for it", file=sys.stderr)
    return tally, {
        "daemon.memory_hits": metric(
            after["requests"]["memory_hits"] - before["requests"]["memory_hits"], "count"),
        "daemon.hit_memory_p50_ms": metric(median(lat["memory"]) * ms, "ms"),
        "daemon.shed": metric(after["requests"]["shed"] - before["requests"]["shed"], "count"),
        "daemon.deadline": metric(
            after["requests"]["deadline"] - before["requests"]["deadline"], "count"),
        "serve.store.hits": metric(counters.get("serve.store.hit", 0), "count"),
        "serve.store.misses": metric(counters.get("serve.store.miss", 0), "count"),
        "serve.hit_store_p50_ms": metric(median(lat["store"]) * ms, "ms"),
        "serve.pool.busy_s": metric(busy, "s"),
        "serve.pool.utilization": metric(busy / (WORKERS * (end - start)), "ratio"),
        "serve.queue_wait_p50_ms": metric(median(waits) * ms, "ms"),
        "serve.job_wall_p50_ms": metric(median(walls) * ms, "ms"),
        "serve.dedup.coalesced": metric(counters.get("serve.dedup.coalesced", 0), "count"),
        "serve.job.retry": metric(counters.get("serve.job.retry", 0), "count"),
        "artifacts.store_get_s": metric(spans.get("store:get", {}).get("total_s", 0.0), "s"),
        "artifacts.store_put_s": metric(sum(puts), "s"),
        "artifacts.store_writes": metric(
            final["store"]["entries"] - before["store"]["entries"], "count"),
        "trace.overhead_s": metric(trace_extra, "s"),
        "trace.overhead_ratio": metric(trace_extra / (end - start), "ratio"),
    }, {}


def _payload(doc: dict) -> dict:
    """The payload of an enveloped artifact (or the bare document)."""
    return doc.get("payload", doc)


def _status(port: int) -> dict:
    status, doc = http_call(port, "GET", "/v1/status")
    if status != 200:
        raise BenchError(f"/v1/status answered {status}")
    return _payload(doc)
