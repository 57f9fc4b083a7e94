"""The repository's benchmark: cold derivation, T-table simulation, served
requests.

Run from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``compile``, ``tables`` or ``serve`` (see
``wl_<name>.py`` for what each runs and why).  ``--trace 0`` measures the
end-to-end metrics, the same four on every workload:

``setup_s``
    median of three set-ups (imports, built variants, a daemon on a
    pre-populated store);
``peak_rss_mb``
    peak resident set of the benchmark and its children;
``ops_per_s``
    operations completed per second: cold derivations (``compile``),
    simulated T-table cells (``tables``), answered requests (``serve``);
``op_latency_ms``
    the latency of one operation: on ``compile`` and ``tables`` the
    geometric mean over the operation kinds (programs, cells) of each
    kind's mean time; on ``serve`` the median warm reply, timed by the
    client around the round trip.

The times behind every metric but ``peak_rss_mb`` are given at
reference speed.  This benchmark's hosts share their cores with other
tenants: a core flips within seconds between full speed and about half
of it, and the mix drifts over minutes, so raw times of the same code
differ by up to a factor of two between runs.  A fixed pure-Python loop
(``bench_util.speed_probe``) is therefore timed beside the work: right
before and after each derivation, cell and set-up, in the same process,
and on every core every half second during the ``serve`` loop.  Each time is
scaled by ``PROBE_REF_S`` over the probe's time, which is what it would
have been on an uncontended core of the reference host.  The program
cannot change the probe, so the scaled times move only with the
program; the raw figures and the measured slowdown are printed beside
them.

Each workload also prints its own breakdown (per program, per table, per
reply source), marked ``(detail)``.  ``--trace 1`` makes a separate
traced run that splits the time across the program's layers and
reports the tracing overhead.  Every output is checked against ``reference.json`` or an
independent in-process computation; a failed check counts as a failed
operation and makes the exit code 1.  The last line of standard output
is the result object; ``--out PATH`` also writes it with its provenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_util import ROOT, SRC, BenchError, emit, provenance  # noqa: E402

WORKLOADS = ("compile", "tables", "serve")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def complete(metrics: dict, declared: list[dict], zero_fill: bool) -> dict:
    """Every declared metric in declared order.  With ``zero_fill`` a
    metric the workload did not produce (a layer it does not exercise)
    reads 0; without, it is an error."""
    out = {}
    for m in declared:
        got = metrics.pop(m["name"], None)
        if got is None and not zero_fill:
            raise BenchError(f"{m['name']}: not measured")
        if got is not None and got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
        out[m["name"]] = got if got is not None else {"value": 0, "unit": m["unit"]}
    if metrics:
        raise BenchError(f"undeclared metrics: {sorted(metrics)}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the result and its provenance here")
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    reference = json.loads((HERE / "reference.json").read_text())
    module = __import__(f"wl_{args.workload}")
    try:
        tally, metrics, detail = module.run(
            args.seed, args.seconds, bool(args.trace), reference)
        if args.trace:
            metrics = complete(metrics, spec["per_layer"], zero_fill=True)
        else:
            metrics = complete(metrics, spec["end_to_end"], zero_fill=False)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    workers = getattr(module, "WORKERS", None)
    return emit(tally, metrics, detail, provenance(args.seed, workers), args.out)


if __name__ == "__main__":
    sys.exit(main())
