"""The ``repro.par/1`` report schema: build, shape, flatten, write.

.. code-block:: text

    {
      'schema': 'repro.par/1',
      'meta': {'workloads': 'conv,matmul', ...},      # free-form strings
      'workloads': [
        {'workload': 'matmul', 'procedure': 'matmul_guarded',
         'loops': [{'loop', 'path', 'verdict', 'reason',
                    'witness'?, 'reductions'?}, ...],
         'counts': {'parallel': 2, 'reduction': 1, 'serial': 0},
         'sanitizer': {'loops_checked': 2, 'conflicts': [...],
                       'clean': true} | null},
        ...
      ],
      'totals': {'parallel', 'reduction', 'serial', 'loops', 'conflicts'},
      'run': {'workload', 'loop', 'shards', 'workers', 'iterations',
              'serial_s', 'sharded_s', 'speedup', 'identical', ...} | null
    }

``workloads`` carries the static detector's per-loop verdicts with the
SERIAL witnesses, plus each workload's dynamic sanitizer outcome;
``totals`` aggregates the verdict and conflict counts; ``run`` is the
optional sharded PARALLEL DO execution record (``python -m repro.par
bench``).  :data:`SHAPE` and :func:`invariants` are the registered
payload check for the schema; :func:`flatten_report` emits ``par:*``
perf metrics.  The **verdict and
conflict counts are deterministic** and belong behind a ``threshold 0``
perf gate; ``par:run.speedup`` is machine-dependent (it needs more than
one core to exceed 1) and is recorded for trend only — never gate it
(the gate's polarity is lower-is-better).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Optional

from repro.artifacts import publish
from repro.artifacts.flatten import Sink
from repro.artifacts.registry import PAR_REPORT as SCHEMA
from repro.par.detect import VERDICTS, LoopVerdict, verdict_counts


_COUNTS = {"parallel": int, "reduction": int, "serial": int}

#: the payload shape :func:`build_report` produces
SHAPE = {
    "meta": dict,
    "workloads": [{
        "workload": str,
        "procedure": str,
        "loops": [{"loop": str, "path": str, "verdict": VERDICTS,
                   "reason": str}],
        "counts": _COUNTS,
        "sanitizer?": {"conflicts": list, "clean": bool},
    }],
    "totals": {**_COUNTS, "loops": int, "conflicts": int},
    "run?": {"workload": str, "loop": str, "shards": int, "workers": int,
             "iterations": int, "serial_s": float, "sharded_s": float,
             "identical": bool},
}


def build_workload_entry(
    workload: str,
    procedure: str,
    verdicts: Iterable[LoopVerdict],
    sanitizer: Optional[Mapping] = None,
) -> dict:
    vs = list(verdicts)
    return {
        "workload": workload,
        "procedure": procedure,
        "loops": [v.to_dict() for v in vs],
        "counts": verdict_counts(vs),
        "sanitizer": dict(sanitizer) if sanitizer is not None else None,
    }


def _totals(entries: list) -> dict:
    """Verdict and sanitizer-conflict totals, counted from the loops."""
    seen = Counter(loop["verdict"] for e in entries for loop in e["loops"])
    totals = {v: seen[v] for v in VERDICTS}
    totals["loops"] = sum(totals.values())
    totals["conflicts"] = sum(len((e.get("sanitizer") or {}).get("conflicts", ()))
                              for e in entries)
    return totals


def build_report(
    workloads: Iterable[Mapping],
    run: Optional[Mapping] = None,
    meta: Optional[dict] = None,
) -> dict:
    entries = [dict(w) for w in workloads]
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "workloads": entries,
        "totals": _totals(entries),
        "run": dict(run) if run is not None else None,
    }


def invariants(doc: dict) -> list[str]:
    """What :data:`SHAPE` cannot say: the counts and totals match the
    loops, serial loops name a witness, each sanitizer ``clean`` flag
    agrees with its conflicts, and a sharded run reproduced serial."""
    errors: list[str] = []
    for k, entry in enumerate(doc["workloads"]):
        got = _totals([entry])
        for verdict in VERDICTS:
            if entry["counts"][verdict] != got[verdict]:
                errors.append(
                    f"workloads[{k}].counts[{verdict!r}] is "
                    f"{entry['counts'][verdict]!r}, loops contain {got[verdict]}"
                )
        for j, loop in enumerate(entry["loops"]):
            if loop["verdict"] == "serial" and not loop.get("witness"):
                errors.append(
                    f"workloads[{k}].loops[{j}] is serial but names no witness"
                )
        san = entry.get("sanitizer")
        if san is not None and san["clean"] != (not san["conflicts"]):
            errors.append(
                f"workloads[{k}].sanitizer.clean contradicts its conflict list"
            )
    # the load-bearing invariant: totals match the per-workload contents
    for key, n in _totals(doc["workloads"]).items():
        if doc["totals"][key] != n:
            errors.append(
                f"totals[{key!r}] is {doc['totals'][key]!r}, workloads "
                f"contain {n}"
            )
    run = doc.get("run")
    if run is not None and run["identical"] is not True:
        errors.append("run.identical is not true — the sharded "
                      "execution must be byte-identical to serial")
    return errors


def flatten_report(doc: dict) -> dict:
    """Flat perf metrics for a par-report payload — the registered perf
    ingestion hook for :data:`SCHEMA`.

    ``par:verdict.*``, ``par:loops``, ``par:sanitizer.conflicts`` and the
    per-workload serial counts are deterministic (gate at threshold 0);
    the ``par:run.*`` timings and speedup are machine-dependent trend
    metrics.
    """
    sink = Sink()
    totals = doc.get("totals") or {}
    for verdict in VERDICTS:
        sink.put(f"par:verdict.{verdict}", totals.get(verdict, 0))
    sink.put("par:loops", totals.get("loops", 0))
    sink.put("par:sanitizer.conflicts", totals.get("conflicts", 0))
    for entry in doc.get("workloads") or []:
        if isinstance(entry, dict) and isinstance(entry.get("counts"), dict):
            sink.put(
                f"par:{entry.get('workload', '?')}.serial",
                entry["counts"].get("serial", 0),
            )
    run = doc.get("run")
    if isinstance(run, dict):
        for key in ("serial_s", "sharded_s", "speedup"):
            value = run.get(key)
            if isinstance(value, (int, float)):
                sink.put(f"par:run.{key}", value)
    return sink.metrics


def write_report(path: str, doc: dict, store=None, request=None) -> dict:
    """Envelope and write a par report (validated on the way out);
    optionally lands it in the store sink.  Returns the envelope."""
    return publish(path, doc, producer=__package__, store=store,
                   request=request)
