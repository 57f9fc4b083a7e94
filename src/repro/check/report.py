"""The ``repro.check/1`` report schema: build, shape, flatten, write.

.. code-block:: text

    {
      'schema': 'repro.check/1',
      'meta': {'workloads': 'lu_nopivot,givens', ...},   # free-form strings
      'rules': {'ir/zero-step': {'severity', 'summary'}, ...},
      'diagnostics': [{'rule', 'severity', 'path', 'message'}, ...],
      'summary': {'error': 0, 'warning': 1, 'info': 3},
      'verdicts': [{'procedure', 'loop', 'verdict', 'reason',
                    'preventing': str|null}, ...]
    }

``rules`` embeds the catalogue so a report is self-describing;
``summary`` counts diagnostics by severity; ``verdicts`` carries the
linter's blockability classifications (also mirrored as ``lint/*``
diagnostics).  :data:`SHAPE` and :func:`invariants` are the registered
payload check, run by :func:`repro.artifacts.publish` on the way out
and by ``python -m repro.artifacts validate`` in the ``check-smoke`` CI
job.  Reports are written enveloped (see :mod:`repro.artifacts`);
schema identity and digest live in the envelope layer.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.artifacts import publish
from repro.artifacts.flatten import Sink
from repro.artifacts.registry import CHECK_REPORT as SCHEMA
from repro.check.diagnostics import RULES, Diagnostic, Severity
from repro.check.linter import LintResult

_SEVERITIES = tuple(s.value for s in Severity)
_VERDICTS = ("blockable", "blockable-with-commutativity", "not-blockable")

#: the payload shape :func:`build_report` produces
SHAPE = {
    "meta": dict,
    "rules": {str: {"severity": _SEVERITIES, "summary": str}},
    "diagnostics": [{"rule": str, "severity": _SEVERITIES, "path": str,
                     "message": str}],
    "summary": dict.fromkeys(_SEVERITIES, int),
    "verdicts": [{"procedure": str, "loop": str, "verdict": _VERDICTS,
                  "reason": str, "preventing?": str}],
}


def _summary(diagnostics: list) -> dict:
    seen = Counter(d["severity"] for d in diagnostics)
    return {sev: seen[sev] for sev in _SEVERITIES}


def build_report(
    diagnostics: Iterable[Diagnostic],
    verdicts: Iterable[LintResult] = (),
    meta: Optional[dict] = None,
) -> dict:
    diags = [d.to_dict() for d in diagnostics]
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "rules": {
            r.id: {"severity": r.severity.value, "summary": r.summary}
            for r in RULES.values()
        },
        "diagnostics": diags,
        "summary": _summary(diags),
        "verdicts": [
            {
                "procedure": v.procedure,
                "loop": v.loop_var,
                "verdict": v.verdict,
                "reason": v.reason,
                "preventing": v.preventing,
            }
            for v in verdicts
        ],
    }


def invariants(doc: dict) -> list[str]:
    """What :data:`SHAPE` cannot say: the summary counts the
    diagnostics, and every cited rule is in the embedded catalogue."""
    errors = [
        f"diagnostics[{k}] cites uncatalogued rule {d['rule']!r}"
        for k, d in enumerate(doc["diagnostics"]) if d["rule"] not in doc["rules"]
    ]
    # the load-bearing invariant: summary counts match the diagnostics
    for sev, n in _summary(doc["diagnostics"]).items():
        if doc["summary"][sev] != n:
            errors.append(
                f"summary[{sev!r}] is {doc['summary'][sev]!r}, diagnostics "
                f"contain {n}"
            )
    return errors


def flatten_report(doc: dict) -> dict:
    """Flat perf metrics for a check-report payload — the registered
    perf ingestion hook for :data:`SCHEMA`.  Severity counts, per-rule
    diagnostic counts, and verdict counts: enough to see a check run get
    noisier (or quieter) over time."""
    sink = Sink()
    for sev, count in sorted((doc.get("summary") or {}).items()):
        sink.put(f"diagnostics.{sev}", count)
    by_rule: dict = {}
    for d in doc.get("diagnostics") or []:
        if isinstance(d, dict) and isinstance(d.get("rule"), str):
            by_rule[d["rule"]] = by_rule.get(d["rule"], 0) + 1
    for rule, count in sorted(by_rule.items()):
        sink.put(f"rule:{rule}", count)
    by_verdict: dict = {}
    for v in doc.get("verdicts") or []:
        if isinstance(v, dict) and isinstance(v.get("verdict"), str):
            by_verdict[v["verdict"]] = by_verdict.get(v["verdict"], 0) + 1
    for verdict, count in sorted(by_verdict.items()):
        sink.put(f"verdict.{verdict}", count)
    return sink.metrics


def write_report(path: str, doc: dict, store=None, request=None) -> dict:
    """Envelope and write a check report (validated on the way out);
    optionally lands it in the store sink.  Returns the envelope."""
    return publish(path, doc, producer=__package__, store=store,
                   request=request)
