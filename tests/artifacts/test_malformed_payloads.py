"""Malformed payloads are reported by ``python -m repro.artifacts
validate``, never crashed on: each one exits 1 with an
``artifact/invalid-payload`` row naming the offending field."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.artifacts import envelope, write_file
from repro.artifacts.validate import RULE_PAYLOAD
from repro.obs import core, export
from repro.serve.service import build_report

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _obs_bad_histogram() -> dict:
    doc = export.metrics(core.Obs())
    doc["histograms"]["fm.feasible.latency_s"] = 3
    return doc


def _obs_row_without_accesses() -> dict:
    counts = {"accesses": 2, "misses": 1, "writebacks": 0,
              "tlb_misses": 0, "writes": 0}
    doc = export.metrics(core.Obs())
    doc["attribution"] = {
        "rows": [{"loop": "I", "statement": "A(I)", "array": "A",
                  **counts}],
        "by_loop": {"I": dict(counts)},
        "by_statement": {"I: A(I)": dict(counts)},
        "by_array": {"A": dict(counts)},
        "totals": dict(counts),
    }
    del doc["attribution"]["rows"][0]["accesses"]
    return doc


def _serve_bad_worker() -> dict:
    doc = build_report([])
    doc["pool"]["per_worker"] = [5]
    return doc


#: (file name, payload builder, the problem the validator must report)
CASES = [
    ("obs_histogram.json", _obs_bad_histogram,
     "histograms['fm.feasible.latency_s']: expected object, got integer"),
    ("obs_attribution.json", _obs_row_without_accesses,
     "attribution.rows[0].accesses: missing"),
    ("serve_worker.json", _serve_bad_worker,
     "pool.per_worker[0]: expected object, got integer"),
]


def validate(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.artifacts", "validate", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture
def files(tmp_path) -> list[str]:
    paths = []
    for name, build, _ in CASES:
        path = tmp_path / name
        write_file(str(path), envelope(build(), producer="test"))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_malformed_payload_exits_1_with_field_path(files, index):
    proc = validate(files[index])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"INVALID  {files[index]}" in proc.stdout
    assert f"{RULE_PAYLOAD}: {CASES[index][2]}" in proc.stdout


def test_json_lists_every_document(files):
    proc = validate(*files, "--json")
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["valid"] is False
    assert [d["path"] for d in report["documents"]] == files
    for doc, (_, _, message) in zip(report["documents"], CASES):
        assert doc["valid"] is False
        assert {"rule": RULE_PAYLOAD, "message": message} in doc["problems"]
