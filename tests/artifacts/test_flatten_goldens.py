"""The committed benchmark artifacts validate and flatten to pinned
metric names.

``fixtures/flatten_goldens.json`` records, per committed file, the exact
``{metric: value}`` dict :func:`repro.perf.ingest.flatten` produces.  The
perf gate and the run history key on these names, so a flattener or
validator change that renames, drops or reshapes a metric fails here
instead of silently editing the baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.artifacts import validate_document
from repro.perf.ingest import flatten, load_artifact

ROOT = Path(__file__).resolve().parents[2]
GOLDENS = json.loads(
    (Path(__file__).parent / "fixtures" / "flatten_goldens.json").read_text()
)


def test_goldens_cover_every_committed_artifact():
    committed = {p.name for p in ROOT.glob("BENCH_*.json")}
    assert committed == {Path(name).name for name in GOLDENS
                         if name.startswith("BENCH_")}
    assert "benchmarks/perf_baseline.json" in GOLDENS


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_committed_artifact_validates_and_flattens(name):
    doc = load_artifact(str(ROOT / name))
    assert validate_document(doc) == []
    assert flatten(doc) == GOLDENS[name]
