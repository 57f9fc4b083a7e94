"""``python -m repro.pipeline.bench`` (in-process mode): cold means cold.

Two entries derive the same workload, as ``lu_nopivot`` and
``lu_checked`` do in the full set: the second entry's cold leg must not
replay the first entry's memoized passes.
"""

from __future__ import annotations

import pytest

from repro.pipeline import bench
from repro.pipeline.cache import AnalysisCache

SAME_WORKLOAD_TWICE = (
    ("matmul", "matmul", None, False),
    ("matmul_checked", "matmul", None, True),
)


@pytest.fixture
def doc(monkeypatch):
    monkeypatch.setattr(bench, "BENCH_WORKLOADS", SAME_WORKLOAD_TWICE)
    return bench.run_bench()


def test_no_cold_span_reports_cached(doc):
    for label, data in doc["workloads"].items():
        assert data["cold"]["spans"], label
        for span in data["cold"]["spans"]:
            assert span["cached"] is False, (label, span)


def test_warm_leg_replays_its_own_cold_leg(doc):
    for label, data in doc["workloads"].items():
        assert all(s["cached"] for s in data["warm"]["spans"]), label


def test_cache_stats_are_summed_over_workloads(doc):
    assert set(doc["cache"]) == set(AnalysisCache.REGIONS)
    passes = doc["cache"]["passes"]
    spans = [s for data in doc["workloads"].values()
             for leg in ("cold", "warm") for s in data[leg]["spans"]]
    assert passes["hits"] == sum(s["cached"] for s in spans)
    assert passes["misses"] == len(spans) - passes["hits"]
    assert passes["hit_rate"] == passes["hits"] / len(spans)
