"""``python -m repro.par`` exit codes and artifacts."""

from __future__ import annotations

import json

from repro.artifacts import payload_of, validate_document
from repro.artifacts.validate import RULE_PAYLOAD
from repro.par import cli
from repro.par.cli import main


class TestClassify:
    def test_classify_all_exits_zero(self, capsys):
        assert main(["classify", "--all"]) == 0
        out = capsys.readouterr().out
        for name in ("matmul", "conv", "lu_nopivot"):
            assert name in out
        assert "PARALLEL" in out and "SERIAL" in out
        assert "witness" in out  # serial verdicts name their edge

    def test_classify_writes_valid_report(self, tmp_path, capsys):
        path = tmp_path / "classify.json"
        assert main(["classify", "matmul", "--json", str(path)]) == 0
        doc = json.load(open(path))
        assert validate_document(doc) == []
        payload = payload_of(doc)
        assert payload["workloads"][0]["workload"] == "matmul"
        assert payload["workloads"][0]["sanitizer"] is None

    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["classify", "nosuch"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_workloads_is_usage_error(self, capsys):
        assert main(["classify"]) == 2

    def test_self_invalid_report_exits_2_unwritten(
        self, tmp_path, capsys, monkeypatch
    ):
        build = cli.build_report

        def lying_build(*args, **kwargs):
            doc = build(*args, **kwargs)
            doc["totals"]["loops"] += 1
            return doc

        monkeypatch.setattr(cli, "build_report", lying_build)
        path = tmp_path / "classify.json"
        assert main(["classify", "matmul", "--json", str(path)]) == 2
        assert not path.exists()
        assert f"{RULE_PAYLOAD}: totals['loops']" in capsys.readouterr().err


class TestSanitize:
    def test_sanitize_all_clean_exits_zero(self, capsys):
        assert main(["sanitize", "--all"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "CONFLICT" not in out


class TestRun:
    def test_sharded_run_exits_zero(self, capsys):
        assert main(["run", "conv", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "identical to serial: True" in out

    def test_run_without_parallel_loop_is_usage_error(self, capsys):
        assert main(["run", "lu_nopivot"]) == 2
        assert "no top-level PARALLEL DO" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_valid_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_par.json"
        assert main(["bench", "--workloads", "matmul", "conv",
                     "--run", "conv", "--json", str(path)]) == 0
        doc = json.load(open(path))
        assert validate_document(doc) == []
        payload = payload_of(doc)
        assert {w["workload"] for w in payload["workloads"]} == {"matmul", "conv"}
        assert all(w["sanitizer"]["clean"] for w in payload["workloads"])
        assert payload["run"]["identical"] is True
        assert payload["run"]["speedup"] is not None
        assert payload["totals"]["conflicts"] == 0
