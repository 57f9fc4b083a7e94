"""End-to-end tests of ``python -m repro.check``."""

import json

from repro.artifacts import payload_of, registry
from repro.artifacts.registry import CHECK_REPORT
from repro.check.cli import main

validate_report = registry.get(CHECK_REPORT).validate_payload


def test_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "ir/zero-step" in out
    assert "legal/block-carried-recurrence" in out
    assert "lint/blockable" in out
    assert "legal/par-carried-dep" in out
    assert "legal/par-reduction-shape" in out
    assert "lint/par-parallel" in out
    assert "lint/par-reduction" in out
    assert "lint/par-serial" in out


def test_no_workload_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_workload_is_usage_error(capsys):
    assert main(["nonesuch"]) == 2


def test_self_invalid_report_exits_2_unwritten(tmp_path, capsys, monkeypatch):
    from repro.check import cli

    build = cli.build_report

    def lying_build(*args, **kwargs):
        doc = build(*args, **kwargs)
        doc["summary"]["info"] += 1
        return doc

    monkeypatch.setattr(cli, "build_report", lying_build)
    path = tmp_path / "report.json"
    assert main(["conv", "--json", str(path)]) == 2
    assert not path.exists()
    assert "summary['info'] is" in capsys.readouterr().err


def test_lu_nopivot_clean_with_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["lu_nopivot", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "blockable" in out
    doc = payload_of(json.loads(path.read_text()))
    assert validate_report(doc) == []
    assert doc["summary"]["error"] == 0
    assert any(v["verdict"] == "blockable" for v in doc["verdicts"])


def test_two_workloads_one_invocation(capsys):
    assert main(["conv", "matmul"]) == 0
    out = capsys.readouterr().out
    assert "conv" in out and "matmul" in out


def test_report_carries_par_classifications(tmp_path):
    path = tmp_path / "report.json"
    assert main(["matmul", "--json", str(path)]) == 0
    doc = payload_of(json.loads(path.read_text()))
    rules = {d["rule"] for d in doc["diagnostics"]}
    assert "lint/par-parallel" in rules
    assert "lint/par-reduction" in rules
