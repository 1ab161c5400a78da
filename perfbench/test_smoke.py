"""Smoke test of the wall-clock benchmark at toy sizes.

    python -m pytest perfbench/test_smoke.py

It runs ``perfbench/run.py`` as a subprocess, the way it is meant to be run,
and checks the printed metrics, the output check and the failure exits.  The
digest check is tested in-process, against a corrupted copy of the recorded
digests.
"""

from __future__ import annotations

import importlib
import json
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Report lines under each workload's own names: name, value, unit.
NAMED = {
    "fleet-setup": [("flows_per_s", "1/s"), ("flow_setup_ms_p50", "ms"), ("flow_setup_ms_p99", "ms")],
    "steady-datapath": [("packets_per_s", "1/s"), ("packet_us_p50", "us"), ("packet_us_p99", "us")],
    "audit-churn": [("audits_per_s", "1/s"), ("tick_ms_p50", "ms")],
    "classifier-eval": [("ml_pass_s_p50", "s")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB")]


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "toy", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc, proc.stdout.strip().splitlines()


def block(stdout_lines: list, workload: str) -> list:
    start = stdout_lines.index(next(l for l in stdout_lines if l.startswith(f"== {workload} ")))
    rest = stdout_lines[start + 1:]
    end = next((i for i, l in enumerate(rest) if l.startswith("== ") or l.startswith("{")), len(rest))
    return rest[:end]


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc, lines = bench("--workload", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert lines[0].startswith("machine: python ")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0
        text = block(lines, workload)
        for name, unit in NAMED[workload] + COMMON:
            pattern = re.compile(rf"^\s*{name}\s+[0-9.]+ {re.escape(unit)}( |$)")
            assert any(pattern.match(l) for l in text), f"{workload}: no '{name} <value> {unit}' line"
        assert any(re.match(r"^\s*ops_failed_ratio\s+[0-9.]+ \(0 failed / [1-9]\d* attempted\)", l)
                   for l in text)
        assert any("(recorded: match)" in l for l in lines if l.startswith(f"== {workload} "))


def test_traced_run_reports_every_per_layer_metric():
    proc, lines = bench("--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"], (workload, metric)
        assert result["metrics"][f"{workload}.trace.spans"]["value"] > 0
    assert result["metrics"]["audit-churn.policy.ActivityLog.verify.calls"]["value"] > 0
    assert result["metrics"]["steady-datapath.policy.ActivityLog.verify.calls"]["value"] == 0
    assert result["metrics"]["classifier-eval.anomaly.NaiveBayesClassifier.fit.calls"]["value"] > 0
    # Set-up spans are left out of the layer metrics: steady-datapath installs
    # its flows during set-up, so its timed part never asks for a port.
    assert result["metrics"]["steady-datapath.fabric.port_toward.calls"]["value"] == 0
    assert result["metrics"]["steady-datapath.fabric.build_topology.s"]["value"] > 0
    assert result["metrics"]["fleet-setup.fabric.port_toward.calls"]["value"] > 0


def test_corrupted_digest_is_rejected(tmp_path, monkeypatch, capsys):
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    good = digests["toy"]["classifier-eval"]
    digests["toy"]["classifier-eval"] = ("0" if good[0] != "0" else "1") + good[1:]
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests), encoding="utf-8")
    monkeypatch.syspath_prepend(str(HERE))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "DIGESTS", corrupted)
    code = run.main(["--workload", "classifier-eval", "--size", "toy", "--seconds", "0.3"])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert any("MISMATCH" in l for l in lines)


def test_profile_dumps_cprofile_stats(tmp_path):
    out = tmp_path / "classifier.prof"
    proc, _lines = bench("--workload", "classifier-eval", "--profile", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    functions = {name for (_file, _line, name) in pstats.Stats(str(out)).stats}
    assert "evaluate" in functions


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "fleet-setup", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(l.startswith("{") for l in lines)
