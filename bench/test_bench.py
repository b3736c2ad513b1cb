"""Self-test of the benchmark: ``pytest bench/`` (outside tier-1 ``testpaths``).

One ``--smoke`` run (5 % of N, one repeat, plus the traced pass) feeds
every check of the result document; the rest are pure checks of the
registry, ``BENCHMARK.json`` and ``bench.diff``'s verdicts.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import diff
from bench import metrics as M
from bench import tracing
from bench.runner import spread

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
HONEST = (M.STEADY, M.UNMONITORED, M.BURST)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--seed", "7", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


def test_result_schema(smoke):
    assert smoke["schema"] == "bench-result/v1"
    assert smoke["ok"] and smoke["problems"] == []
    assert {"calibration_s", "calibration_spread", "unstable"} <= set(smoke["machine"])
    (row,) = smoke["rows"]
    assert row["seed"] == 7
    assert tuple(row["workloads"]) == M.ALL
    assert row["derived"]["monitoring_slowdown_x"]["value"] > 1.0
    for workload, summary in row["workloads"].items():
        expected = [m.name for m in M.END_TO_END if workload in m.workloads]
        assert list(summary["end_to_end"]) == expected
        assert list(summary["per_layer"]) == list(M.per_layer(tracing.SPAN_NAMES))
        for entry in (*summary["end_to_end"].values(), *summary["per_layer"].values()):
            assert isinstance(entry["value"], (int, float)) and entry["unit"]
        assert summary["ops_attempted"] >= summary["requests"] > 0
        assert sum(summary["failures"].values()) == summary["ops_failed"] == 0
        assert len(summary["fingerprint"]) == 64


def test_metric_names_and_counts():
    end_to_end = [m.name for m in M.END_TO_END]
    per_layer = list(M.per_layer(tracing.SPAN_NAMES))
    assert len(M.ALL) == 4
    assert len(end_to_end) == 14 and len(end_to_end) <= 16
    assert len(per_layer) <= 128
    names = [*M.ALL, *end_to_end, *per_layer]
    assert all(NAME.match(name) for name in names)
    # The workload-only end-to-end metrics ride in per_layer for the
    # driver, so those names legitimately appear in both lists.
    assert len(set(names)) == len(names) - len(set(end_to_end) & set(per_layer))


def test_every_span_target_resolves():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        for _name, module, path in tracing.SPAN_TARGETS:
            tracing.resolve(module, path.removesuffix("()"))
        with pytest.raises(tracing.TargetError):
            tracing.resolve("repro.crypto.signatures", "VerifyingKey.no_such_method")
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_every_span_is_hit_on_some_workload(smoke):
    workloads = smoke["rows"][0]["workloads"].values()
    for span in tracing.SPAN_NAMES:
        calls = [w["per_layer"][f"{span}.calls_per_decision"]["value"] for w in workloads]
        assert max(calls) > 0, f"{span} was never called"


def test_honest_workloads_raise_no_alert(smoke):
    for workload in HONEST:
        summary = smoke["rows"][0]["workloads"][workload]
        assert summary["alerts"] == {}
        assert summary["per_layer"]["drams.alerts_total"]["value"] == 0


def test_layers_idle_on_the_control_arm(smoke):
    control = smoke["rows"][0]["workloads"][M.UNMONITORED]["per_layer"]
    for name, entry in control.items():
        if name.split(".")[0] in ("crypto", "blockchain", "drams"):
            assert entry["value"] == 0, name


def test_benchmark_json_matches_the_runner():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["command"] == ["python3", "-m", "bench"]
    assert manifest["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (name, why) for name, (_n, why) in M.WORKLOADS.items()]
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.across_seeds}
        for m in M.END_TO_END if m.across_seeds is not None]
    assert all(entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in M.per_layer(tracing.SPAN_NAMES).items()]


def _entry(values):
    return spread(list(values))


def test_diff_verdicts():
    rate = M.BY_NAME["decisions_per_s"]
    base = _entry([100.0, 101.0, 99.0])
    assert diff.judge(rate, base, _entry([98.0, 99.0, 97.0]), False) == "ok"
    assert diff.judge(rate, base, _entry([80.0, 81.0, 79.0]), False) == diff.REGRESSION
    assert diff.judge(rate, base, _entry([80.0, 81.0, 79.0]), True).startswith(diff.UNRESOLVED)
    assert diff.judge(rate, base, _entry([130.0, 131.0, 129.0]), False) == "improved"
    # Spread wider than the bound: unresolved, unless every run is better.
    assert diff.judge(rate, base, _entry([60.0, 95.0, 130.0]), False) == diff.UNRESOLVED
    assert diff.judge(rate, base, _entry([120.0, 160.0, 200.0]), False) == "improved"
    latency = M.BY_NAME["access_latency_sim_p50_ms"]
    assert diff.judge(latency, {"value": 50.0}, {"value": 50.0}, False) == "same"
    assert diff.judge(latency, {"value": 50.0}, {"value": 50.2}, False) == "ok (moved)"
    assert diff.judge(latency, {"value": 50.0}, {"value": 51.0}, False) == diff.REGRESSION
    failed = M.BY_NAME["failed_ops_share"]
    assert diff.judge(failed, {"value": 0.0}, {"value": 0.001}, False) == diff.REGRESSION
    setup = M.BY_NAME["setup_s"]
    # 30 % or 0.15 s, whichever is larger.
    assert diff.judge(setup, _entry([0.30, 0.30, 0.30]), _entry([0.44, 0.44, 0.44]), False) == "ok"


def test_diff_of_a_result_with_itself_is_clean(smoke):
    out = io.StringIO()
    assert diff.compare(smoke, smoke, out) == 0
    assert "0 regression(s)" in out.getvalue() and "CHANGED" not in out.getvalue()
