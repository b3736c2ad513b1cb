#!/usr/bin/env python3
"""List the ``src/`` functions that no entry point executes.

Runs the repository's entry points in three cumulative tiers and prints,
for each tier, every function under ``src/repro`` whose code never
received a call event, grouped by module:

1. ``bench`` (the ``--smoke`` suite and the four seed-3 traced
   ``--workload`` runs) and every ``examples/*.py``;
2. tier 1 plus every E-series experiment (``benchmarks/bench_*.py``) in
   its smoke configuration and the CI's ``tools/`` checks
   (``trace2chrome.py --selfcheck``, ``check_fault_plan.py``);
3. tier 2 plus the tier-1 suite (``tests/``).

Tracing is ``sys.settrace`` with call events only: the trace function
records the code object and returns ``None``, so no line events are
generated.  It is installed by a generated ``sitecustomize`` module on
``PYTHONPATH``, so child processes (the ``bench`` children) are traced
too.  Both the source table and each process's dump name a function
``module:Qualified.name`` (the dump from ``code.co_qualname``, so Python
3.11 or later), never by line: an edit to ``src/`` while the entry points
run cannot make a reached function read as unreached.  Each unreached
function is tagged ``[stub]`` (its body only raises
``NotImplementedError`` or does nothing), ``[dunder]``, or ``[kept: …]``
with its line from :data:`KEPT`, the reasons a function no program but a
test runs stays in ``src/``; each header counts the untagged entries as
unexplained.  Stdlib only:

    python tools/reach.py

A report, not a gate: on Python 3.11 or later it always exits 0.  An
entry point that fails is named in its tier's report and its reach still
counts; the tests and runs themselves are gated elsewhere.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
WORKLOADS = ("steady-monitored", "unmonitored-stream", "burst-monitored-4c", "storm-attacked")

SITECUSTOMIZE = """\
import atexit, os, sys, threading

_codes = set()


def _trace(frame, event, arg):
    _codes.add(frame.f_code)


def _dump():
    sys.settrace(None)
    root = os.path.join(os.environ["REACH_SRC"], "")
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt"), "a") as out:
        for code in _codes:
            if code.co_filename.startswith(root):
                out.write(f"{code.co_filename[len(root):]}:{code.co_qualname}\\n")


atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
"""

#: One entry point: its argv and the environment variables it adds.
Command = tuple[list[str], dict[str, str]]

ITEM_8C = "decoder or exporter item 8(c)'s `repro run` will call"
ITEM_9 = "fault kind chaos dispatches on; item 9's stateful suite draws it"
LIFT = "attack lift; item 9's lift step"
MONITOR_23B = "monitor check no run exercises; item 23(b) gives it a run"
XACML_23C = "XACML combining or bag semantics; item 23(c) decides it"
ORACLE = "test oracle for behaviour that stays"
OUTSIDE = "rejects input from outside the program"
SEAM = "test seam"
STOP = "lifecycle stop"

#: Why each function tier 2 leaves unreached stays in ``src/``, keyed
#: ``module:Qualified.name`` as the report prints them.
KEPT = {
    "accesscontrol/messages.py:AccessRequest.payload_hash": ORACLE,
    "accesscontrol/plane.py:ShardedPdpPlane.draining": ORACLE,
    "accesscontrol/plane.py:ShardedPdpPlane.over": SEAM,
    "analysis/properties.py:sample_requests": "property checks sample domains over max_exhaustive",
    "analysis/semantics.py:_adjust_for_target": XACML_23C,
    "analysis/semantics.py:_indeterminate_for": XACML_23C,
    "analysis/semantics.py:_str": XACML_23C,
    "baselines/central.py:CentralizedMonitor._audit": MONITOR_23B,
    "baselines/central.py:CentralizedMonitor._grace_left": MONITOR_23B,
    "blockchain/chain.py:Blockchain.block_count": ORACLE,
    "crypto/tpm.py:SimulatedTpm.reset": "LogTamperAttack.lift reboots the platform with it",
    "drams/analyser.py:Analyser._audit_churn": MONITOR_23B,
    "drams/analyser.py:Analyser.pending_correlations": ORACLE,
    "drams/logging_interface.py:LoggingInterface.read_log_plaintext": ORACLE,
    "drams/logs.py:LogEntry.from_dict": OUTSIDE,
    "drams/rules.py:PolicyHistory.judge_claims": MONITOR_23B,
    "drams/system.py:DramsSystem.stop": STOP,
    "faults/chaos.py:ChaosController._apply_clock_skew": ITEM_9,
    "faults/chaos.py:ChaosController._apply_restart": ITEM_9,
    "faults/plan.py:clock_skew": ITEM_9,
    "faults/plan.py:latency_spike": ITEM_9,
    "faults/plan.py:restart": ITEM_9,
    "faults/recovery.py:RecoveryRecorder.watch_replica_recovery": ITEM_9,
    "faults/recovery.py:RecoveryRecorder.watch_replica_recovery.<locals>.converged": ITEM_9,
    "harness.py:MonitoredFederation.fingerprint": ORACLE,
    "lightclient/consumer.py:LightProbeConsumer._reject": OUTSIDE,
    "lightclient/headers.py:HeaderClient._ingest.<locals>.lookup": "retarget path no run reaches",
    "lightclient/headers.py:HeaderClient.head": ORACLE,
    "lightclient/receipts.py:DecisionReceipt.to_dict": ITEM_8C,
    "policydist/plane.py:ReplicatedPrpPlane.crash_replica": ITEM_9,
    "policydist/plane.py:ReplicatedPrpPlane.describe": ITEM_8C,
    "policydist/plane.py:ReplicatedPrpPlane.restart_replica": ITEM_9,
    "policydist/plane.py:ReplicatedPrpPlane.stats": ITEM_8C,
    "policydist/plane.py:ReplicatedPrpPlane.stop": STOP,
    "policydist/replica.py:PrpReplica.lose_staged": "ReplicatedPrpPlane.crash_replica calls it",
    "policydist/replica.py:PrpReplica.publish": OUTSIDE,
    "policydist/replica.py:PrpReplica.stats": ITEM_8C,
    "scenariogen/spec.py:_class_from": ITEM_8C,
    "scenariogen/spec.py:_rule_from": ITEM_8C,
    "scenariogen/spec.py:_spec_from": ITEM_8C,
    "scenariogen/spec.py:_tuples": ITEM_8C,
    "scenariogen/spec.py:spec_from_json": ITEM_8C,
    "scenariogen/spec.py:spec_to_json": ITEM_8C,
    "simnet/network.py:Network.add_tap": ORACLE,
    "simnet/network.py:Network.clear_link_fault": ITEM_9,
    "simnet/network.py:Network.host": ITEM_9,
    "simnet/network.py:Network.is_attached": ORACLE,
    "simnet/network.py:Network.is_partitioned": ORACLE,
    "simnet/network.py:Network.link_fault": ORACLE,
    "simnet/simulator.py:Simulator.every.<locals>.stop": STOP,
    "simnet/simulator.py:Simulator.executed_events": ORACLE,
    "simnet/simulator.py:Simulator.pending_events": ORACLE,
    "simnet/simulator.py:Simulator.step": SEAM,
    "storage/hybrid.py:HybridStore.stop": STOP,
    "storage/purechain.py:PureChainStore.get": ORACLE,
    "storage/purechain.py:PureChainStore.pending_count": ORACLE,
    "telemetry/critical_path.py:CriticalPathAnalyser.attribution_table": ITEM_8C,
    "telemetry/critical_path.py:CriticalPathAnalyser.mean_attribution": ITEM_8C,
    "telemetry/critical_path.py:CriticalPathAnalyser.percentile_trace": ITEM_8C,
    "telemetry/stack.py:StackTelemetry.chrome_trace": ITEM_8C,
    "telemetry/stack.py:StackTelemetry.spans_json": ITEM_8C,
    "telemetry/tracing.py:Span.to_dict": ITEM_8C,
    "telemetry/tracing.py:SpanRecorder.stats": ITEM_8C,
    "telemetry/tracing.py:SpanRecorder.to_chrome": ITEM_8C,
    "telemetry/tracing.py:SpanRecorder.to_json": ITEM_8C,
    "telemetry/tracing.py:Tracer.open_keys": ORACLE,
    "telemetry/tracing.py:Tracer.stats": ITEM_8C,
    "telemetry/tracing.py:spans_to_json": ITEM_8C,
    "threats/adversary.py:Adversary.lift_all": LIFT,
    "threats/attacks.py:CircumventionAttack.lift": LIFT,
    "threats/attacks.py:DecisionTamperAttack.lift": LIFT,
    "threats/attacks.py:EvaluationTamperAttack.lift": LIFT,
    "threats/attacks.py:LogTamperAttack.lift": LIFT,
    "threats/attacks.py:PolicySwapAttack.lift": LIFT,
    "threats/attacks.py:ProbeSuppressionAttack.lift": LIFT,
    "threats/attacks.py:ReplayAttack.lift": LIFT,
    "threats/attacks.py:RequestTamperAttack.lift": LIFT,
    "threats/attacks.py:StalePolicyReplayAttack.lift": LIFT,
    "threats/attacks.py:TamperedPrpReplicaAttack.lift": LIFT,
    "threats/attacks.py:_PrpReplicaAttack._untrack": LIFT,
    "workload/generator.py:RequestGenerator.resources": ORACLE,
    "workload/generator.py:RequestGenerator.subjects": ORACLE,
    "xacml/combining.py:adjust_for_target": XACML_23C,
    "xacml/combining.py:deny_overrides": XACML_23C,
    "xacml/combining.py:only_one_applicable": XACML_23C,
    "xacml/combining.py:permit_unless_deny": XACML_23C,
    "xacml/expressions.py:_all_of": XACML_23C,
    "xacml/expressions.py:_at_least_one_member_of": XACML_23C,
    "xacml/expressions.py:_bag_intersection": XACML_23C,
    "xacml/expressions.py:_bag_union": XACML_23C,
    "xacml/expressions.py:_subset": XACML_23C,
    "xacml/policy.py:Effect.to_indeterminate": XACML_23C,
}


def tiers(scratch: str) -> list[tuple[str, list[Command]]]:
    python = sys.executable
    out = ["--out", os.path.join(scratch, "result.json")]
    bench: list[Command] = [([python, "-m", "bench", "--smoke", *out], {})]
    for workload in WORKLOADS:
        single = ["--workload", workload, "--seed", "3", "--seconds", "10", "--trace", "1"]
        bench.append(([python, "-m", "bench", *single, *out], {}))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        bench.append(([python, str(example)], {}))
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    experiments = sorted(str(path) for path in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    tools = REPO_ROOT / "tools"
    return [
        ("bench + examples", bench),
        (
            "+ E-series + tools",
            [
                ([*pytest, *experiments], {"REPRO_BENCH_SMOKE": "1"}),
                ([python, str(tools / "trace2chrome.py"), "--selfcheck"], {}),
                ([python, str(tools / "check_fault_plan.py")], {}),
            ],
        ),
        ("+ tier-1", [(pytest, {})]),
    ]


def functions(root: Path = SRC / "repro") -> dict[str, tuple[str, str, int, str]]:
    """``module:Qualified.name → (module, qualified name, body lines, tag)``."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = child.end_lineno - child.body[0].lineno + 1
                module, name = str(path.relative_to(root)), f"{prefix}{child.name}"
                found[f"{module}:{name}"] = (module, name, lines, tag(child, f"{module}:{name}"))
                visit(child, path, f"{name}.<locals>.")

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def tag(node: ast.FunctionDef, key: str) -> str:
    if node.name.startswith("__") and node.name.endswith("__"):
        return " [dunder]"
    if key in KEPT:
        return f" [kept: {KEPT[key]}]"
    # Inert statements: docstrings, ``...``, ``pass`` and a bare ``return``.
    body = [
        statement
        for statement in node.body
        if not isinstance(statement, ast.Pass)
        and not (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
        and not (isinstance(statement, ast.Return) and statement.value is None)
    ]
    if not body:
        return " [stub]"
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        raised = body[0].exc
        raised = raised.func if isinstance(raised, ast.Call) else raised
        if isinstance(raised, ast.Name) and raised.id == "NotImplementedError":
            return " [stub]"
    return ""


def reached(dumps: Path) -> set[str]:
    return {key for dump in dumps.glob("*.txt") for key in dump.read_text().splitlines()}


def main() -> None:
    if sys.version_info < (3, 11):
        sys.exit("reach.py needs Python 3.11 or later (code.co_qualname)")
    table = functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook, dumps = Path(scratch, "hook"), Path(scratch, "dumps")
        hook.mkdir()
        dumps.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        paths = [str(hook), str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, REACH_SRC=str(SRC / "repro"), REACH_OUT=str(dumps))
        env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
        for label, commands in tiers(scratch):
            failed = []
            for command, extra in commands:
                done = subprocess.run(
                    command, cwd=REPO_ROOT, env={**env, **extra}, stdout=subprocess.DEVNULL
                )
                if done.returncode != 0:
                    failed.append(f"exit {done.returncode}: {' '.join(command)}")
            seen = reached(dumps)
            missing = sorted(info for key, info in table.items() if key not in seen)
            lines = sum(info[2] for info in missing)
            unexplained = sum(1 for info in missing if not info[3])
            print(
                f"== {label}: {len(missing)} functions, {lines} body lines unreached, "
                f"{unexplained} unexplained"
            )
            for failure in failed:
                print(f"  entry point failed, {failure}")
            module = None
            for name_module, name, body_lines, kind in missing:
                if name_module != module:
                    module = name_module
                    print(f"  {module}")
                print(f"    {name} ({body_lines}){kind}")


if __name__ == "__main__":
    main()
