"""Parent process: runs children one at a time, guards, aggregates, reports.

Two ways in:

- ``python -m bench --seed 7 [--seed 11] [--repeats 3] [--smoke]`` — the
  whole suite: workloads interleaved round-robin for ``--repeats`` timed
  passes, then one traced pass per workload; prints every metric and
  writes ``bench/out/result.json``.
- ``python -m bench --workload W --seed S --seconds T --trace 0|1`` — one
  workload, the way the driver in ``BENCHMARK.json`` calls it; the last
  line of standard output is one JSON object.

No two children ever run at once, and the program is only ever imported
inside a child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bench import metrics as M
from bench.calibrate import calibrate
from bench.tracing import ROOT_SPAN, SPAN_NAMES

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
DEFAULT_OUT = Path(__file__).resolve().parent / "out" / "result.json"
SCHEMA = "bench-result/v1"
#: The driver allows one invocation 180 s.  A child is killed after
#: ``CHILD_TIMEOUT``; ``--seconds`` stops adding repeats beyond the minimum
#: once the invocation has run for ``INVOCATION_BUDGET``.
CHILD_TIMEOUT = 120.0
INVOCATION_BUDGET = 120.0

CONFIG_NOTE = (
    "chain: difficulty_bits=10, block interval 0.5 s at any cloud count, 200 tx/block "
    "(400 tx/s, 4 log tx per decision), confirmations=2, simulated PoW, no retargeting; "
    "message delay: the federation's default WAN/metro latency model, p50 one-way about "
    "25 ms; arrivals: open loop in simulated time, Poisson at the stated rate; every run "
    "is one fresh single-threaded child with PYTHONHASHSEED=0"
)


class BenchError(RuntimeError):
    """The benchmark could not be run at all (as opposed to: it ran and failed)."""


# -- children ---------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(SOURCE), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, seed: int, n: int, trace: bool) -> dict:
    """Calibrate, then run one child to completion and parse its result."""
    calibration = calibrate()
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--seed", str(seed), "--n", str(n), "--trace", str(int(trace))]
    try:
        done = subprocess.run(command, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} seed {seed}: child exceeded {CHILD_TIMEOUT:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: child exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["calibration_s"] = calibration
    return result


class Session:
    """The children run so far, keyed by ``(seed, workload)``."""

    def __init__(self, scale: float) -> None:
        self.scale = scale
        self.timed: dict = {}
        self.traced: dict = {}
        self.calibrations: list = []

    def child(self, workload: str, seed: int, trace: bool = False) -> dict:
        result = run_child(workload, seed, M.scaled_n(workload, self.scale), trace)
        self.calibrations.append(result["calibration_s"])
        if trace:
            self.traced[(seed, workload)] = result
        else:
            self.timed.setdefault((seed, workload), []).append(result)
        return result

    def seeds(self) -> list:
        return sorted({seed for seed, _workload in self.timed})


# -- aggregation ------------------------------------------------------------------


def spread(values: list) -> dict:
    """Median with quartiles, minimum and sample count beside it."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values), "values": values}


#: What must repeat exactly across the children of one workload and seed.
EXACT_KEYS = ("fingerprint", "requests", "ops_attempted", "ops_failed", "failures",
              "alerts", "sim", "counters")


def determinism_problems(label: str, runs: list) -> list:
    first = runs[0]
    return [
        f"{label}: {key} differs between repeat 1 and repeat {index}"
        for index, run in enumerate(runs[1:], start=2)
        for key in EXACT_KEYS
        if run[key] != first[key]
    ]


def summarise(workload: str, timed: list, traced) -> tuple:
    """``(summary, problems)`` of one workload on one seed."""
    label = f"{workload} seed {timed[0]['seed']}"
    problems = determinism_problems(label, timed + ([traced] if traced else []))
    first = timed[0]
    requests = first["requests"]
    walls = {
        "decisions_per_s": [run["requests"] / run["run_s"] for run in timed],
        "setup_s": [run["setup_s"] for run in timed],
        "peak_rss_mb": [run["peak_rss_mb"] for run in timed],
    }
    end_to_end: dict = {}
    for metric in M.END_TO_END:
        if workload not in metric.workloads:
            continue
        if metric.wall:
            entry = spread(walls[metric.name])
        elif metric.name == "failed_ops_share":
            entry = {"value": first["ops_failed"] / first["ops_attempted"]}
        else:
            entry = {"value": first["sim"][metric.name]}
        end_to_end[metric.name] = {"unit": metric.unit, **entry}
    if first["ops_failed"]:
        problems.append(f"{label}: {first['ops_failed']} of {first['ops_attempted']} "
                        f"operations failed: {first['failures']}")
    summary = {
        "n": first["n"],
        "requests": requests,
        "ops_attempted": first["ops_attempted"],
        "ops_failed": first["ops_failed"],
        "failures": first["failures"],
        "alerts": first["alerts"],
        "fingerprint": first["fingerprint"],
        "chain_heads": first["chain_heads"],
        "info": first["info"],
        "end_to_end": end_to_end,
        "per_layer": {},
        "runs": [{key: run[key] for key in ("calibration_s", "run_s", "setup_s", "peak_rss_mb")}
                 for run in timed],
    }
    if traced:
        summary["per_layer"] = _per_layer(first, traced, statistics.median(
            run["run_s"] for run in timed))
        summary["traced_run"] = {key: traced[key] for key in (
            "calibration_s", "run_s", "setup_s", "peak_rss_mb", "spans")}
    return summary, problems


def _per_layer(timed_run: dict, traced: dict, timed_run_s: float) -> dict:
    requests = traced["requests"]
    table = M.per_layer(SPAN_NAMES)
    spans = traced["spans"]
    values: dict = {}
    for span in SPAN_NAMES:
        seen = spans.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.calls_per_decision"] = seen["calls"] / requests
        values[f"{span}.self_ms_per_decision"] = 1000.0 * seen["self_s"] / requests
    values.update(timed_run["counters"])
    values["serialization.kb_encoded_per_decision"] = traced["json_chars"] / requests / 1024.0
    values["blockchain.mempool_peak"] = traced["mempool_peak"]
    values.update(traced["hops"])
    root = spans[ROOT_SPAN]
    values["trace.overhead_ratio"] = traced["run_s"] / timed_run_s
    values["trace.covered_share"] = 1.0 - root["self_s"] / root["total_s"]
    values["trace.spans"] = traced["span_count"]
    values["other.self_ms_per_decision"] = 1000.0 * root["self_s"] / requests
    values.update({name: value for name, value in timed_run["sim"].items() if name in table})
    return {name: {"unit": table[name][0], "value": values.get(name, 0.0)} for name in table}


def report(session: Session, smoke: bool) -> dict:
    """The ``result.json`` document for everything the session ran."""
    problems: list = []
    rows = []
    for seed in session.seeds():
        workloads = {}
        for workload in M.ALL:
            timed = session.timed.get((seed, workload))
            if not timed:
                continue
            workloads[workload], found = summarise(
                workload, timed, session.traced.get((seed, workload)))
            problems.extend(found)
        row = {"seed": seed, "workloads": workloads, "derived": {}}
        if M.STEADY in workloads and M.UNMONITORED in workloads:
            steady = workloads[M.STEADY]["end_to_end"]["decisions_per_s"]["value"]
            control = workloads[M.UNMONITORED]["end_to_end"]["decisions_per_s"]["value"]
            row["derived"]["monitoring_slowdown_x"] = {
                "unit": "ratio", "value": control / steady,
                "base": f"{M.UNMONITORED} {1000.0 / control:.4f} ms per decision"}
        rows.append(row)
    ratio = max(session.calibrations) / min(session.calibrations)
    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "scale": session.scale,
        "config": CONFIG_NOTE,
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "calibration_s": session.calibrations,
            "calibration_spread": ratio,
            "unstable": ratio > M.UNSTABLE_RATIO,
        },
        "rows": rows,
        "ok": not problems,
        "problems": problems,
    }


# -- output -----------------------------------------------------------------------


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(document: dict) -> None:
    write = sys.stdout.write
    write(f"config: {document['config']}\n")
    machine = document["machine"]
    write(f"machine: python {machine['python']}, {machine['cpus']} cpus, calibration "
          f"max/min {machine['calibration_spread']:.3f}"
          f"{'  ** UNSTABLE: re-run before comparing **' if machine['unstable'] else ''}\n")
    for row in document["rows"]:
        for workload, summary in row["workloads"].items():
            write(f"\n== {workload}  seed={row['seed']}  N={summary['n']}  "
                  f"ops {summary['ops_attempted'] - summary['ops_failed']}/"
                  f"{summary['ops_attempted']} ok  fingerprint {summary['fingerprint'][:16]}\n")
            for name, entry in summary["end_to_end"].items():
                extra = ""
                if "q1" in entry:
                    extra = (f"   (q1 {_format(entry['q1'])}, q3 {_format(entry['q3'])}, "
                             f"min {_format(entry['min'])}, n={entry['n']})")
                write(f"  {name:<34}{_format(entry['value']):>14} {entry['unit']}{extra}\n")
            for name, entry in summary["per_layer"].items():
                write(f"    {name:<48}{_format(entry['value']):>14} {entry['unit']}\n")
        for name, entry in row["derived"].items():
            write(f"\nderived (not gated) seed={row['seed']}: {name} = "
                  f"{_format(entry['value'])} x ({entry['base']})\n")
    for problem in document["problems"]:
        write(f"PROBLEM: {problem}\n")
    write(f"\n{'OK' if document['ok'] else 'FAILED'}\n")


def driver_line(document: dict, workload: str, trace: bool) -> str:
    """The one JSON object the ``BENCHMARK.json`` driver reads."""
    summary = document["rows"][0]["workloads"][workload]
    if trace:
        metrics = summary["per_layer"]
    else:
        metrics = {metric.name: summary["end_to_end"][metric.name]
                   for metric in M.END_TO_END if metric.across_seeds is not None}
    return json.dumps({
        "correct": document["ok"],
        "attempted": summary["ops_attempted"],
        "failed": summary["ops_failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    })


# -- entry point ------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed; repeat the flag to run each seed as its own row "
                             "(default 7)")
    parser.add_argument("--repeats", type=int, default=M.MIN_REPEATS,
                        help=f"timed passes per workload (never fewer than {M.MIN_REPEATS})")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{M.SMOKE_SCALE:.0%} of N, one repeat: checks the plumbing only")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="where result.json goes")
    driver = parser.add_argument_group("one workload, as the BENCHMARK.json driver calls it")
    driver.add_argument("--workload", choices=M.ALL)
    driver.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding timed repeats until they have measured this long")
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        sys.stderr.write(f"bench: the program's source is not at {SOURCE}\n")
        return 2
    seeds = args.seed or [7]
    if args.workload and len(seeds) != 1:
        parser.error("--workload takes exactly one --seed")
    session = Session(M.SMOKE_SCALE if args.smoke else 1.0)
    repeats = 1 if args.smoke else max(M.MIN_REPEATS, args.repeats)
    try:
        if args.workload:
            seed = seeds[0]
            if args.trace:
                session.child(args.workload, seed)
                session.child(args.workload, seed, trace=True)
            else:
                began = perf_counter()
                measured = 0.0
                while len(session.calibrations) < repeats or (
                        measured < args.seconds
                        and perf_counter() - began < INVOCATION_BUDGET):
                    measured += session.child(args.workload, seed)["run_s"]
        else:
            for seed in seeds:
                for _ in range(repeats):
                    for workload in M.ALL:
                        session.child(workload, seed)
                for workload in M.ALL:
                    session.child(workload, seed, trace=True)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    document = report(session, args.smoke)
    print_report(document)
    if args.workload:
        sys.stdout.write(driver_line(document, args.workload, bool(args.trace)) + "\n")
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        sys.stdout.write(f"wrote {args.out}\n")
    return 0 if document["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
