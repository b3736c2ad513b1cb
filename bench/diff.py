"""Compare two ``result.json`` files: ``python -m bench.diff BASE.json NEW.json``.

One row per (seed, workload, end-to-end metric), judged by the metric's
own bound from :mod:`bench.metrics`; exits non-zero on a regression.

- A metric measured with repeats whose spread (interquartile range over
  the median, on either side) is wider than its bound is *unresolved*,
  not unchanged — unless every new run reads better than every base run.
- If the calibration readings taken before the two sides' runs of a
  workload span more than max/min = 1.10, the machine drifted between
  them and a wall-clock verdict against the new side is unresolved too:
  re-run the set, do not widen the bound.
- Simulated-time metrics repeat exactly on one seed, so any move past
  1 % is a real change of behaviour; so is a changed fingerprint.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench import metrics as M

REGRESSION = "REGRESSION"
CHANGED = "CHANGED"
UNRESOLVED = "unresolved"


def worse_by(metric: M.Metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    if base == 0:
        return 0.0
    delta = (new - base) / abs(base)
    return -delta if metric.better == "higher" else delta


def relative_spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def all_better(metric: M.Metric, base: dict, new: dict) -> bool:
    if metric.better == "higher":
        return min(new["values"]) > max(base["values"])
    return max(new["values"]) < min(base["values"])


def judge(metric: M.Metric, base: dict, new: dict, drifted: bool) -> str:
    """The verdict on one metric of one workload and seed."""
    if metric.bound == 0:
        return REGRESSION if new["value"] > base["value"] else "ok"
    change = worse_by(metric, base["value"], new["value"])
    allowed = metric.bound
    if metric.floor:
        allowed = max(allowed, metric.floor / abs(base["value"]))
    if not metric.wall:
        if change > allowed:
            return REGRESSION
        if change < -allowed:
            return "improved"
        return "same" if new["value"] == base["value"] else "ok (moved)"
    if max(relative_spread(base), relative_spread(new)) > metric.bound:
        return "improved" if all_better(metric, base, new) else UNRESOLVED
    if change > allowed:
        return f"{UNRESOLVED} (machine drifted)" if drifted else REGRESSION
    return "improved" if change < -allowed else "ok"


def moved_counts(base: dict, new: dict) -> list:
    """Exact per-layer numbers that differ, for the reader; not judged."""
    return [
        f"      {name}: {entry['value']:.6g} -> {new[name]['value']:.6g}"
        for name, entry in base.items()
        if entry["unit"] in ("count", "ratio") and not name.startswith("trace.")
        and name in new and new[name]["value"] != entry["value"]
    ]


def compare(base: dict, new: dict, out) -> int:
    """Write the comparison to ``out``; returns the number of regressions."""
    for label, document in (("base", base), ("new", new)):
        machine = document["machine"]
        out.write(f"{label}: calibration median "
                  f"{statistics.median(machine['calibration_s']):.3f} s, max/min "
                  f"{machine['calibration_spread']:.3f}"
                  f"{'  ** unstable **' if machine['unstable'] else ''}"
                  f"{'  (smoke)' if document['smoke'] else ''}\n")
    new_rows = {row["seed"]: row["workloads"] for row in new["rows"]}
    pairs = [(row["seed"], workload, summary, new_rows[row["seed"]][workload])
             for row in base["rows"] if row["seed"] in new_rows
             for workload, summary in row["workloads"].items()
             if workload in new_rows[row["seed"]]]
    if not pairs:
        out.write("nothing to compare: no (seed, workload) is in both files\n")
        return 1
    bad = 0
    for seed, workload, old, fresh in pairs:
        readings = [run["calibration_s"] for run in old["runs"] + fresh["runs"]]
        drifted = max(readings) / min(readings) > M.UNSTABLE_RATIO
        same_output = old["fingerprint"] == fresh["fingerprint"]
        bad += 0 if same_output else 1
        out.write(f"\n== {workload}  seed={seed}  fingerprint "
                  f"{'same' if same_output else CHANGED}"
                  f"{'  ** machine drifted between these runs **' if drifted else ''}\n")
        for name, entry in old["end_to_end"].items():
            metric = M.BY_NAME[name]
            other = fresh["end_to_end"][name]
            verdict = judge(metric, entry, other, drifted)
            bad += 1 if verdict == REGRESSION else 0
            out.write(f"  {name:<30}{entry['value']:>14.6g} -> {other['value']:<14.6g}"
                      f"{entry['unit']:<6}worse by "
                      f"{100 * worse_by(metric, entry['value'], other['value']):+7.2f} %  "
                      f"(bound {100 * metric.bound:g} %)  {verdict}\n")
        for line in moved_counts(old["per_layer"], fresh["per_layer"]):
            out.write(line + "\n")
    out.write(f"\n{bad} regression(s)\n")
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: python -m bench.diff BASE.json NEW.json\n")
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    return 1 if compare(*documents, sys.stdout) else 0


if __name__ == "__main__":
    sys.exit(main())
