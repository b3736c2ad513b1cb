"""One measured run: a fresh, single-threaded process per workload and seed.

``python -m bench.child --workload W --seed S --n N --trace 0|1`` prints
one JSON object on its last line.  The set-up clock starts on the first
line below, before ``repro`` is imported.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from bench import workloads

    recorder = None
    if args.trace:
        from bench import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    run = workloads.Run(args.seed, args.n, _STARTED, recorder)
    result = workloads.WORKLOADS[args.workload](run)
    result["workload"] = args.workload
    result["seed"] = args.seed
    result["n"] = args.n
    result["traced"] = bool(args.trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        result["spans"] = recorder.aggregate()
        result["span_count"] = len(recorder)
        result["json_chars"] = recorder.json_chars
        result["mempool_peak"] = recorder.mempool_peak
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
