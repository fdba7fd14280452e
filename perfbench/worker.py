"""One workload in a fresh process: warm-up, closed loop, checks, summary.

Run by run.py from the root of a checkout, with the checkout's ``src`` on
PYTHONPATH.  One client sends each operation only after the previous one
finished (a closed loop).  An operation is one CLI argv; its time covers
``branchlab.cli.run(argv)`` and ``canonical_json(report)``, which is what
the ``branchlab`` command does apart from writing to stdout.  Checking a
report happens between operations and is not timed.  The loop stops once
the operations' time at reference speed adds up to ``--seconds``.

Operations are timed in CPU time, and reported at a reference speed set by
a fixed loop timed before each operation (calibrate.py says why); raw CPU
and wall times are kept next to them.

Untraced (``--trace 0``), the summary holds latencies, outcome counts and
peak resident memory.  Traced (``--trace 1``), the same operations run twice
in one process: once untraced, to time them, then under the tracer, which
gives the per-layer metrics and the tracing overhead.  Spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import calibrate
import checker
import metrics
import workloads
from branchlab import cli
from tracer import Tracer

SPAN_DIR = os.path.join("perfbench", "out")
WALL_FACTOR = 2


def timed(argv):
    """(exit code, stdout text or None, CPU seconds, wall seconds) for one operation."""
    wall, cpu = time.perf_counter(), time.thread_time()
    try:
        code, report = cli.run(list(argv))
        text = cli.canonical_json(report) if report is not None else None
    except Exception:  # an escaped exception is an outcome to count, not a crash
        code, text = None, None
    return code, text, time.thread_time() - cpu, time.perf_counter() - wall


def run_cases(cases, seconds=None, count=None, tracer=None):
    """Closed loop until the ops' time at reference speed reaches `seconds`,
    or `count` ops ran.

    A run also ends after WALL_FACTOR * seconds of wall time, so that a
    machine busy with other work still yields a result in time.
    """
    cpu_times, loop_times, wall_times, outcomes, report_bytes = [], [], [], {}, 0
    busy, started = 0.0, time.perf_counter()
    for index, case in enumerate(cases):
        if count is not None and index >= count:
            break
        if seconds is not None and (
            busy >= seconds or time.perf_counter() - started >= WALL_FACTOR * seconds
        ):
            break
        loop_times.append(calibrate.loop_seconds())
        if tracer is not None:
            tracer.begin_op(index)
        code, text, cpu, wall = timed(case.argv)
        if tracer is not None:
            tracer.end_op()
        busy += calibrate.at_reference(cpu, loop_times[-calibrate.NEIGHBOURS:])
        cpu_times.append(cpu)
        wall_times.append(wall)
        report_bytes += len(text) if text else 0
        status, reason = checker.classify(case, code, text)
        outcomes[status] = outcomes.get(status, 0) + 1
        if status in (checker.FAILED, checker.WRONG):
            print(f"{status} ({case.family}): {reason}: {' '.join(case.argv)}", file=sys.stderr)
    return {
        "latencies": calibrate.scale(cpu_times, loop_times),
        "cpu_latencies": cpu_times,
        "wall_latencies": wall_times,
        "outcomes": outcomes,
        "report_bytes": report_bytes,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # warm-up: fills lru caches and first-use costs on inputs the timed loop never sees
    run_cases(next(workloads.rounds(args.workload, f"warm-up:{args.seed}")))

    if not args.trace:
        summary = run_cases(workloads.cases(args.workload, args.seed), seconds=args.seconds)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(summary))
        return 0

    untraced = run_cases(workloads.cases(args.workload, args.seed), seconds=args.seconds / 2)
    ops = len(untraced["latencies"])
    # the traced pass repeats exactly the operations the untraced pass timed
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cases(
            workloads.cases(args.workload, args.seed),
            count=ops,
            tracer=tracer,
        )
    finally:
        tracer.uninstall()
    summary = dict(traced)
    summary["per_layer"] = metrics.per_layer(tracer, ops, untraced, traced)
    wall_share = 1.0 / sum(traced["wall_latencies"])
    summary["top_self_share"] = sorted(
        ((name, s * wall_share) for name, (_, s, _) in tracer.totals().items()),
        key=lambda item: -item[1],
    )[:8]
    summary["layer_self_share"] = {k: v * wall_share for k, v in tracer.layer_self().items()}
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
