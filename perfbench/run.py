"""Benchmark for branchlab: time to verdict end to end, traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weak-limits --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for the families and why each was chosen):

- weak-limits: ``limit``, ``classify`` and three demos; pairing quadrature,
  grid evaluation and large reports do the work.
- certificates: ``ideal check``, ``demo no-largest-ideal`` and ``gf`` on
  impulses; scalar evaluation under bracket refinement does the work.
- symbolic: ``gf derive|mul|equal`` and ``span independence`` on random
  trees; simplify, diff and printing do the work.

The load is a closed loop: one client in one process, each operation one
CLI argv, run in a fresh worker process per invocation so that each
workload gets its own peak memory figure.  Every report is checked against
the answer the generator knows in closed form.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass and the tracing overhead (metrics.py lists both
sets, with what each should move).  Human-readable lines come first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

Times are CPU seconds at a reference speed (calibrate.py says why); the
raw CPU and wall figures are printed too, undeclared.  ``setup_s`` is the
median over fresh interpreters of the main thread's time to import
``branchlab.cli`` and finish a first small call, at the same reference
speed; every CLI invocation pays it, so work moved into import time shows
there.

Run outside a checkout (no ``src/branchlab``), it exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0
SETUP_RUNS = 9
SETUP_ARGV = ["limit", "--seq=cos(nu*x)"]
SETUP_PROBE = (
    "import time\n"
    "started = time.thread_time()\n"
    "from branchlab import cli\n"
    f"code, report = cli.run({SETUP_ARGV!r})\n"
    "cli.canonical_json(report)\n"
    "elapsed = time.thread_time() - started\n"
    "if code != 0:\n"
    "    raise SystemExit(f'setup call exited {code}')\n"
    "import sys\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "import calibrate\n"
    "print(calibrate.at_reference(elapsed, [calibrate.loop_seconds() for _ in range(5)]))\n"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(argv, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        done = subprocess.run(
            argv, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining, check=False
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"timed out: {argv[1:3]}") from err
    if done.returncode != 0:
        raise BenchError(f"exit {done.returncode}: {argv[1:3]}")
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(env, deadline):
    probes = [
        float(_child([sys.executable, "-c", SETUP_PROBE], env, deadline))
        for _ in range(SETUP_RUNS)
    ]
    return statistics.median(probes)


def _p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(summary, setup_s):
    latencies = summary["latencies"]
    cpu, wall = summary["cpu_latencies"], summary["wall_latencies"]
    count = len(latencies)
    outcomes = summary["outcomes"]
    return {
        "throughput_ops_s": count / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _p90(latencies),
        "indefinite_ratio": outcomes.get("indefinite", 0) / count,
        "peak_rss_mb": summary["peak_rss_mb"],
        "setup_s": setup_s,
        "failed_ratio": outcomes.get("failed", 0) / count,
        "wrong_ratio": outcomes.get("wrong", 0) / count,
        "latency_samples": count,
        "cpu_throughput_ops_s": count / sum(cpu),
        "cpu_latency_p50_s": statistics.median(cpu),
        "wall_throughput_ops_s": count / sum(wall),
        "wall_latency_p50_s": statistics.median(wall),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "branchlab", "cli.py")):
        print("perfbench: run from the root of a branchlab checkout (no src/branchlab here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    try:
        setup_s = None if args.trace else setup_seconds(env, deadline)
        line = _child(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    summary = json.loads(line)

    if args.trace:
        values = summary["per_layer"]
        declared = [(name, unit) for name, unit, _, _ in metrics.PER_LAYER]
        shown = declared
        print(f"# {args.workload} seed {args.seed}: share of traced time by layer (self time)")
        for layer, share in sorted(summary["layer_self_share"].items(), key=lambda item: -item[1]):
            print(f"#   {layer:12s} {share:.3f}")
        print("# largest shares of traced time (self time)")
        for name, share in summary["top_self_share"]:
            print(f"#   {name:40s} {share:.3f}")
    else:
        values = end_to_end(summary, setup_s)
        declared = [(name, unit) for name, unit, _, _ in metrics.END_TO_END]
        shown = declared + list(metrics.UNDECLARED_END_TO_END)
    for name, unit in shown:
        print(f"{name} {values[name]!r} {unit}")

    outcomes = summary["outcomes"]
    result = {
        "correct": outcomes.get("wrong", 0) == 0,
        "attempted": len(summary["latencies"]),
        "failed": outcomes.get("failed", 0),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
