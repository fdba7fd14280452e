"""Every metric the benchmark prints: name, unit, direction, and what it should move.

End-to-end metrics come from the untraced run of one workload; per-layer
metrics come from the traced run.  Counts are per operation, self times are
seconds per operation at the reference speed of calibrate.py, and a layer's
self time is the sum of its wrapped functions' self times.  BENCHMARK.json declares the same names and units;
the self-test keeps the two in step.

``moves`` records, before any optimisation is measured, which end-to-end
metric a per-layer metric should move and on which workload.
"""

from __future__ import annotations

# (name, unit, better, bound); bound is the share of the parent's median a
# change may worsen the metric by before it counts as a regression.  Across
# ten seeds the timings spread up to 10% (quartile distance over median)
# even at reference speed, so their bounds are the widest allowed; the
# share of undecided answers moves up to 5% with the number of rounds a
# run completes.
END_TO_END = (
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p90_s", "s", "lower", 0.25),
    ("indefinite_ratio", "ratio", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# printed with the end-to-end metrics, but kept out of the declared set.
# failed_ratio and wrong_ratio read 0 on every run of a correct program, and
# a declared metric must never be 0: `failed` in the result line carries the
# failure count, and `correct` is false as soon as one verdict is wrong.
UNDECLARED_END_TO_END = (
    ("failed_ratio", "ratio"),
    ("wrong_ratio", "ratio"),
    ("latency_samples", "count"),
    # raw CPU and wall forms of the timings: too noisy on a shared machine
    # to gate (calibrate.py)
    ("cpu_throughput_ops_s", "1/s"),
    ("cpu_latency_p50_s", "s"),
    ("wall_throughput_ops_s", "1/s"),
    ("wall_latency_p50_s", "s"),
)

# (name, unit, better, moves)
PER_LAYER = (
    ("cli.build_parser.self_s", "s/op", "lower", "latency_p50_s on symbolic: about 4 ms of a 5 ms gf derive"),
    ("cli.canonical_json.self_s", "s/op", "lower", "latency_p50_s on weak-limits: about 6% of a limit call"),
    ("cli.report_bytes", "B/op", "lower", "latency_p50_s on weak-limits, with canonical_json"),
    ("cli.self_s", "s/op", "lower", "latency_p50_s on symbolic"),
    ("expr.evaluate.calls", "count/op", "lower", "throughput_ops_s and latency_p90_s on certificates; near 0 on weak-limits"),
    ("expr.evaluate.self_s", "s/op", "lower", "throughput_ops_s and latency_p90_s on certificates"),
    ("expr.evaluate_on_grid.calls", "count/op", "lower", "throughput_ops_s on weak-limits"),
    ("expr.evaluate_on_grid.points", "count/op", "lower", "throughput_ops_s on weak-limits"),
    ("expr.evaluate_on_grid.self_s", "s/op", "lower", "throughput_ops_s on weak-limits"),
    ("expr.simplify.calls", "count/op", "lower", "latency_p90_s on symbolic"),
    ("expr.simplify.self_s", "s/op", "lower", "latency_p90_s on symbolic"),
    ("expr.diff.self_s", "s/op", "lower", "latency_p90_s on symbolic"),
    ("expr.to_string.self_s", "s/op", "lower", "latency_p90_s on symbolic"),
    ("expr.parse.self_s", "s/op", "lower", "latency_p90_s on symbolic"),
    ("expr.denominator_safety.self_s", "s/op", "lower", "gf operations on certificates"),
    ("expr.eval_errors", "count/op", "lower", "none: EvalErrors raised, a robustness signal"),
    ("expr.symbolic.self_share", "ratio", "lower", "latency_p90_s on symbolic: simplify, diff and to_string self time over traced op time"),
    ("expr.self_s", "s/op", "lower", "every workload"),
    ("sequences.term_values.self_s", "s/op", "lower", "follows evaluate_on_grid callers: weak-limits"),
    ("sequences.term_value.self_s", "s/op", "lower", "follows evaluate callers: certificates"),
    ("sequences.independence_certificate.self_s", "s/op", "lower", "span independence on symbolic"),
    ("sequences.self_s", "s/op", "lower", "every workload"),
    ("pairing.pair_with_estimate.calls", "count/op", "lower", "throughput_ops_s on weak-limits; base of unique_ratio"),
    ("pairing.integrate.nodes", "count/op", "lower", "throughput_ops_s on weak-limits"),
    ("pairing.integrate.self_s", "s/op", "lower", "throughput_ops_s on weak-limits"),
    ("pairing.unique_ratio", "ratio", "higher", "throughput_ops_s on weak-limits: 0.5 means every pairing is computed twice"),
    ("pairing.self_s", "s/op", "lower", "throughput_ops_s on weak-limits"),
    ("weaklimit.classify_membership.self_s", "s/op", "lower", "throughput_ops_s on weak-limits"),
    ("weaklimit.weak_limit.self_s", "s/op", "lower", "throughput_ops_s on weak-limits"),
    ("weaklimit.self_s", "s/op", "lower", "throughput_ops_s on weak-limits"),
    ("numutil.refine_min_abs.calls", "count/op", "lower", "throughput_ops_s on certificates"),
    ("numutil.refine_min_abs.self_s", "s/op", "lower", "throughput_ops_s on certificates"),
    ("numutil.refine_min_abs.incl_share", "ratio", "lower", "throughput_ops_s on certificates: refinement with the evaluation under it over traced op time"),
    ("numutil.fevals", "count/op", "lower", "throughput_ops_s on certificates"),
    ("numutil.self_s", "s/op", "lower", "throughput_ops_s on certificates"),
    ("ideals.unit_detection.self_s", "s/op", "lower", "throughput_ops_s on certificates"),
    ("ideals.zero_density_certificate.self_s", "s/op", "lower", "throughput_ops_s on certificates"),
    ("ideals.membership.self_s", "s/op", "lower", "throughput_ops_s on certificates"),
    ("ideals.cells_per_refine", "ratio", "higher", "throughput_ops_s on certificates: certified cells per refinement inside zero_density_certificate"),
    ("ideals.zero_density_refines", "count/op", "lower", "base of ideals.cells_per_refine"),
    ("ideals.self_s", "s/op", "lower", "throughput_ops_s on certificates"),
    ("algebra.gf.self_s", "s/op", "lower", "gf operations on certificates and symbolic"),
    ("algebra.demo.self_s", "s/op", "lower", "demos on weak-limits"),
    ("algebra.self_s", "s/op", "lower", "every workload"),
    ("trace.op_s", "s/op", "lower", "none: traced time per operation"),
    ("trace.untraced_op_s", "s/op", "lower", "none: time of the same operations untraced"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced time at reference speed, minus one"),
    ("trace.spans", "count/op", "lower", "none: spans recorded"),
)

SYMBOLIC = ("expr.simplify", "expr.diff", "expr.to_string")
DEMOS = ("algebra.branching_demo", "algebra.delta_square_demo")


def per_layer(tracer, ops, untraced, traced):
    """Per-layer metric values from a traced pass over the `ops` operations
    of an untraced pass.  Spans are timed on the wall clock; self times are
    converted to the reference speed of the end-to-end metrics with the
    traced pass's ratio of reference to wall time, and shares divide wall
    time by wall time."""
    totals = tracer.totals()
    counters = tracer.counters
    traced_s, traced_wall = sum(traced["latencies"]), sum(traced["wall_latencies"])
    to_reference = traced_s / traced_wall

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / ops

    def self_s(*names):
        return to_reference * sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names) / ops

    def wall_share(seconds):
        return seconds / traced_wall

    layers = tracer.layer_self()
    pairings = calls("pairing.pair_with_estimate")
    refines = counters["zero_density.refines"]
    values = {
        "cli.report_bytes": traced["report_bytes"] / ops,
        "expr.evaluate_on_grid.points": counters["grid.points"] / ops,
        "expr.eval_errors": counters["eval_errors"] / ops,
        "expr.symbolic.self_share": wall_share(sum(totals.get(n, (0, 0.0, 0.0))[1] for n in SYMBOLIC)),
        "pairing.integrate.nodes": counters["integrate.nodes"] / ops,
        "pairing.unique_ratio": counters["pairings.unique"] / ops / pairings if pairings else 1.0,
        "numutil.refine_min_abs.incl_share": wall_share(totals.get("numutil.refine_min_abs", (0, 0.0, 0.0))[2]),
        "numutil.fevals": counters["fevals"] / ops,
        "ideals.cells_per_refine": counters["zero_density.cells"] / refines if refines else 0.0,
        "ideals.zero_density_refines": refines / ops,
        "algebra.demo.self_s": self_s(*DEMOS),
        "trace.op_s": traced_s / ops,
        "trace.untraced_op_s": sum(untraced["latencies"]) / ops,
        "trace.overhead_ratio": traced_s / sum(untraced["latencies"]) - 1.0,
        "trace.spans": len(tracer.spans) / ops,
    }
    for name, _, _, _ in PER_LAYER:
        if name in values:
            continue
        function, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls(function)
        elif "." not in function:
            values[name] = to_reference * layers.get(function, 0.0) / ops
        else:
            values[name] = self_s(function)
    return values
