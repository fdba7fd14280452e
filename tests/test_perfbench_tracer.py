"""The benchmark's tracer still installs over the package and changes no outcome.

`perfbench/tracer.py` wraps each layer's public functions and a few methods
it reads from class dicts by name (`SmoothSequence.term_value`, for one).  A
rename or deletion of one of them makes `install` fail, which breaks traced
benchmark runs; running commands under the tracer here makes it fail the
test suite too.
"""

import pathlib
import sys

import pytest

from branchlab import cli, ideals, sequences

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
ARGVS = (
    ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--nu-max=16"],
    ["limit", "--seq=cos(nu*x)"],
)


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_traced_commands_exit_as_untraced_ones(tracer_module):
    untraced = [cli.run(list(argv))[0] for argv in ARGVS]
    membership = ideals.membership
    term_value = sequences.SmoothSequence.__dict__.get("term_value")
    tracer = tracer_module.Tracer()
    try:
        # inside the try: an install that fails midway is undone too
        tracer.install()
        assert ideals.membership is not membership
        traced = [cli.run(list(argv))[0] for argv in ARGVS]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert ideals.membership is membership
    assert sequences.SmoothSequence.__dict__["term_value"] is term_value
    totals = tracer.totals()
    assert totals["ideals.membership"][0] > 0
    assert totals["pairing.pairing_tables"][0] > 0


# per-layer metrics whose function the tracer finds nowhere in the package, so
# they read 0 on every run; a change that blinds one more fails here
BLIND_METRICS = {
    "expr.evaluate.calls",
    "expr.evaluate.self_s",
    "pairing.pair_with_estimate.calls",
    "pairing.integrate.nodes",
    "pairing.integrate.self_s",
    "weaklimit.weak_limit.self_s",
    "numutil.refine_min_abs.calls",
    "numutil.refine_min_abs.self_s",
    "numutil.refine_min_abs.incl_share",
}


def _functions_read(metrics, name):
    """The layer.function names a per-layer metric reads; none for a layer
    total, a counter of its own or the tracer's own figures."""
    if name == "expr.symbolic.self_share":
        return metrics.SYMBOLIC
    if name == "algebra.demo.self_s":
        return metrics.DEMOS
    layer, *function = name.split(".")[:-1]
    return () if layer == "trace" or not function else (f"{layer}.{function[0]}",)


def test_no_more_per_layer_metrics_are_blind(tracer_module):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import metrics
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        wrapped = set(tracer.names)
    finally:
        tracer.uninstall()
    blind = set()
    for name, _, _, _ in metrics.PER_LAYER:
        functions = _functions_read(metrics, name)
        if functions and not wrapped.intersection(functions):
            blind.add(name)
    assert blind == BLIND_METRICS
