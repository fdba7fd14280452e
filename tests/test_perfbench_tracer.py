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
