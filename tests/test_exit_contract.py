"""Fuzzed command lines: every input ends in the three-way exit contract.

Generated expressions and junk flag values go through `cli.main`.  Whatever
the input, the exit code is 0, 1 or 2, stdout holds exactly one canonical
JSON report, and running the same argv again gives the same comparable
bytes.  `--help` and `--version` are the only inputs without a report, and
the strategies never produce them.
"""

import contextlib
import io
import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchlab import cli, expr
from conftest import random_expression

JUNK_EXPRESSIONS = (
    "", "(x", "x+", "nu^", "1/x", "1/(nu-1)", "exp(nu*x)", "sin(nu)", "u", "y",
    "-x", "1e400", "nan", "{", "[1]", '{"tail": "x", "start": 2}',
    '{"tail": "nu", "exceptions": {"1": "x"}}', '{"tail": "x", "start": true}',
)
# each flag: values the command accepts, then values it must refuse
TOLERANCES = (("1e-4", "0.5", "1e300"), ("abc", "", "0", "-1", "inf", "nan", "-inf"))
SCHEDULES = (
    ("1,2,4,8,16,32", "1,2,3,4,5,6,7", "2,4,8,16,32,64,128", "3,5,8,13,21,34"),
    ("0,1,2,3,4,5", "6,5,4,3,2,1", "1,2,3", "1,1,2,3,4,5", "a,b", ""),
)
ORDERS = (("0", "1", "2", "3"), ("-1", "x", "1.5"))
X_COUNTS = (("2", "16"), ("1", "0", "-3", "a"))

# the alphabet holds no letters of a flag name, so junk never spells an option
junk_text = st.text(alphabet="xnu+-*/^()0123456789.,{}[] ", min_size=1, max_size=12)


@st.composite
def expressions(draw):
    roll = draw(st.integers(0, 5))
    if roll < 4:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        tree = random_expression(rng, depth=draw(st.integers(0, 3)), allow_nu=True)
        return expr.to_string(tree)
    if roll < 5:
        return draw(st.sampled_from(JUNK_EXPRESSIONS))
    return draw(junk_text)


def _flag(draw, name, values):
    """The flag as one `--name=value` token, or as two; a bad value one time in four."""
    accepted, refused = values
    if draw(st.integers(0, 3)):
        value = draw(st.sampled_from(accepted))
    else:
        value = draw(st.one_of(st.sampled_from(refused), junk_text))
    if draw(st.booleans()):
        return [f"--{name}={value}"]
    return [f"--{name}", value]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("limit", "classify", "gf", "span")))
    if command in ("limit", "classify"):
        argv = [command, "--seq=" + draw(expressions())]
        if draw(st.booleans()):
            argv += _flag(draw, "tol", TOLERANCES)
        # short schedules keep each example cheap; the default one has 13 indices
        argv += _flag(draw, "schedule", SCHEDULES)
        return argv
    if command == "span":
        argv = ["span", "independence", "--first=" + draw(expressions())]
        argv += ["--second=" + draw(expressions())]
        if draw(st.booleans()):
            argv += _flag(draw, "x-count", X_COUNTS)
        return argv
    action = draw(st.sampled_from(("mul", "derive", "equal")))
    argv = ["gf", action, "--lhs=" + draw(expressions())]
    if action == "derive":
        if draw(st.booleans()):
            argv += _flag(draw, "order", ORDERS)
    else:
        argv += ["--rhs=" + draw(expressions())]
    return argv


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_every_argv_ends_in_one_report_and_a_contract_code(argv):
    code, text = _main(argv)
    assert code in (0, 1, 2)
    report = json.loads(text)  # raises unless stdout is exactly one document
    assert text == cli.canonical_json(report)
    assert ("error" in report) == (code == 1)
    again_code, again = cli.run(argv)
    assert again_code == code
    assert cli.comparable_bytes(again) == cli.comparable_bytes(report)
