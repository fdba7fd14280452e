"""Fuzzed command lines: every input ends in the three-way exit contract.

Generated expressions and junk flag values go through `cli.main`.  Whatever
the input, the exit code is 0, 1 or 2, stdout holds exactly one canonical
JSON report, and running the same argv again gives the same comparable
bytes.  A report that is not an error exits 0 exactly when every stage
passed.  `--help` and `--version` are the only inputs without a report, and
the strategies never produce them.
"""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchlab import cli, expr
from conftest import random_expression

JUNK_EXPRESSIONS = (
    "", "(x", "x+", "nu^", "1/x", "1/(nu-1)", "exp(nu*x)", "sin(nu)", "u", "y",
    "-x", "1e400", "nan", "{", "[1]", '{"tail": "x", "start": 2}',
    '{"tail": "nu", "exceptions": {"1": "x"}}', '{"tail": "x", "start": true}', '{"tail": 5}',
    '{"tail": "x", "exceptions": {"2": 5}}', '{"tail": "x", "exceptions": {" 2": "x"}}',
    '{"tail": "x", "exceptions": {"+2": "x"}}', '{"tail": "x", "exceptions": []}',
    '{"tail": "x", "exceptions": 0}', '{"tail": "x", "exceptions": null}',
)
# each flag: values the command accepts, then values it must refuse
TOLERANCES = (("1e-4", "0.5", "1e300"), ("abc", "", "0", "-1", "inf", "nan", "-inf"))
SCHEDULES = (
    ("1,2,4,8,16,32", "1,2,3,4,5,6,7", "2,4,8,16,32,64,128", "3,5,8,13,21,34"),
    ("0,1,2,3,4,5", "6,5,4,3,2,1", "1,2,3", "1,1,2,3,4,5", "a,b", ""),
)
ORDERS = (("0", "1", "2", "3"), ("-1", "x", "1.5"))
X_COUNTS = (("2", "16"), ("1", "0", "-3", "a", "10000000"))
# certificate and demo resolutions stay small, so an example costs milliseconds
CELLS = (("0.25", "0.5"), ("0", "-0.1", "inf", "nan", "x", "1e-12"))
CERTIFICATE_NU_MAX = (("8", "16"), ("0", "-4", "x"))
DEMO_NU_MAX = (("32", "64", "128"), ("0", "4", "x"))
# its schedule starts at 4 and needs six indices
DELTA_SQUARE_NU_MAX = (("128", "256"), ("0", "64", "x"))
MARGINS = (("0.1", "0.5"), ("0", "-1", "inf", "x"))
GENERATORS = (
    "sin(nu*x)", "1+sin(nu*x)", "x", "nu*x", "1+sin(nu*x),1+cos(nu*x)",
    "sin(nu*x),cos(nu*x)", "1/x", "(x", "",
)
GENERATOR_PAIRS = (
    "1+sin(nu*x),1+cos(nu*x)", "sin(nu*x),cos(nu*x)", "1+sin(nu*x),1+sin(nu*x)",
    "1+sin(nu*x+1),1+cos(nu*x+1)", "x,1", "x",
)
# config file values: the ones a command accepts, then ones it must refuse
CONFIG_VALUES = {
    "domain": (("-1,1", [-1, 1], "-1.5,2"), ("1,0", "a", [1], "", [0, "x"], ["-1", True])),
    "tol": ((1e-4, 0.5, "1e-3"), ("abc", 0, -1, "inf", [1], True)),
    "schedule": (
        ("1,2,4,8,16,32", [4, 8, 16, 32, 64, 128]),
        ("1,2,3", "a", [], {}, [1.9, 2, 4, 8, 16, 32.7]),
    ),
    "nu-max": ((16, 32, "64"), ("x", -1, [2], 64.9, True)),
    "cell": ((0.25, 0.5), (0, "nan", "x", True)),
    "margin": ((0.1, 0.5), (-1, "x", False)),
    "x-count": ((8, 16), (0, "a", 8.5, 10000000)),
    "panel": (
        ("[[0,1]]", [[-0.5, 0.5], [0.5, 0.5, False]]),
        ("[[0,0.1]]", "x", [[0]], [["0", True, False, 99]]),
    ),
}

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


@st.composite
def config_payloads(draw, command):
    """A config object: keys the command reads, with good or junk values, maybe one it does not."""
    keys = set(cli.COMMAND_SETTINGS[command])
    if "schedule" in keys:
        keys.add("nu-max")
    if not draw(st.integers(0, 7)):
        keys = set(CONFIG_VALUES)
    payload = {}
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=3, unique=True)):
        accepted, refused = CONFIG_VALUES[key]
        pool = accepted if draw(st.integers(0, 5)) else refused
        payload[key] = draw(st.sampled_from(pool))
    if draw(st.integers(0, 7)) == 0:
        payload["bogus-knob"] = 1
    return payload


@st.composite
def certificate_and_demo_argvs(draw):
    """ideal check and the four demos at a small fixed resolution, maybe with a config."""
    command = draw(st.sampled_from(
        ("ideal", "nosquare", "no-largest-ideal", "branching", "delta-square")
    ))
    if command == "ideal":
        generators = draw(st.sampled_from(GENERATORS)) if draw(st.booleans()) else draw(expressions())
        argv = ["ideal", "check", "--generators=" + generators, "--domain=-1,1"]
        argv += _flag(draw, "cell", CELLS) + _flag(draw, "nu-max", CERTIFICATE_NU_MAX)
        if draw(st.booleans()):
            argv += _flag(draw, "margin", MARGINS)
    elif command == "no-largest-ideal":
        argv = ["demo", command]
        if draw(st.booleans()):
            argv += ["--generators=" + draw(st.sampled_from(GENERATOR_PAIRS))]
        argv += _flag(draw, "cell", CELLS) + _flag(draw, "nu-max", CERTIFICATE_NU_MAX)
    else:
        argv = ["demo", command]
        if command == "nosquare" and draw(st.booleans()):
            argv += ["--seq=" + draw(expressions())]
        if command == "branching" and draw(st.booleans()):
            argv += ["--reps=" + draw(expressions()) + "," + draw(expressions())]
        if command == "branching" and draw(st.booleans()):
            argv += ["--op=" + draw(st.sampled_from(("u^2", "u^3", "sin(u)", "x", "(u")))]
        if draw(st.booleans()):
            argv += _flag(draw, "tol", TOLERANCES)
        nu_max = DELTA_SQUARE_NU_MAX if command == "delta-square" else DEMO_NU_MAX
        argv += _flag(draw, "nu-max", nu_max)
    roll = draw(st.integers(0, 5))
    if roll < 2:
        return argv, None
    if roll == 2:
        return argv, "missing"
    return argv, draw(config_payloads(" ".join(argv[:2])))


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
    if code != 1:
        assert (code == 0) == all(stage["passed"] for stage in report["stages"])


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(certificate_and_demo_argvs())
def test_certificates_and_demos_end_in_one_report_and_a_contract_code(drawn):
    argv, config = drawn
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "settings.json")
        if config is not None and config != "missing":
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
        if config is not None:
            argv = argv + ["--config=" + path]
        code, text = _main(argv)
        assert code in (0, 1, 2)
        report = json.loads(text)
        assert text == cli.canonical_json(report)
        assert ("error" in report) == (code == 1)
        if config == "missing" or (config and "bogus-knob" in config):
            assert code == 1
        if code != 1:
            assert (code == 0) == all(stage["passed"] for stage in report["stages"])
            if argv[0] == "demo":
                assert report["all_stages_passed"] is (code == 0)
        again_code, again = cli.run(argv)
        assert again_code == code
        assert cli.comparable_bytes(again) == cli.comparable_bytes(report)


# ---------------------------------------------------------------------------
# JSON literals: whatever a literal or a config file holds, run() ends in a report

def json_values(keys):
    """Small JSON values whose objects use only `keys`, so they get past a reader's key check."""
    return st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-3, 8)
        | st.sampled_from((0.25, -1.5, 2.5, "x", "sin(nu*x)", "1,2"))
        | st.text(alphabet="xnu+*()0123456789.,", max_size=6),
        lambda children: st.lists(children, max_size=3)
        | st.fixed_dictionaries({}, optional=dict.fromkeys(keys, children)),
        max_leaves=8,
    )


SEQUENCE_KEYS = ("tail", "exceptions", "start")
PANEL_KEYS = ("members", "center", "width", "normalized")
CHEAP_SCHEDULE = "--schedule=1,2,3,4,5,6"
# each literal flag on an argv that is cheap whatever the literal holds, with its reader's keys
LITERAL_ARGVS = {
    "--seq": (["limit", CHEAP_SCHEDULE], SEQUENCE_KEYS),
    "--panel": (["limit", "--seq=x", CHEAP_SCHEDULE], PANEL_KEYS),
    "--generators": (["ideal", "check", "--domain=-1,1", "--nu-max=4", "--cell=0.5"], SEQUENCE_KEYS),
    "--reps": (["demo", "branching", CHEAP_SCHEDULE], SEQUENCE_KEYS),
}
# config files: a sweep whose schedule flag beats the file's, and a certificate
# whose resolution flags beat the file's, so a drawn value cannot make either slow
CONFIG_ARGVS = {
    "limit": ["limit", "--seq=x", CHEAP_SCHEDULE],
    "ideal check": ["ideal", "check", "--generators=sin(nu*x)", "--nu-max=4", "--cell=0.5"],
}


# literals of the shape their reader takes, so that accepted ones are drawn often
WELL_FORMED = {
    "--seq": st.fixed_dictionaries(
        {"tail": st.sampled_from(("x", "cos(nu*x)", "sin(x)/nu"))},
        optional={
            "exceptions": st.dictionaries(
                st.sampled_from(("1", "2", "7")), st.sampled_from(("0", "x", "x^2")), max_size=2
            ),
            # the cheap schedule starts at 1, before which no sequence may start
            "start": st.just(1),
        },
    ),
    # each member covers at least 90 percent of [-1, 1] and stays inside it
    "--panel": st.lists(
        st.tuples(st.sampled_from((-0.05, 0.0, 0.05)), st.sampled_from((0.9, 0.95)), st.booleans()),
        min_size=1,
        max_size=3,
    ),
}
# the config keys each command reads that a round trip covers
ROUND_TRIP_KEYS = {"limit": ("domain", "schedule"), "ideal check": ("domain",)}


@st.composite
def literal_argvs(draw):
    """An argv with one drawn JSON literal, and the contents of its config file or None."""
    well_formed = draw(st.booleans())
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(LITERAL_ARGVS)))
        argv, keys = LITERAL_ARGVS[flag]
        value = draw(WELL_FORMED[flag] if well_formed and flag in WELL_FORMED else json_values(keys))
        return argv + [f"{flag}={json.dumps(value)}"], None
    command = draw(st.sampled_from(sorted(CONFIG_ARGVS)))
    keys = sorted({*cli.COMMAND_SETTINGS[command], "nu-max"})
    if well_formed:
        chosen = draw(st.lists(st.sampled_from(ROUND_TRIP_KEYS[command]), min_size=1, unique=True))
        config = {key: draw(st.sampled_from(CONFIG_VALUES[key][0])) for key in chosen}
    elif draw(st.integers(0, 3)):
        config = draw(st.dictionaries(st.sampled_from(keys), json_values(PANEL_KEYS), max_size=3))
    else:
        config = draw(json_values(keys))
    return CONFIG_ARGVS[command], config


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(literal_argvs())
def test_no_literal_raises_out_of_run(drawn):
    argv, config = drawn
    code, report = _run_with_config(argv, config)
    assert code in (0, 1, 2)
    assert isinstance(report, dict)
    assert ("error" in report) == (code == 1)
    if code == 1:
        return
    # an accepted literal's echo, passed back as the literal, computes the same report
    echoed = report["config"]
    if config is None:
        flag = argv[-1].partition("=")[0]
        if flag in ("--seq", "--panel"):
            again = _run_with_config(argv[:-1] + [f"{flag}={json.dumps(echoed[flag[2:]])}"], None)
            assert again[0] == code
            assert _without_argv(again[1]) == _without_argv(report)
    elif isinstance(config, dict) and config.keys() & {"domain", "schedule"}:
        config = config | {key: echoed[key] for key in ("domain", "schedule") if key in config}
        again = _run_with_config(argv, config)
        assert again[0] == code
        assert _without_argv(again[1]) == _without_argv(report)


@st.composite
def broken_sequence_argvs(draw):
    """An argv whose sequence literal breaks one rule cli checks, with the path its error names
    and the error's type: a start below 1 or an exception before the start (a ValueError), or
    an exception that uses nu (a ParseError)."""
    flag = draw(st.sampled_from(("--seq", "--generators", "--reps")))
    path = "seq" if flag == "--seq" else flag[2:] + "[0]"
    start = draw(st.integers(1, 3))
    literal = {"tail": draw(st.sampled_from(("x", "cos(nu*x)"))), "start": start}
    rule = draw(st.sampled_from(("start", "index", "entry")))
    kind = "ParseError" if rule == "entry" else "ValueError"
    if rule == "start":
        literal["start"] = draw(st.integers(-2, 0))
        path += "['start']"
    elif rule == "index":
        literal["exceptions"] = {str(draw(st.integers(0, start - 1))): "x"}
        path += "['exceptions']"
    else:
        key = str(draw(st.integers(start, 7)))
        literal["exceptions"] = {key: draw(st.sampled_from(("nu", "nu*x", "x+cos(nu)")))}
        path += f"['exceptions'][{key!r}]"
    value = literal if flag == "--seq" else [literal]
    return LITERAL_ARGVS[flag][0] + [f"{flag}={json.dumps(value)}"], path, kind


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(broken_sequence_argvs())
def test_a_literal_that_breaks_a_sequence_rule_is_one_report_naming_its_path(drawn):
    argv, path, kind = drawn
    code, text = _main(argv)
    assert code == 1
    report = json.loads(text)
    assert text == cli.canonical_json(report)
    assert report["error"]["type"] == kind
    assert report["error"]["message"].startswith(path + ": ")


def _run_with_config(argv, config):
    with tempfile.TemporaryDirectory() as scratch:
        if config is not None:
            path = os.path.join(scratch, "settings.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            argv = argv + ["--config=" + path]
        return cli.run(argv)


def _without_argv(report):
    """The comparable bytes of a report but for its argv echo, which names the literal."""
    return cli.comparable_bytes({key: value for key, value in report.items() if key != "command"})
