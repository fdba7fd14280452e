"""One command protocol: one settings resolver, one exit rule, no dead knobs.

Every subcommand reads its settings through `cli.resolve_settings` (flag,
then `--config` file, then the command's default) and hands back its stages;
`cli.run` alone turns them into the exit code, 0 exactly when every stage
passed.  The knob table holds one row per flag of every subcommand, and each
row shows that changing the flag changes what the command computes, not
just the config it echoes.
"""

import argparse
import contextlib
import io
import json
import math
import pathlib

import pytest

from branchlab import algebra, cli, ideals, weaklimit
from branchlab.expr import DomainInterval, parse
from branchlab.pairing import default_panel, plan_grids
from branchlab.sequences import smooth_sequence
from branchlab.weaklimit import DEFAULT_SCHEDULE

TRIG_DOMAIN = "--domain=0,6.283185307179586"
SHORT = "--schedule=1,2,4,8,16,32"
# small certificate resolutions keep the ideal examples at a few milliseconds
COARSE = ("--cell=0.25", "--nu-max=16")
# neither member's support reaches the origin, where the squared delta concentrates
OFF_ORIGIN_PANEL = "[[-0.5,0.45],[0.5,0.45]]"
HALVES_PANEL = "[[-0.5,0.5],[0.5,0.5]]"


def _stages_passed(report):
    return all(stage["passed"] for stage in report["stages"])


# ---------------------------------------------------------------------------
# the exit rule

EXIT_RULE = [
    ("limit", ["limit", "--seq=cos(nu*x)"], 0),
    ("limit", ["limit", "--seq=sin(nu)"], 2),
    ("classify", ["classify", "--seq=cos(nu*x)"], 0),
    ("classify", ["classify", "--seq=sin(nu)"], 2),
    ("ideal check", ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", *COARSE], 0),
    ("ideal check", ["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1", *COARSE], 2),
    ("span independence", ["span", "independence", "--first=sin(nu*x)", "--second=cos(nu*x)"], 0),
    ("span independence", ["span", "independence", "--first=cos(nu*x)", "--second=2*cos(nu*x)"], 2),
    # gf mul and gf derive either answer or fail: they have no undecided outcome
    ("gf mul", ["gf", "mul", "--lhs=nu/(2*cosh(nu*x)^2)", "--rhs=x"], 0),
    ("gf derive", ["gf", "derive", "--lhs=x^3", "--order=2"], 0),
    ("gf equal", ["gf", "equal", "--lhs=x^2", "--rhs=x^2"], 0),
    (
        "gf equal",
        [
            "gf", "equal", "--lhs=nu*cos(nu*x)", "--rhs=0", "--algebra=generated",
            "--generators=1+sin(nu*x)", TRIG_DOMAIN,
        ],
        2,
    ),
    ("demo nosquare", ["demo", "nosquare"], 0),
    ("demo nosquare", ["demo", "nosquare", "--nu-max=32"], 2),
    ("demo no-largest-ideal", ["demo", "no-largest-ideal"], 0),
    ("demo no-largest-ideal", ["demo", "no-largest-ideal", *COARSE], 2),
    ("demo branching", ["demo", "branching"], 0),
    ("demo branching", ["demo", "branching", SHORT], 2),
    ("demo delta-square", ["demo", "delta-square", "--nu-max=256"], 0),
    ("demo delta-square", ["demo", "delta-square", "--nu-max=256", f"--panel={OFF_ORIGIN_PANEL}"], 2),
]


@pytest.mark.parametrize(
    "command, argv, code", EXIT_RULE, ids=[" ".join(argv) for _, argv, _ in EXIT_RULE]
)
def test_exit_code_is_zero_exactly_when_every_stage_passed(command, argv, code):
    args = cli.build_parser().parse_args(argv)
    # a handler hands back its stages; only run() decides the exit code
    config_echo, stages, conclusion = args.handler(args)
    assert isinstance(config_echo, dict) and isinstance(conclusion, str)
    assert all(isinstance(stage["passed"], bool) for stage in stages)

    got, report = cli.run(argv)
    assert got == code
    assert (got == 0) == _stages_passed(report)
    if argv[0] == "demo":
        assert report["all_stages_passed"] is (got == 0)
    else:
        assert "all_stages_passed" not in report


def test_exit_rule_covers_every_subcommand():
    leaves = {command for command, _ in _leaf_flags(cli.build_parser())}
    assert {command for command, _, _ in EXIT_RULE} == leaves


# ---------------------------------------------------------------------------
# the settings resolver


def _config(tmp_path, payload):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return f"--config={path}"


def _computed(report):
    """What a command computed: its report without the argv and config echo."""
    return {
        key: value
        for key, value in cli.strip_volatile(report).items()
        if key not in ("command", "config")
    }


def test_branching_reads_its_schedule_from_the_config_file(tmp_path):
    schedule = [1, 2, 4, 8, 16, 32]
    _, by_flag = cli.run(["demo", "branching", "--schedule=1,2,4,8,16,32"])
    _, by_file = cli.run(["demo", "branching", _config(tmp_path, {"schedule": schedule})])
    assert by_file["config"]["schedule"] == schedule
    assert _computed(by_file) == _computed(by_flag)
    assert by_file["stages"][0]["records"][0]["classification"] == "mixed"


@pytest.mark.parametrize(
    "flag",
    [
        # the default panel has a member over the origin, so it diverges
        f"--panel={OFF_ORIGIN_PANEL}",
        # settled on halves of the domain at 0.5, inconclusive at the default tolerance
        f"--panel={HALVES_PANEL} --tol=0.5",
    ],
)
def test_delta_square_uses_its_panel_and_tolerance(flag):
    base = ["demo", "delta-square", "--nu-max=256"]
    _, default = cli.run(base)
    _, changed = cli.run(base + flag.split())
    classification = changed["stages"][2]["classification"]
    assert default["stages"][2]["classification"] == "divergent"
    assert classification == "weak-null"
    if "--tol=0.5" in flag:
        _, strict = cli.run(base + [f"--panel={HALVES_PANEL}"])
        assert strict["stages"][2]["classification"] == "mixed"


# a tolerance the members already meet leaves their verdicts as they were; a
# one-member panel changes them, and the stage shows each member's verdict
@pytest.mark.parametrize(
    "flag, members, verdicts_move", [("--tol=0.5", 8, False), ("--panel=[[0,0.9]]", 1, True)]
)
def test_delta_square_panel_classification_carries_member_verdicts(flag, members, verdicts_move):
    _, default = cli.run(["demo", "delta-square"])
    _, changed = cli.run(["demo", "delta-square", flag])
    assert cli.comparable_bytes(changed) != cli.comparable_bytes(default)
    assert (_computed(changed) != _computed(default)) is verdicts_move
    stage = changed["stages"][2]
    assert stage["name"] == "panel-classification"
    assert len(stage["per_test_function"]) == members
    assert any(member["verdict"]["kind"] == "diverges" for member in stage["per_test_function"])


def _sweep(schedule=DEFAULT_SCHEDULE):
    """The paper's sweep: eight bumps on [-1, 1], indices 1 to 4096, tolerance 1e-4."""
    domain = DomainInterval(-1.0, 1.0)
    return domain, plan_grids(default_panel(domain), schedule), 1e-4


DEMOS = {
    "nosquare": lambda: weaklimit.nosquare_demo(*_sweep(), smooth_sequence("cos(nu*x)")),
    "no-largest-ideal": lambda: ideals.no_largest_ideal_demo(
        DomainInterval(0.0, 2.0 * math.pi), 0.05, 200, 0.1,
        smooth_sequence("1 + sin(nu*x)"), smooth_sequence("1 + cos(nu*x)"),
    ),
    "branching": lambda: algebra.branching_demo(
        [smooth_sequence("cos(nu*x)"), smooth_sequence("0")], "u^2", parse("u^2", ("u",)),
        *_sweep(),
    ),
    "delta-square": lambda: _delta_square(tuple(2**k for k in range(2, 13))),
}


def _delta_square(schedule):
    """The squared delta's sweep runs from index 4 to 4096."""
    probe_grids = plan_grids((algebra.DELTA_PROBE,), schedule)
    return algebra.delta_square_demo(*_sweep(schedule), probe_grids)


@pytest.mark.parametrize("name", DEMOS)
def test_a_bare_demo_call_computes_what_the_cli_default_computes(name):
    _, report = cli.run(["demo", name])
    assert cli.strip_volatile(DEMOS[name]()["stages"]) == cli.strip_volatile(report["stages"])


@pytest.mark.parametrize(
    "argv, setting, value, echoed",
    [
        (
            ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1"],
            "cell", 0.1, 0.1,
        ),
        (
            ["span", "independence", "--first=sin(nu*x)", "--second=cos(nu*x)"],
            "x-count", 24, 24,
        ),
        # the representative's pole at -1/2 lies outside [0, 1] only
        (["gf", "mul", "--lhs=1/(x+0.5)", "--rhs=1"], "domain", "0,1", [0.0, 1.0]),
        (["demo", "no-largest-ideal"], "cell", 0.1, 0.1),
    ],
)
def test_config_file_settings_are_used_and_echoed(tmp_path, argv, setting, value, echoed):
    code, by_file = cli.run(argv + [_config(tmp_path, {setting: value})])
    _, by_flag = cli.run(argv + [f"--{setting}={value}"])
    _, default = cli.run(argv)
    assert code in (0, 2)
    assert by_file["config"][setting] == echoed
    assert _computed(by_file) == _computed(by_flag)
    assert _computed(by_file) != _computed(default)


EVERY_COMMAND = [
    ["limit", "--seq=cos(nu*x)"],
    ["classify", "--seq=cos(nu*x)"],
    ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1"],
    ["span", "independence", "--first=sin(nu*x)", "--second=cos(nu*x)"],
    ["gf", "mul", "--lhs=x", "--rhs=x"],
    ["gf", "derive", "--lhs=x"],
    ["gf", "equal", "--lhs=x", "--rhs=x"],
    ["demo", "nosquare"],
    ["demo", "no-largest-ideal"],
    ["demo", "branching"],
    ["demo", "delta-square"],
]


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_every_command_checks_one_plan(monkeypatch, argv):
    """Each command passes its whole plan through the budget check once."""
    plans = []
    original = cli._check_plan

    def counted(rows):
        plans.append(rows)
        return original(rows)

    monkeypatch.setattr(cli, "_check_plan", counted)
    code, _ = cli.run(argv)
    assert code in (0, 2)
    assert len(plans) == 1


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_a_missing_config_file_is_an_error(tmp_path, argv):
    code, text = _main(argv + [f"--config={tmp_path / 'nonexistent.json'}"])
    assert code == 1
    report = json.loads(text)
    assert text == cli.canonical_json(report)
    assert report["error"]["type"] == "FileNotFoundError"
    assert "stages" not in report


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_a_config_key_the_command_does_not_read_is_an_error(tmp_path, argv):
    code, text = _main(argv + [_config(tmp_path, {"domain": "-1,1", "bogus-knob": 3})])
    assert code == 1
    report = json.loads(text)
    assert report["error"]["type"] == "ValueError"
    assert "'bogus-knob'" in report["error"]["message"]
    assert "'domain'" not in report["error"]["message"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["span", "independence", "--first=x", "--second=1"], "tol"),
        (["limit", "--seq=cos(nu*x)"], "cell"),
        (["gf", "derive", "--lhs=x"], "x-count"),
        (["demo", "no-largest-ideal"], "schedule"),
        (["ideal", "check", "--generators=x", "--domain=-1,1"], "panel"),
    ],
)
def test_a_setting_of_another_command_is_not_read(tmp_path, argv, key):
    code, report = cli.run(argv + [_config(tmp_path, {key: 1})])
    assert code == 1
    assert repr(key) in report["error"]["message"]


def test_ideal_check_takes_its_domain_from_the_config_file(tmp_path):
    argv = ["ideal", "check", "--generators=sin(nu*x)", *COARSE]
    code, report = cli.run(argv)
    assert code == 1
    assert "--domain" in report["error"]["message"]
    code, by_file = cli.run(argv + [_config(tmp_path, {"domain": [-1, 1]})])
    _, by_flag = cli.run(argv + ["--domain=-1,1"])
    assert code == 0
    assert _computed(by_file) == _computed(by_flag)


def test_a_flag_beats_the_config_file(tmp_path):
    config = _config(tmp_path, {"schedule": [1, 2, 4, 8, 16, 32], "tol": 0.5})
    _, report = cli.run(["classify", "--seq=cos(nu*x)", config, "--nu-max=64"])
    assert report["config"]["schedule"] == [1, 2, 4, 8, 16, 32, 64]
    assert report["config"]["tol"] == 0.5


# ---------------------------------------------------------------------------
# no dead knobs

# flags that route the report rather than set what is computed
PLUMBING = {"-h", "--help", "--config", "--out", "--csv"}


def _leaf_flags(parser, path=()):
    """(command, flag) for every option of every leaf subcommand."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {
            (" ".join(path), flag)
            for action in parser._actions
            for flag in action.option_strings
            if flag not in PLUMBING
        }
    return set().union(
        *(_leaf_flags(sub, path + (name,)) for name, sub in subparsers[0].choices.items())
    )


def _listed(schedule):
    return ",".join(map(str, schedule))


def _sweep_rows(command, lead, tol_lead):
    """Rows for the five sweep settings; `tol_lead` is an argv the tolerance decides."""
    return [
        (command, "--domain", lead + [SHORT], "-1,1", "-1,2"),
        (command, "--panel", lead + [SHORT], "[[0,1]]", HALVES_PANEL),
        # long enough that the default pair of branching representatives settles
        (command, "--schedule", lead, _listed(DEFAULT_SCHEDULE[:-1]), _listed(DEFAULT_SCHEDULE)),
        (command, "--nu-max", lead, "2048", "4096"),
        (command, "--tol", tol_lead, "1e-4", "0.5"),
    ]


IDEAL = ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1"]
SPAN = ["span", "independence", "--first=sin(nu*x)", "--second=cos(nu*x)"]
UNIT_PAIR = "--generators=1+sin(nu*x),1+cos(nu*x)"

# a tail settling like 1/nu: inconclusive at the default tolerance, settled at 0.5
SETTLING = ["--seq=cos(x)+1/nu", SHORT]

KNOBS = [
    *_sweep_rows("limit", ["limit", "--seq=cos(x)+1/nu"], ["limit", *SETTLING]),
    ("limit", "--seq", ["limit", SHORT], "cos(nu*x)", "x"),
    *_sweep_rows("classify", ["classify", "--seq=cos(x)+1/nu"], ["classify", *SETTLING]),
    ("classify", "--seq", ["classify", SHORT], "cos(nu*x)", "x"),
    ("ideal check", "--generators", ["ideal", "check", "--domain=-1,1", *COARSE], "sin(nu*x)", "cos(nu*x)"),
    ("ideal check", "--domain", ["ideal", "check", "--generators=sin(nu*x)", *COARSE], "-1,1", "0,1"),
    ("ideal check", "--cell", IDEAL + ["--nu-max=16"], "0.25", "0.5"),
    ("ideal check", "--nu-max", IDEAL + ["--cell=0.25"], "16", "32"),
    # the unit pair's sum stays above 2 - sqrt(2): a unit at margin 0.1, none at 0.7
    ("ideal check", "--margin", ["ideal", "check", UNIT_PAIR, TRIG_DOMAIN, *COARSE], "0.1", "0.7"),
    ("span independence", "--first", SPAN, "x", "2*sin(nu*x)"),
    ("span independence", "--second", SPAN, "x", "2*cos(nu*x)"),
    ("span independence", "--domain", SPAN, "-1,1", "0,0.01"),
    ("span independence", "--x-count", SPAN, "16", "8"),
    *(
        row
        for action, rhs in (("mul", ["--rhs=x"]), ("derive", []), ("equal", ["--rhs=0"]))
        for row in (
            (f"gf {action}", "--lhs", ["gf", action, *rhs], "sin(nu*x)", "cos(x)"),
            # the generated algebra and --generators go together
            (f"gf {action}", "--algebra", ["gf", action, "--lhs=sin(nu*x)", *rhs], "eventually-zero", "generated"),
            # for derive, the two ideals fail different gates
            (f"gf {action}", "--generators", ["gf", action, "--lhs=sin(nu*x)", *rhs, "--algebra=generated"], "sin(nu*x)", "1"),
            # 1/(x+0.5) has its pole inside [-1, 1] and outside [0, 1]
            (f"gf {action}", "--domain", ["gf", action, "--lhs=1/(x+0.5)", *rhs], "-1,1", "0,1"),
        )
    ),
    ("gf mul", "--rhs", ["gf", "mul", "--lhs=x"], "x", "sin(x)"),
    ("gf equal", "--rhs", ["gf", "equal", "--lhs=x"], "x", "sin(x)"),
    ("gf derive", "--order", ["gf", "derive", "--lhs=x^3"], "1", "2"),
    *_sweep_rows("demo nosquare", ["demo", "nosquare"], ["demo", "nosquare", *SETTLING]),
    ("demo nosquare", "--seq", ["demo", "nosquare", SHORT], "cos(nu*x)", "sin(nu*x)"),
    ("demo no-largest-ideal", "--generators", ["demo", "no-largest-ideal", *COARSE], "1+sin(nu*x),1+cos(nu*x)", "1+sin(nu*x),1+sin(nu*x)"),
    ("demo no-largest-ideal", "--domain", ["demo", "no-largest-ideal", *COARSE], "0,6.283185307179586", "0,3.14"),
    ("demo no-largest-ideal", "--cell", ["demo", "no-largest-ideal", "--nu-max=16"], "0.25", "0.5"),
    ("demo no-largest-ideal", "--nu-max", ["demo", "no-largest-ideal", "--cell=0.25"], "16", "32"),
    *_sweep_rows(
        "demo branching",
        ["demo", "branching"],
        ["demo", "branching", "--reps=cos(x)+1/nu,1/nu", SHORT],
    ),
    ("demo branching", "--reps", ["demo", "branching", SHORT], "cos(nu*x),0", "cos(nu*x),sin(nu*x)"),
    ("demo branching", "--op", ["demo", "branching", SHORT], "u^2", "u^3"),
    *_sweep_rows(
        "demo delta-square",
        ["demo", "delta-square"],
        ["demo", "delta-square", "--nu-max=256", f"--panel={HALVES_PANEL}"],
    ),
]


def test_every_flag_has_a_knob_row():
    assert {(command, flag) for command, flag, *_ in KNOBS} == _leaf_flags(cli.build_parser())


@pytest.mark.parametrize(
    "command, flag, base, first, second",
    KNOBS,
    ids=[f"{command} {flag}" for command, flag, *_ in KNOBS],
)
def test_changing_a_flag_changes_what_is_computed(tmp_path, command, flag, base, first, second):
    _, one = cli.run(base + [f"{flag}={first}"])
    _, other = cli.run(base + [f"{flag}={second}"])
    assert _computed(one) != _computed(other)
    setting = flag[2:]
    settings = cli.COMMAND_SETTINGS[cli.build_parser().parse_args(base + [f"{flag}={first}"]).command]
    if setting in settings or (setting == "nu-max" and "schedule" in settings):
        # the config file reaches the same setting as the flag
        _, by_file = cli.run(base + [_config(tmp_path, {setting: second})])
        assert _computed(by_file) == _computed(other)


# ---------------------------------------------------------------------------
# the README's configuration table


def _readme_config_pairs():
    """(key, command) pairs of the README's Configuration table."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    every = [command.words for command in cli.COMMANDS]
    pairs = set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        readers = every if cells[1] == "every command" else cells[1].split(", ")
        pairs |= {(cells[0].strip("`"), command) for command in readers}
    return pairs


def test_readme_configuration_table_matches_the_command_table():
    # a sweep reads `nu-max` as its other way to give a schedule
    declared = {
        (key, command.words)
        for command in cli.COMMANDS
        for key in [*command.settings, *(["nu-max"] if "schedule" in command.settings else [])]
    }
    assert _readme_config_pairs() == declared
