"""Command-line exit codes, report schema, CSV output, config merging."""

import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from branchlab import algebra, cli, expr, ideals, pairing, weaklimit

TRIG_DOMAIN = "0,6.283185307179586"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["limit", "--seq", "cos(nu*x)"], 0),
        (["limit", "--seq", "(x"], 1),
        (["limit", "--seq", "sin(nu)"], 2),
        (["classify", "--seq", "cos(nu*x)"], 0),
        (["classify", "--seq", "sin(nu)"], 2),
        (
            ["ideal", "check", "--generators", "1 + sin(nu*x)", "--domain", TRIG_DOMAIN],
            2,
        ),
        (["span", "independence", "--first", "cos(nu*x)", "--second", "2*cos(nu*x)"], 2),
        (
            [
                "span", "independence",
                "--first", "cos(nu*x)",
                "--second", "sin(nu*x)",
                "--second", "1",
            ],
            0,
        ),
        (["gf", "equal", "--lhs", "x^2", "--rhs", "x^2"], 0),
        (
            [
                "gf", "equal",
                "--algebra", "generated",
                "--generators", "1 + sin(nu*x)",
                "--domain", TRIG_DOMAIN,
                "--lhs", "nu*cos(nu*x)",
                "--rhs", "0",
            ],
            2,
        ),
        (["gf", "derive", "--lhs", "x^3", "--order", "2"], 0),
        (
            [
                "gf", "derive",
                "--algebra", "generated",
                "--generators", "1 + sin(nu*x)",
                "--domain", TRIG_DOMAIN,
                "--lhs", "x",
            ],
            1,
        ),
        (["demo", "nosquare", "--seq", "sin(nu*x)"], 0),
        (["nonsense"], 1),
        (["limit"], 1),
    ],
)
def test_exit_codes(argv, expected):
    code, _ = cli.run(argv)
    assert code == expected


def test_version_flag_exits_cleanly(capsys):
    code, report = cli.run(["--version"])
    assert code == 0
    assert report is None
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_report_schema():
    code, report = cli.run(["classify", "--seq", "cos(nu*x)"])
    assert code == 0
    assert report["schema"] == "branch-lab/1"
    assert report["version"] == "0.1.0"
    assert report["command"] == ["classify", "--seq", "cos(nu*x)"]
    assert report["config"]["seq"] == {"tail": "cos(nu*x)"}
    assert report["conclusion"] == "classification: weak-null"
    assert "timestamp" in report
    (stage,) = report["stages"]
    assert stage["name"] == "classify"
    assert stage["passed"] is True
    assert stage["classification"] == "weak-null"


def test_error_report_shape():
    code, report = cli.run(["limit", "--seq", "(x"])
    assert code == 1
    assert report["schema"] == "branch-lab/1"
    assert report["error"]["type"] == "ParseError"
    assert "offset 2" in report["error"]["message"]
    assert "stages" not in report


def test_reports_are_deterministic_for_identical_argv():
    first_code, first = cli.run(["demo", "delta-square"])
    second_code, second = cli.run(["demo", "delta-square"])
    assert first_code == second_code == 0
    assert cli.comparable_bytes(first) == cli.comparable_bytes(second)
    # the only tolerated differences are the volatile fields themselves
    assert first["timestamp"] != "" and second["timestamp"] != ""
    assert first["all_stages_passed"] is True


def test_out_file_holds_canonical_report(tmp_path):
    out = tmp_path / "report.json"
    code, report = cli.run(["classify", "--seq", "cos(nu*x)", "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == cli.canonical_json(report)
    parsed = json.loads(out.read_text(encoding="utf-8"))
    assert parsed["schema"] == "branch-lab/1"


def test_csv_nosquare_row_grid(tmp_path):
    path = tmp_path / "pairings.csv"
    code, _ = cli.run(["demo", "nosquare", "--csv", str(path)])
    assert code == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    # two classification stages, 8 panel members, 13 schedule indices
    assert len(lines) == 1 + 2 * 8 * 13
    assert lines[0] == "nu,center,width,value,error_estimate"
    nu, center, width, value, estimate = lines[1].split(",")
    assert int(nu) == 1
    assert float(width) > 0
    assert math.isfinite(float(value)) and float(estimate) >= 0


def test_csv_delta_square_matches_growth_law(tmp_path):
    path = tmp_path / "growth.csv"
    code, _ = cli.run(["demo", "delta-square", "--csv", str(path)])
    assert code == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 11
    shape = 0.4439938161680794
    for line in lines[1:]:
        nu, _, _, value, _ = line.split(",")
        closed = int(nu) * math.exp(-1.0) / (3.0 * shape)
        assert abs(float(value) - closed) <= 0.05 * closed


def test_csv_header_only_without_pairings(tmp_path):
    path = tmp_path / "empty.csv"
    code, _ = cli.run(
        ["ideal", "check", "--generators", "x", "--domain=-1,1", "--csv", str(path)]
    )
    assert code == 2
    assert path.read_text(encoding="utf-8").splitlines() == [
        "nu,center,width,value,error_estimate"
    ]


def test_config_flag_beats_file_beats_default(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"tol": 0.5, "schedule": [1, 2, 4, 8, 16, 32, 64]}),
        encoding="utf-8",
    )
    code, report = cli.run(
        ["classify", "--seq", "cos(nu*x)", "--config", str(config), "--tol", "0.001"]
    )
    assert report["config"]["tol"] == 0.001
    assert report["config"]["schedule"] == [1, 2, 4, 8, 16, 32, 64]


def test_config_nu_max_expands_schedule(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"nu-max": 4096, "domain": [0.0, 1.0]}), encoding="utf-8"
    )
    code, report = cli.run(["classify", "--seq", "cos(nu*x)", "--config", str(config)])
    assert code == 0
    assert report["config"]["schedule"] == [2**k for k in range(13)]
    assert report["config"]["domain"] == [0.0, 1.0]


def test_panel_flag_echoes_triples():
    code, report = cli.run(
        ["classify", "--seq", "cos(nu*x)", "--panel", "[[-0.5, 0.5], [0.5, 0.5, false]]"]
    )
    assert code == 0
    assert report["config"]["panel"] == [[-0.5, 0.5, True], [0.5, 0.5, False]]


def test_sequence_json_literal_with_exceptions():
    code, report = cli.run(
        ["classify", "--seq", '{"tail": "0", "exceptions": {"2": "x"}}']
    )
    assert code == 0
    assert report["config"]["seq"] == {"tail": "0", "exceptions": {"2": "x"}}
    assert report["conclusion"] == "classification: weak-null"


def test_sequence_from_file(tmp_path):
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("cos(nu*x)\n", encoding="utf-8")
    code, report = cli.run(["limit", "--seq", str(seq_file)])
    assert code == 0
    assert report["config"]["seq"] == {"tail": "cos(nu*x)"}


def test_sequence_loader_validation():
    with pytest.raises(ValueError, match="unknown sequence literal keys"):
        cli.load_sequence('{"tail": "x", "bogus": 1}')
    with pytest.raises(ValueError, match="needs a 'tail'"):
        cli.load_sequence('{"exceptions": {}}')
    assert len(cli.load_sequence_list('["x", {"tail": "0"}]')) == 2
    assert len(cli.load_sequence_list("x, sin(x)")) == 2


def test_gf_mul_reports_representative():
    code, report = cli.run(
        [
            "gf", "mul",
            "--lhs", "nu/(2*cosh(nu*x)^2)",
            "--rhs", "nu/(2*cosh(nu*x)^2)",
        ]
    )
    assert code == 0
    assert report["conclusion"] == "product representative: 0.25*nu^2/cosh(nu*x)^4"


def test_main_writes_report_to_stdout():
    completed = subprocess.run(
        [sys.executable, "-m", "branchlab.cli", "classify", "--seq", "cos(nu*x)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    payload = json.loads(completed.stdout)
    assert payload["schema"] == "branch-lab/1"
    assert payload["conclusion"] == "classification: weak-null"


def test_index_only_pole_ends_in_an_error_report():
    code, report = cli.run(["limit", "--seq=1/(nu-1)"])
    assert code == 1
    assert report["error"]["type"] == "IntegrationError"
    code, report = cli.run(["limit", "--seq=nu^200*cos(x)", "--nu-max=4096"])
    assert code == 1
    assert report["error"]["type"] == "IntegrationError"


@pytest.mark.parametrize(
    "argv, error_type, cause",
    [
        (["gf", "mul", "--lhs=1e200*x", "--rhs=1e200*x"], "OverflowError", "infinity"),
        (["gf", "derive", "--lhs=1e300^2*x"], "OverflowError", "out of range"),
        (["limit", "--seq=" + "(" * 300 + "x" + ")" * 300], "RecursionError", "recursion"),
        (["limit", "--seq=" + "+".join(["x"] * 3000)], "RecursionError", "recursion"),
    ],
)
def test_arithmetic_and_depth_failures_end_in_an_error_report(argv, error_type, cause):
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"]["type"] == error_type
    assert cause in report["error"]["message"]
    assert cli.canonical_json(report)


@pytest.mark.parametrize("seq", ["1/(nu-1)", "exp(nu*x)"])
def test_non_finite_pairings_raise_no_warning(seq):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = cli.run(["limit", "--seq=" + seq])
    assert code == 1
    assert report["error"]["type"] == "IntegrationError"


def test_boolean_start_index_is_rejected():
    code, report = cli.run(["limit", '--seq={"tail": "cos(nu*x)", "start": true}'])
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert "start index" in report["error"]["message"]


def test_default_panel_fits_a_domain_that_rounds_badly():
    code, report = cli.run(["limit", "--seq=cos(8*nu*x+0.19)", "--domain=-1.88,0.92"])
    assert code in (0, 2)
    assert "error" not in report
    for row in report["stages"][0]["per_test_function"]:
        assert -1.88 <= row["center"] - row["width"]
        assert row["center"] + row["width"] <= 0.92


def _record_pairings(monkeypatch):
    """Start time of every pair_with_estimate call, at every module binding."""
    original = pairing.pair_with_estimate
    starts = []

    def recorded(*args):
        starts.append(time.perf_counter())
        return original(*args)

    for module in (pairing, weaklimit, algebra):
        if getattr(module, "pair_with_estimate", None) is original:
            monkeypatch.setattr(module, "pair_with_estimate", recorded)
    return starts


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["limit", "--seq=cos(nu*x)"], 104),
        (["classify", "--seq=cos(nu*x)"], 104),
        (["demo", "nosquare"], 208),
        (["demo", "branching"], 416),
        (["demo", "delta-square"], 99),
    ],
)
def test_each_pairing_is_computed_once(monkeypatch, argv, calls):
    starts = _record_pairings(monkeypatch)
    code, _ = cli.run(argv)
    assert code == 0
    assert len(starts) == calls


def test_stage_timing_covers_every_pairing(monkeypatch):
    starts = _record_pairings(monkeypatch)
    code, report = cli.run(["limit", "--seq=cos(nu*x)"])
    assert code == 0
    (stage,) = report["stages"]
    assert starts[-1] - starts[0] <= stage["timing_s"]


def test_short_delta_square_schedule_is_an_error():
    code, report = cli.run(["demo", "delta-square", "--schedule=4,8,16"])
    assert code == 1
    assert report["error"]["message"] == "schedule needs at least 6 indices"


def _outcome(argv):
    code, report = cli.run(argv)
    return code, None if report is None else cli.comparable_bytes(report)


@pytest.mark.parametrize(
    "sequence",
    [
        [["gf", "derive", "--lhs=x^3", "--order=2"]] * 2,
        [
            [
                "span", "independence",
                "--first=cos(nu*x)", "--first=x",
                "--second=sin(nu*x)", "--second=1",
            ]
        ]
        * 2,
        [["limit", "--bogus"], ["classify", "--seq=cos(nu*x)"]],
    ],
)
def test_reused_parser_matches_a_fresh_one(sequence):
    reused = [_outcome(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_outcome(argv))
    assert reused == fresh


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--seq=cos(nu*x)"],
        ["classify", "--seq=cos(nu*x)"],
        ["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1"],
        ["span", "independence", "--first=cos(nu*x)", "--second=sin(nu*x)"],
        ["gf", "mul", "--lhs=nu/(2*cosh(nu*x)^2)", "--rhs=nu/(2*cosh(nu*x)^2)"],
        ["gf", "derive", "--lhs=x^3"],
        ["gf", "equal", "--lhs=x^2", "--rhs=x^2"],
        ["demo", "nosquare"],
        ["demo", "no-largest-ideal"],
        ["demo", "branching"],
        ["demo", "delta-square"],
        ["limit", "--seq=1/(nu-1)"],
    ],
)
def test_commands_leave_the_error_state_alone(argv):
    before = np.geterr()
    cli.run(argv)
    assert np.geterr() == before


@pytest.mark.parametrize(
    "argv, refines",
    [
        (["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1"], 295),
        (["demo", "no-largest-ideal"], 800),
        (["gf", "mul", "--lhs=nu/(2*cosh(nu*x)^2)", "--rhs=nu/(2*cosh(nu*x)^2)"], 128),
    ],
)
def test_certificate_probes_check_the_index_once_per_bracket(monkeypatch, argv, refines):
    checks = []
    original_check = expr._check_index

    def counted_check(nu_value):
        checks.append(nu_value)
        return original_check(nu_value)

    refined = []
    original_refine = ideals.refine_min_abs

    def counted_refine(*args):
        refined.append(args[1:])
        return original_refine(*args)

    monkeypatch.setattr(expr, "_check_index", counted_check)
    for module in (expr, ideals):
        monkeypatch.setattr(module, "refine_min_abs", counted_refine)
    cli.run(argv)
    assert len(checks) < 1000
    assert len(refined) == refines
