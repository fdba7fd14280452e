"""Command-line exit codes, report schema, CSV output, config merging."""

import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import algebra, cli, expr, ideals, pairing, weaklimit

from conftest import NO_DENSE_ZEROS, SAFETY_LATTICE, run_fresh

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


def test_an_inconclusive_algebra_gate_is_a_stage_that_does_not_pass():
    # 1.00000000001 + sin(nu*x) never vanishes, and the unit lattice sees no floor
    argv = ["gf", "equal", "--lhs=1", "--rhs=0", "--algebra=generated", "--domain=-1,1"]
    code, report = cli.run(argv + ["--generators=1.00000000001+sin(nu*x)"])
    assert code == 2
    (gate,) = report["stages"]
    assert gate["name"] == "off-diagonality-gate" and gate["passed"] is False
    assert (gate["cell_width"], gate["nu_max"]) == (0.05, 200)
    assert gate["reason"] == NO_DENSE_ZEROS
    # an ideal that contains a unit is refused
    code, report = cli.run(argv + ["--generators=2+sin(nu*x)"])
    assert code == 1
    assert report["error"]["type"] == "AlgebraError"


def test_a_near_zero_generator_is_not_certified_off_diagonal():
    # |g| reaches 1e-9 but never 0: no sign change and no closed-form root
    code, report = cli.run(
        ["ideal", "check", "--generators=1.000000001+sin(nu*x)", "--domain=-1,1"]
    )
    stages = {stage["name"]: stage for stage in report["stages"]}
    assert stages["off-diagonality"]["outcome"]["verdict"] != "off-diagonal"
    assert code == 2


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


def _sanitized(obj):
    if isinstance(obj, dict):
        return {key: _sanitized(item) for key, item in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitized(item) for item in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _reference_json(obj):
    """canonical_json as json.dumps wrote it: non-finite floats as their repr strings."""
    return json.dumps(_sanitized(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Count(int):
    pass


_awkward_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té\u2028\U0001f600'), st.characters())
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80),
    st.integers().map(_Count),
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(math.nan)]),
    _awkward_text,
    st.sampled_from(weaklimit.Classification),
)
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_awkward_text, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_canonical_json_writes_what_json_dumps_writes(tree):
    assert cli.canonical_json(tree) == _reference_json(tree)


@pytest.mark.parametrize("value", [np.int64(3), set(), object()])
def test_canonical_json_refuses_what_json_dumps_refuses(value):
    for obj in (value, [1.5, value], {"a": {"b": value}}):
        with pytest.raises(TypeError):
            _reference_json(obj)
        with pytest.raises(TypeError):
            cli.canonical_json(obj)
    # json.dumps would write a non-str key as a string; no report has one
    with pytest.raises(TypeError):
        cli.canonical_json({"a": {1: "b"}})


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
    with pytest.raises(ValueError, match="seq: unknown sequence literal keys"):
        cli.load_sequence('{"tail": "x", "bogus": 1}', "seq")
    with pytest.raises(ValueError, match="seq: sequence literal needs a 'tail'"):
        cli.load_sequence('{"exceptions": {}}', "seq")
    assert len(cli.load_sequence_list('["x", {"tail": "0"}]', "generators")) == 2
    assert len(cli.load_sequence_list("x, sin(x)", "generators")) == 2


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
    [(code, payload, _)] = run_fresh(["classify", "--seq", "cos(nu*x)"])
    assert code == 0
    assert payload["schema"] == "branch-lab/1"
    assert payload["conclusion"] == "classification: weak-null"


# nodes hash by identity, so a report that followed the iteration order of a
# hashed container of nodes would change with the hash seed and memory layout
HASH_SEED_ARGVS = [
    ["gf", "derive", "--lhs=cos(2*x)*exp(x^2)*cos(2*x) + cos(2*x)^3 - sin(x^2)/(1 + cos(2*x))",
     "--order=2"],
    ["gf", "equal", "--lhs=(1+x)^2*cos(nu*x)", "--rhs=cos(nu*x)*(1+x)*(x+1)"],
    ["gf", "mul", "--lhs=nu/(2*cosh(nu*x)^2) + 1/(3+sin(x))", "--rhs=x/(1+x^2) - cos(nu*x)"],
    ["ideal", "check", "--generators=sin(nu*x),cos(nu*x)", "--domain=-1,1"],
]


def test_report_bytes_do_not_depend_on_the_hash_seed():
    outputs = [
        [(r.code, cli.comparable_bytes(r.report)) for r in run_fresh(
            *HASH_SEED_ARGVS, env={"PYTHONHASHSEED": seed}, timeout=300)]
        for seed in ("1", "7")
    ]
    assert len(outputs[0]) == len(HASH_SEED_ARGVS)
    assert outputs[0] == outputs[1]


def test_index_only_pole_ends_in_an_error_report():
    code, report = cli.run(["limit", "--seq=1/(nu-1)"])
    assert code == 1
    assert report["error"]["type"] == "IntegrationError"
    code, report = cli.run(["limit", "--seq=nu^200*cos(x)", "--nu-max=4096"])
    assert code == 1
    assert report["error"]["type"] == "IntegrationError"


@pytest.mark.parametrize(
    "argv, index, member",
    [
        (["limit", "--seq=1/(nu-1)"], 1, (-0.7777777777777778, 0.2222222222222222)),
        (["limit", "--seq=exp(nu*x)"], 1024, (0.5555555555555554, 0.2222222222222222)),
        (
            ["limit", "--seq=nu^200*cos(x)", "--nu-max=4096"],
            64,
            (-0.7777777777777778, 0.2222222222222222),
        ),
        (["classify", "--seq=1/(nu-8)"], 8, (-0.7777777777777778, 0.2222222222222222)),
    ],
)
def test_integration_error_names_its_index_and_member(argv, index, member):
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"] == {
        "type": "IntegrationError",
        "message": (
            f"non-finite sample in the integrand at index {index}, against the "
            f"test function centered at {member[0]} with width {member[1]}"
        ),
    }


@pytest.mark.parametrize(
    "argv, error_type, cause",
    [
        # an infinite coefficient times zero has no value
        (["gf", "mul", "--lhs=1e999*x", "--rhs=x-x"], "ValueError", "NaN"),
        (["limit", "--seq=" + "(" * 300 + "x" + ")" * 300], "ParseError", "nesting"),
    ],
)
def test_arithmetic_and_depth_failures_end_in_an_error_report(argv, error_type, cause):
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"]["type"] == error_type
    assert cause in report["error"]["message"]
    assert cli.canonical_json(report)


@pytest.mark.parametrize(
    "argv, conclusion",
    [
        (["gf", "mul", "--lhs=(1e200*x)^2", "--rhs=1"], "product representative: 1e999*x^2"),
        (["gf", "mul", "--lhs=(-1e200*x)^3", "--rhs=1"], "product representative: -1e999*x^3"),
        (["gf", "derive", "--lhs=1e300^2*x"], "derivative representative: 1e999"),
    ],
)
def test_overflowing_powers_end_in_a_verdict(argv, conclusion):
    # a coefficient raised to a power overflows to infinity, as a product does
    code, report = cli.run(argv)
    assert code == 0
    assert report["conclusion"] == conclusion
    assert cli.canonical_json(report)


@pytest.mark.parametrize(
    "lhs, product", [("1e200*x", "1e999*x^2"), ("-1e200*x", "-1e999*x^2")]
)
def test_overflowing_coefficients_end_in_a_verdict(lhs, product):
    # the coefficient overflows to infinity, which prints as a literal that reads back
    code, report = cli.run(["gf", "mul", "--lhs=" + lhs, "--rhs=1e200*x"])
    assert code == 0
    assert report["conclusion"] == "product representative: " + product
    assert cli.canonical_json(report)


@pytest.mark.parametrize(
    "seq, equivalent",
    [("+".join(["x"] * 3000), "3000*x"), ("-".join(["x"] * 3000), "-2998*x")],
    ids=["3000-term sum", "3000-term difference"],
)
def test_long_chains_have_a_weak_limit(seq, equivalent):
    """A chain of any length is one flat node: no walk recurses down it."""
    code, report = cli.run(["limit", "--seq=" + seq])
    reference_code, reference = cli.run(["limit", "--seq=" + equivalent])
    assert code == reference_code == 0
    members = report["stages"][0]["per_test_function"]
    reference_members = reference["stages"][0]["per_test_function"]
    assert len(members) == len(reference_members)
    for member, expected in zip(members, reference_members):
        assert member["verdict"]["kind"] == expected["verdict"]["kind"] == "converges-to"
        assert member["verdict"]["value"] == pytest.approx(expected["verdict"]["value"], rel=1e-9)


_SUM_599 = "(" + "+".join(f"x^{k}" for k in range(1, 600)) + ")"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["gf", "derive", "--lhs=" + "+".join(f"x^{k}" for k in range(1, 1200))],
            " + ".join(f"{k}*x^{k - 1}" for k in range(1, 1200)),
        ),
        (["gf", "mul", f"--lhs={_SUM_599}*sin(x)", f"--rhs={_SUM_599}"], f"{_SUM_599}^2*sin(x)"),
        (["gf", "mul", "--lhs=" + "*".join(["x"] * 2000), "--rhs=1"], "x^2000"),
        (["gf", "mul", "--lhs=x" + "/2" * 500, "--rhs=1"], f"{2.0**-500!r}*x"),
    ],
    ids=["1199-term derivative", "599-term factor squared", "2000 factors", "500 divisors"],
)
def test_long_chains_have_a_normal_form(argv, expected):
    code, report = cli.run(argv)
    assert code == 0
    result = expr.parse(report["stages"][0]["result"]["tail"])
    assert result == expr.simplify(expr.parse(expected))


def test_long_product_derivative_ends_in_a_report():
    # the product rule nests one level per factor in the derivative's normal form
    factors = "*".join(f"cos({k}*x)" for k in range(1, 401))
    code, report = cli.run(["gf", "derive", "--lhs=" + factors])
    assert cli.canonical_json(report)
    assert code == 0


@pytest.mark.parametrize("seq", ["1/(nu-1)", "exp(nu*x)"])
def test_non_finite_pairings_raise_no_warning(seq):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = cli.run(["limit", "--seq=" + seq])
    assert code == 1
    assert report["error"]["type"] == "IntegrationError"


def test_a_grid_too_long_to_sample_is_an_error_report():
    # at index 1e8 one member's grid would hold 2.3e8 nodes (several GB);
    # it is refused before it is sampled, so the command ends in milliseconds
    started = time.perf_counter()
    code, report = cli.run(["limit", "--seq=cos(nu*x)", "--schedule=1,2,4,8,16,100000000"])
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert report["error"]["type"] == "IntegrationError"
    message = report["error"]["message"]
    assert "index 100000000" in message and "centered at -0.7777777777777778" in message
    assert f"more than {pairing.MAX_GRID_NODES}" in message


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--seq=cos(nu*x)", "--nu-max=1000000000"],
        ["classify", "--seq=cos(nu*x)", "--nu-max=1000000000"],
        ["demo", "nosquare", "--nu-max=1000000000"],
    ],
)
def test_a_schedule_reaching_a_grid_too_long_is_refused_before_sampling(argv):
    # index 2097152 of the schedule needs a grid over MAX_GRID_NODES; sampling
    # the 21 indices before it took over a second
    elapsed = []
    for _ in range(2):  # the faster of two runs, against a busy machine
        started = time.perf_counter()
        [(code, report, _)] = run_fresh(argv)
        elapsed.append(time.perf_counter() - started)
    assert code == 1
    error = report["error"]
    assert error["type"] == "IntegrationError"
    assert error["message"].startswith("the grid at index 2097152, against the test function ")
    assert min(elapsed) < 0.5


def test_work_beyond_the_budget_is_refused_before_sampling():
    # 40 sequences at the largest x-count took 15.7 s and 2.66 GB; 20,000 indices, 103 s
    spans = [f"--first=sin({k}*x)" for k in range(1, 21)]
    spans += [f"--second=cos({k}*x)" for k in range(1, 21)]
    schedule = ",".join(map(str, range(1, 20001)))
    started = time.perf_counter()
    span, sweep = run_fresh(
        ["span", "independence", *spans, "--x-count=524288"],
        ["limit", "--seq=cos(nu*x)", f"--schedule={schedule}"],
        address_space=768 << 20, timeout=60,
    )
    assert time.perf_counter() - started < 5.0
    assert (span.code, sweep.code) == (1, 1)
    budget = f"more than the work budget of {pairing.WORK_BUDGET}"
    assert span.report["error"] == {
        "type": "ValueError",
        "message": "40 sequences x 524288 points x 8 indices is the largest row of a work plan "
        f"of 167772160 units, {budget}",
    }
    assert sweep.report["error"] == {
        "type": "ValueError",
        "message": "1 pairing pass x 3622336768 grid nodes is the largest row of a work plan "
        f"of 3622336768 units, {budget}",
    }


def test_a_whole_command_is_counted_against_the_budget():
    # 10 representatives at 131,072 indices took 2.1 s in 20 passes, each under the budget
    reps = ",".join(["cos(nu*x)", "0"] * 5)
    started = time.perf_counter()
    (branching,) = run_fresh(
        ["demo", "branching", f"--reps={reps}", "--nu-max=131072"],
        address_space=768 << 20, timeout=60,
    )
    assert time.perf_counter() - started < 5.0
    assert branching.code == 1
    budget = f"more than the work budget of {pairing.WORK_BUDGET}"
    assert branching.report["error"] == {
        "type": "ValueError",
        "message": "20 pairing passes x 4750896 grid nodes is the largest row of a work plan "
        f"of 95017920 units, {budget}",
    }


@pytest.mark.parametrize(
    "argv, plan",
    [
        # each pass fits the budget alone; the two passes took 0.3 s
        (["demo", "nosquare", "--nu-max=131072"],
         "2 pairing passes x 4750896 grid nodes is the largest row of a work plan of 9501792"),
        # the probe pass, 3,057,126 nodes, was not counted; the command ran for 0.55 s
        (["demo", "delta-square", "--schedule=4,8,16,32,64,300000"],
         "1 pairing pass x 5436944 grid nodes is the largest row of a work plan of 8494070"),
    ],
    ids=["nosquare", "delta-square"],
)
def test_every_pass_of_a_command_is_counted_against_the_budget(monkeypatch, argv, plan):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an entry was sampled before the plan was checked")

    monkeypatch.setattr(expr, "evaluate_on_grid", no_sampling)
    started = time.perf_counter()
    code, report = cli.run(argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": f"{plan} units, more than the work budget of {pairing.WORK_BUDGET}",
    }


@pytest.mark.parametrize(
    "argv, conclusion",
    [
        (["ideal", "check", "--generators=sin(nu*x),cos(nu*x)", "--domain=0,1000"],
         "off-diagonality: inconclusive; derivation closure: closed"),
        (["gf", "mul", "--lhs=x", "--rhs=x", "--algebra=generated",
          "--generators=sin(nu*x),cos(nu*x)", "--domain=0,1000"],
         "the off-diagonality gate is inconclusive"),
    ],
    ids=["ideal-check", "gf-gate"],
)
def test_an_ideal_on_a_wide_domain_ends_in_a_verdict(argv, conclusion):
    # a scan of 35,565,591 grid nodes was planned, and refused, for these ideals, and
    # for sin(nu*x) alone; its certificate now takes 20,000 cells at one index
    code, report = cli.run(argv)
    assert (code, report["conclusion"]) == (2, conclusion)
    code, report = cli.run(["ideal", "check", "--generators=sin(nu*x)", "--domain=0,1000"])
    assert code == 0
    assert report["conclusion"] == "off-diagonality: off-diagonal; derivation closure: not-closed"
    certificate = report["stages"][1]["outcome"]["certificate"]
    assert certificate["cell_count"] == 20000
    assert {cell["nu"] for cell in certificate["cells"]} == {63}


@pytest.mark.parametrize(
    "argv, path, start",
    [
        (["limit", '--seq={"tail":"cos(nu*x)","start":5}'], "seq", 5),
        (["classify", '--seq={"tail":"cos(nu*x)","start":2}'], "seq", 2),
        (["demo", "nosquare", '--seq={"tail":"cos(nu*x)","start":3}'], "seq", 3),
        (["demo", "branching", '--reps=[{"tail":"cos(nu*x)"},{"tail":"0","start":2}]'], "reps[1]", 2),
    ],
)
def test_a_sweep_operand_that_starts_after_the_schedule_is_refused(argv, path, start):
    # "sequence starts at index 5, got 1" named no flag
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": f"schedule: expected indices from the start {start} of {path} on, got 1",
    }
    # a schedule from the start on is swept
    code, _ = cli.run(argv + [f"--schedule={','.join(str(start << k) for k in range(8))}"])
    assert code != 1


@pytest.mark.parametrize("generators, k", [("1/x", 0), ("x^2+1,1/x", 1)])
def test_ideal_check_stops_at_a_generator_it_does_not_admit(generators, k):
    # 1/x alone went on to "derivation closure: closed" about a non-element
    code, report = cli.run(["ideal", "check", f"--generators={generators}", "--domain=-1,1"])
    assert code == 2
    assert [entry["name"] for entry in report["stages"]] == ["generator-safety"]
    assert report["conclusion"] == (
        f"generators[{k}] (1/x) is not admitted on the domain: unsafe; the ideal is not checked"
    )


def test_the_default_certificates_fit_the_budget(monkeypatch):
    # no-largest-ideal's default scans planned 2 x 224,001 nodes; its certificates
    # now sample one index each on the cell edges, and plan no rows
    plans = []
    monkeypatch.setattr(cli, "_check_plan", plans.append)
    code, _ = cli.run(["demo", "no-largest-ideal"])
    assert (code, plans) == (0, [[]])
    code, _ = cli.run(["ideal", "check", "--generators=x", "--domain=-1,1", "--nu-max=2500"])
    assert code == 2


def test_a_huge_index_cap_ends_in_a_verdict():
    # the scan's plan refused this in exit 1; the certificate samples index 63 alone
    argv = ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--nu-max=1000000000"]
    started = time.perf_counter()
    code, report = cli.run(argv)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert report["conclusion"] == "off-diagonality: off-diagonal; derivation closure: not-closed"
    assert {cell["nu"] for cell in report["stages"][1]["outcome"]["certificate"]["cells"]} == {63}


@pytest.mark.parametrize("shift", ["nu/100", "nu/300", "nu/1000"])
def test_a_generator_whose_zeros_end_is_not_off_diagonal(shift):
    # from index 101 (301, 1001) on, sin(nu*x) + nu/100 has no zero, so the zeros of
    # all entries are finite and the ideal is not off-diagonal; its certificate's
    # cells took roots at indices up to 200 and the command exited 0
    argv = ["ideal", "check", f"--generators=sin(nu*x)+{shift}", "--domain=-1,1"]
    code, report = cli.run(argv)
    assert code == 2
    assert report["conclusion"] == "off-diagonality: inconclusive; derivation closure: not-closed"
    assert report["stages"][1]["outcome"] == {"verdict": "inconclusive", "reason": NO_DENSE_ZEROS}
    gate = ["gf", "mul", "--lhs=x", "--rhs=x", "--algebra=generated"]
    code, report = cli.run(gate + [f"--generators=sin(nu*x)+{shift}"])
    assert (code, report["conclusion"]) == (2, "the off-diagonality gate is inconclusive")
    assert [stage["name"] for stage in report["stages"]] == ["off-diagonality-gate"]


@pytest.mark.parametrize(
    "argv",
    [
        # from order 2050 or so the coefficients of exp(-x)*sin(x) pass 1e308, and
        # inf - inf left a nan in the term map, met in printing as "cannot convert
        # float NaN to integer"
        ["gf", "derive", "--lhs=exp(-x)*sin(x)", "--order=4100"],
        # 0 * inf, the same way
        ["gf", "mul", "--lhs=0*x", "--rhs=1e999*x"],
        # inf / inf, where the sum 1e999 + x is scaled to lead with 1
        ["gf", "mul", "--lhs=(1e999+x)*sin(x)", "--rhs=1"],
    ],
)
def test_a_coefficient_overflow_is_named(argv):
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"] == {
        "type": "ValueError",
        "message": "coefficient overflow: inf - inf, 0*inf or inf/inf makes a NaN coefficient",
    }


@pytest.mark.parametrize(
    "generators, witness_nu",
    [
        # an exception is sampled at its own index, and the tail from its start on
        ('[{"tail":"sin(nu*x)","exceptions":{"2":"1/x"}}]', 2),
        ('[{"tail":"x/(nu-2)","start":3}]', None),
    ],
)
def test_ideal_check_admits_each_generator_where_its_entries_serve(generators, witness_nu):
    _, report = cli.run(["ideal", "check", f"--generators={generators}", "--domain=-1,1"])
    (record,) = report["stages"][0]["records"]
    assert record["safety"]["status"] == ("safe" if witness_nu is None else "unsafe")
    assert record["safety"]["witness_nu"] == witness_nu
    assert report["stages"][0]["passed"] is (witness_nu is None)


def test_gf_admits_an_operand_where_its_entries_serve():
    code, _ = cli.run(["gf", "mul", '--lhs={"tail":"x/(nu-2)","start":3}', "--rhs=1"])
    assert code == 0
    code, report = cli.run(["gf", "mul", '--lhs={"tail":"x","exceptions":{"2":"1/x"}}', "--rhs=1"])
    assert code == 1
    assert report["error"]["type"] == "AlgebraError"
    assert "'denominator_count': 1, 'witness_nu': 2," in report["error"]["message"]


# commands that never run ideals or algebra, each in a fresh interpreter
LIGHT_COMMANDS = [
    ["limit", "--seq=cos(nu*x)"],
    ["classify", "--seq=cos(nu*x)"],
    ["span", "independence", "--first=sin(nu*x)", "--second=cos(nu*x)"],
    ["demo", "nosquare"],
]


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=" ".join)
def test_a_command_loads_only_the_layers_it_runs(argv, tmp_path):
    heavy = {"branchlab.ideals", "branchlab.algebra"}
    plain, with_csv, gf = run_fresh(
        argv, [*argv, f"--csv={tmp_path / 'rows.csv'}"], ["gf", "mul", "--lhs=x", "--rhs=x"]
    )
    assert (plain.code, with_csv.code, gf.code) == (0, 0, 0)
    assert not (heavy | {"csv"}) & plain.modules
    assert "csv" in with_csv.modules and not heavy & with_csv.modules
    assert heavy <= gf.modules


def test_span_independence_at_its_x_count_bound_stays_small():
    # 8 indices x 524288 points is MAX_GRID_NODES, the largest sample the bound lets through
    argv = ["span", "independence", "--first=sin(x)", "--second=cos(x)", "--x-count=524288"]
    tracemalloc.start()
    try:
        code, report = cli.run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert report["stages"][0]["certificate"]["rank"] == 2
    assert peak < 100 * 2**20


def test_boolean_start_index_is_rejected():
    code, report = cli.run(["limit", '--seq={"tail": "cos(nu*x)", "start": true}'])
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert report["error"]["message"] == "seq['start']: expected an integer, got true"


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["limit", "--seq=cos(nu*x)", '--panel=[{"center":0}]'], None, "'width'"),
        (["limit", "--seq=cos(nu*x)"], {"panel": {"members": [{"width": 0.5}]}}, "'center'"),
        (["limit", '--seq={"tail":"x","exceptions":[1,2]}'], None, "'exceptions'"),
        (["span", "independence", '--first={"tail":"x","exceptions":"x"}', "--second=1"], None, "'exceptions'"),
        (["demo", "branching", '--reps=[{"tail":"x","exceptions":3}]'], None, "'exceptions'"),
        # a value of the wrong JSON type is refused, never read by its keys or characters
        (["limit", "--seq=x", '--panel=["01"]'], None, 'panel[0]: expected an array or an object, got "01"'),
        (
            ["limit", "--seq=x", '--panel={"01": 0}'],
            None,
            'panel: expected an array, or an object with "members", got {"01": 0}',
        ),
        (
            ["limit", "--seq=x", '--panel=[[0,1,"no"],[0.5,0.4,"false"]]'],
            None,
            'panel[0].normalized: expected true or false, got "no"',
        ),
        (
            ["limit", "--seq=x", '--panel=[{"center":0,"width":0.9,"normalized":1}]'],
            None,
            "panel[0].normalized: expected true or false, got 1",
        ),
        (
            ["limit", "--seq=x"],
            {"domain": {"-1": 0, "1": 0}},
            'domain: expected a "lower,upper" string or an array, got {"-1": 0, "1": 0}',
        ),
        (
            ["limit", "--seq=x"],
            {"schedule": {str(k): 0 for k in range(1, 7)}},
            'schedule: expected a comma-separated string or an array, got {"1": 0, "2": 0, '
            '"3": 0, "4": 0, "5": 0, "6": 0}',
        ),
        # inside a JSON array a number is an int or a float, never a bool or a
        # string; a schedule entry is an int; a panel member has 2 or 3 entries
        (
            ["limit", "--seq=x"],
            {"schedule": [1.9, 2, 4, 8, 16, 32.7]},
            "schedule[0]: expected an integer, got 1.9",
        ),
        (
            ["limit", "--seq=x", '--panel=[["0", true, false, 99]]'],
            None,
            "panel[0]: expected 2 or 3 entries, got 4",
        ),
        (["limit", "--seq=x", "--panel=[[0, true]]"], None, "panel[0].width: expected a number, got true"),
        (["limit", "--seq=x"], {"domain": ["-1", True]}, 'domain[0]: expected a number, got "-1"'),
        # an int setting takes no fraction, and no numeric setting takes a bool
        (["limit", "--seq=x"], {"nu-max": 64.9}, "nu-max: expected an integer, got 64.9"),
        (
            ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--nu-max=16"],
            {"cell": True},
            "cell: expected a number, got true",
        ),
        # a sample count past its bound is refused before anything is sampled
        (
            ["span", "independence", "--first=sin(x)", "--second=cos(x)", "--x-count=10000000"],
            None,
            "x-count must lie in [1, 524288], got 10000000",
        ),
        (
            ["span", "independence", "--first=sin(x)", "--second=cos(x)", "--x-count=0"],
            None,
            "x-count must lie in [1, 524288], got 0",
        ),
        # a config value is read even when a flag gives the same setting
        (
            ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--nu-max=16", "--cell=0.25"],
            {"nu-max": 64.9},
            "nu-max: expected an integer, got 64.9",
        ),
        (["limit", "--seq=cos(nu*x)", "--tol=1e-4"], {"tol": True}, "tol: expected a number, got true"),
        # an index cap below 1 searches no index; a sweep's gives no schedule
        (
            ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--nu-max=0"],
            None,
            "nu-max must be at least 1, got 0",
        ),
        (["limit", "--seq=cos(nu*x)"], {"nu-max": -4}, "nu-max must be at least 1, got -4"),
        # --generators is read only by the generated algebra
        (
            ["gf", "equal", "--lhs=x", "--rhs=x", "--generators=(x"],
            None,
            "--algebra generated and --generators go together",
        ),
        # a sequence literal's error names the flag and the path of the entry
        (
            ["limit", '--seq={"tail":"x","exceptions":[1,2]}'],
            None,
            "seq['exceptions']: expected an object, got [1, 2]",
        ),
        (
            ["demo", "branching", '--reps=[{"tail":"x","exceptions":3}]'],
            None,
            "reps[0]['exceptions']: expected an object, got 3",
        ),
        (
            ["gf", "mul", '--lhs={"tail": 5}', "--rhs=1"],
            None,
            "lhs['tail']: expected an expression string, got 5",
        ),
        (
            ["gf", "mul", '--lhs={"tail": "x", "exceptions": {"2": 5}}', "--rhs=1"],
            None,
            "lhs['exceptions']['2']: expected an expression string, got 5",
        ),
        # an exception's key is the index text the report echoes, nothing that merely reads as one
        *(
            (
                ["gf", "mul", f'--lhs={{"tail": "x", "exceptions": {{"{key}": "x"}}}}', "--rhs=1"],
                None,
                f'lhs[\'exceptions\']: expected index keys like "2", got "{key}"',
            )
            for key in (" 2", "+2", "02")
        ),
        # an `exceptions` that is no object is refused, never read as no exceptions
        *(
            (
                ["gf", "mul", '--lhs={"tail": "x", "exceptions": %s}' % value, "--rhs=1"],
                None,
                f"lhs['exceptions']: expected an object, got {value}",
            )
            for value in ("[]", "0", "null")
        ),
        # a domain or schedule entry that is no number names its place
        (["limit", "--seq=cos(nu*x)"], {"domain": [1]}, "domain: expected 2 entries, got 1"),
        (["limit", "--seq=cos(nu*x)", "--domain=a,1"], None, 'domain[0]: expected a number, got "a"'),
        (
            ["limit", "--seq=cos(nu*x)", "--schedule=1,2,x,8,16,32"],
            None,
            'schedule[2]: expected an integer, got "x"',
        ),
        # a config panel is checked against the domain even when a flag's panel beats it
        (
            ["limit", "--seq=x", "--panel=[[0,1]]"],
            {"panel": [[0, 0.1]]},
            "panel supports must cover at least 80% of the domain",
        ),
        # the text of a number is read as one, and its error names the key
        (["limit", "--seq=x"], {"tol": "abc"}, 'tol: expected a number, got "abc"'),
        (["limit", "--seq=x"], {"nu-max": "1e3"}, 'nu-max: expected an integer, got "1e3"'),
        # a member whose support rounds to a point is refused where the panel is built
        (
            ["limit", "--seq=cos(nu*x)", "--panel=[[0,1],[0.5,1e-300]]"],
            None,
            "panel[1]: bump support [0.5, 0.5] must have positive length",
        ),
        # a sequence starts at 1 or later, no exception precedes it, and an exception is in x
        (
            ["limit", '--seq={"tail":"x","start":0}'],
            None,
            "seq['start']: expected an integer of at least 1, got 0",
        ),
        (
            ["gf", "mul", '--lhs={"tail":"x","exceptions":{"1":"x"},"start":2}', "--rhs=1"],
            None,
            'lhs[\'exceptions\']: expected index keys from the start 2 on, got "1"',
        ),
        (
            ["demo", "branching", '--reps=[{"tail":"x","exceptions":{"2":"nu*x"}}]'],
            None,
            "reps[0]['exceptions']['2']: unknown identifier 'nu' (offset 0)",
        ),
        # an empty operand is refused, never read as the demo's default
        (["demo", "nosquare", "--seq="], None, "seq: unexpected end of input (offset 0)"),
        (
            ["demo", "no-largest-ideal", "--generators="],
            None,
            "generators: expected at least one sequence, got none",
        ),
        # a parse error names the flag and the path of the text
        (["limit", "--seq=(x"], None, "seq: expected ')' (offset 2)"),
        (["limit", '--seq={"tail":"(x"}'], None, "seq['tail']: expected ')' (offset 2)"),
        (["gf", "mul", "--lhs=x", "--rhs=(x"], None, "rhs: expected ')' (offset 2)"),
        (["demo", "branching", "--reps=x,(x"], None, "reps[1]: expected ')' (offset 2)"),
        (["demo", "branching", "--op=(u"], None, "op: expected ')' (offset 2)"),
        (
            ["demo", "no-largest-ideal", "--generators=1+sin(nu*x),(x"],
            None,
            "generators[1]: expected ')' (offset 2)",
        ),
        # a wrong operand count names its flag, and an unsafe composition the
        # representative and where its denominator vanishes
        (
            ["demo", "no-largest-ideal", "--generators=x"],
            None,
            "generators: expected exactly two sequences, got 1",
        ),
        (["demo", "branching", "--reps=x"], None, "reps: expected at least two sequences, got 1"),
        (
            ["demo", "branching", "--op=1/u"],
            None,
            "op on reps[0]: composition is not denominator-safe on the domain: unsafe "
            "(witness_nu 2, witness_x ",
        ),
        # a composed exception is admitted at its own index: 1/(1 + (x - 1)) at index 2
        (
            [
                "demo", "branching", '--reps=[{"tail":"cos(nu*x)/2","exceptions":{"2":"x-1"}},"0"]',
                "--op=1/(1+u)",
            ],
            None,
            "op on reps[0]: composition is not denominator-safe on the domain: unsafe "
            "(witness_nu 2, witness_x ",
        ),
        # a panel member is read like a sequence literal: no unknown key, and its path
        (
            ["limit", "--seq=cos(nu*x)", '--panel=[{"center":0,"width":0.9,"normalised":false}]'],
            None,
            "panel[0]: unknown panel member keys ['normalised']",
        ),
        (
            ["limit", "--seq=cos(nu*x)", '--panel=[[-0.5,0.5],{"width":0.5}]'],
            None,
            "panel[1]: panel member needs a 'center' key",
        ),
    ],
)
def test_a_malformed_literal_is_one_error_report(tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + [f"--config={path}"]
    code, report = cli.run(argv)
    assert code == 1
    # a message that ends in its text offset is the parser's, a ParseError
    assert report["error"]["type"] == ("ParseError" if "(offset " in message else "ValueError")
    assert message in report["error"]["message"]


# the array form is test_panel_flag_echoes_triples; the second is a demo report's parameters.panel
@pytest.mark.parametrize(
    "flag",
    [
        '--panel=[{"center": -0.5, "width": 0.5}, {"center": 0.5, "width": 0.5, "normalized": false}]',
        '--panel={"domain": [-1.0, 1.0], "members": [{"center": -0.5, "width": 0.5, '
        '"normalized": true}, {"center": 0.5, "width": 0.5, "normalized": false}]}',
    ],
)
def test_the_object_panel_forms_are_read(flag):
    code, report = cli.run(["limit", "--seq=cos(nu*x)", flag])
    assert code == 0
    assert report["config"]["panel"] == [[-0.5, 0.5, True], [0.5, 0.5, False]]


# the candidate and its generator start after index 3, or after the sampled range
@pytest.mark.parametrize(
    "lhs, generator",
    [
        ("sin(nu*x)*x", '{"tail":"sin(nu*x)","start":5}'),
        ('{"tail":"sin(nu*x)*x","start":40}', '{"tail":"sin(nu*x)","start":40}'),
    ],
)
def test_factorization_checks_only_indices_every_sequence_defines(lhs, generator):
    code, report = cli.run(
        [
            "gf", "equal", f"--lhs={lhs}", "--rhs=0", "--algebra=generated",
            f"--generators={generator}", "--domain=-1,1",
        ]
    )
    assert code == 0
    assert report["stages"][1]["outcome"]["verdict"] == "equal"


def test_default_panel_fits_a_domain_that_rounds_badly():
    code, report = cli.run(["limit", "--seq=cos(8*nu*x+0.19)", "--domain=-1.88,0.92"])
    assert code in (0, 2)
    assert "error" not in report
    for row in report["stages"][0]["per_test_function"]:
        assert -1.88 <= row["center"] - row["width"]
        assert row["center"] + row["width"] <= 0.92


def _record_pairings(monkeypatch):
    """Pairings and closure calls of every pairing_tables call, at every module binding.

    `pairings` counts members times indices per call; `calls` holds the
    start time and block shape of each closure call the pairings made.
    """
    original = pairing.pairing_tables
    record = {"pairings": 0, "calls": []}

    class Recorded:
        def __init__(self, s):
            self.s = s

        def term_values(self, index, xs):
            record["calls"].append((time.perf_counter(), xs.shape))
            return self.s.term_values(index, xs)

    def recorded(s, grids):
        record["pairings"] += len(grids.members) * len(grids.schedule)
        return original(Recorded(s), grids)

    for module in (pairing, weaklimit, algebra):
        if getattr(module, "pairing_tables", None) is original:
            monkeypatch.setattr(module, "pairing_tables", recorded)
    return record


@pytest.mark.parametrize(
    "argv, plans",
    [
        (["limit", "--seq=cos(nu*x)"], 1),
        (["demo", "nosquare"], 1),
        (["demo", "branching"], 1),
        # the panel and the probe
        (["demo", "delta-square"], 2),
    ],
)
def test_a_sweep_plans_each_panel_once(monkeypatch, argv, plans):
    calls = []
    original = pairing.plan_grids

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (pairing, cli):
        monkeypatch.setattr(module, "plan_grids", counted)
    code, _ = cli.run(argv)
    assert code == 0
    assert len(calls) == plans


PAIRING_PINS = [
    (["limit", "--seq=cos(nu*x)"], 104, 30, 152168),
    (["classify", "--seq=cos(nu*x)"], 104, 30, 152168),
    (["demo", "nosquare"], 208, 60, 304336),
    (["demo", "branching"], 416, 120, 608672),
    (["demo", "delta-square"], 99, 39, 234055),
]


@pytest.mark.parametrize(
    "argv, pairings, calls, points",
    PAIRING_PINS,
    ids=[f"argv{k}-{pin[1]}" for k, pin in enumerate(PAIRING_PINS)],  # row and pairing count
)
def test_each_pairing_is_computed_once(monkeypatch, argv, pairings, calls, points):
    record = _record_pairings(monkeypatch)
    code, _ = cli.run(argv)
    assert code == 0
    assert record["pairings"] == pairings
    # one closure call per block, never one per pairing; the same nodes are sampled
    assert len(record["calls"]) == calls
    assert sum(rows * nodes for _, (rows, nodes) in record["calls"]) == points


def test_closure_calls_keep_to_the_node_cap(monkeypatch):
    record = _record_pairings(monkeypatch)
    code, _ = cli.run(["demo", "nosquare", "--domain=-2,3", "--nu-max=8192"])
    assert code == 0
    shapes = [shape for _, shape in record["calls"]]
    for rows, nodes in shapes:
        assert rows * nodes <= pairing.BLOCK_NODES or rows == 1
    # both kinds of block occur: several rows under the cap, one row over it
    assert any(rows > 1 for rows, _ in shapes)
    assert any(rows == 1 and nodes > pairing.BLOCK_NODES for rows, nodes in shapes)


def test_stage_timing_covers_every_pairing(monkeypatch):
    record = _record_pairings(monkeypatch)
    code, report = cli.run(["limit", "--seq=cos(nu*x)"])
    assert code == 0
    (stage,) = report["stages"]
    starts = [start for start, _ in record["calls"]]
    assert starts[-1] - starts[0] <= stage["timing_s"]


def test_short_delta_square_schedule_is_an_error(monkeypatch):
    record = _record_pairings(monkeypatch)
    code, report = cli.run(["demo", "delta-square", "--schedule=4,8,16"])
    assert code == 1
    assert report["error"]["message"] == "schedule needs at least 6 indices"
    # the schedule is refused before any pairing is computed
    assert record == {"pairings": 0, "calls": []}


def test_delta_square_refuses_a_domain_without_its_probe(monkeypatch):
    record = _record_pairings(monkeypatch)
    code, report = cli.run(["demo", "delta-square", "--domain=-0.5,0.5"])
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    message = report["error"]["message"]
    assert "normalized bump on [-1.0, 1.0]" in message
    assert "domain [-0.5, 0.5]" in message
    assert record == {"pairings": 0, "calls": []}
    # a domain whose closure holds the support is accepted
    code, _ = cli.run(["demo", "delta-square", "--domain=-1,1", "--nu-max=256"])
    assert code == 0


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        # a sweep's cap below 1 would give no schedule; it is refused by name first
        pytest.param(
            ["limit", "--seq=cos(nu*x)", "--nu-max=0"],
            "nu-max must be at least 1, got 0",
            id="limit --seq=cos(nu*x) --nu-max=0",
        ),
        pytest.param(
            ["demo", "delta-square", "--nu-max=2"],
            "schedule needs at least 6 indices",
            id="demo delta-square --nu-max=2",
        ),
    ],
)
def test_an_empty_schedule_is_a_short_one(argv, message):
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"]["message"] == message


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
        # certificates bracket on grids and bisect lane-wise, with no
        # golden-section search; a scalar search per bracket once took 295
        # and 800 brackets here, and 20,349 and 53,712 closure calls
        (["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1"], 0),
        (["demo", "no-largest-ideal"], 0),
        # denominator safety refines all indices of a denominator lane-wise,
        # one pass per distinct denominator of each operand
        (["gf", "mul", "--lhs=nu/(2*cosh(nu*x)^2)", "--rhs=nu/(2*cosh(nu*x)^2)"], 2),
    ],
)
def test_certificate_probes_check_the_index_once_per_bracket(monkeypatch, argv, refines):
    grids = []
    original_grid = expr.evaluate_on_grid

    def counted_grid(e, nu_value, xs):
        grids.append(nu_value)
        return original_grid(e, nu_value, xs)

    refined = []
    original_refine = expr.refine_min_abs_lanes

    def counted_refine(*args):
        refined.append(args[1:])
        return original_refine(*args)

    calls = []
    original_compiled = expr._compiled

    def counted_compiled(e):
        closure = original_compiled(e)

        def counting(nu, x):
            calls.append(1)
            return closure(nu, x)

        return counting

    # each grid evaluation once checked its index, so this counts what the checks did
    monkeypatch.setattr(expr, "evaluate_on_grid", counted_grid)
    monkeypatch.setattr(expr, "refine_min_abs_lanes", counted_refine)
    monkeypatch.setattr(expr, "_compiled", counted_compiled)
    cli.run(argv)
    assert len(grids) < 1000
    assert len(refined) == refines
    assert len(calls) < 1000


def test_denominator_safety_evaluates_a_denominator_once_per_refinement_step(monkeypatch):
    calls = []
    original = expr._compiled

    def counted(e):
        closure = original(e)

        def counting(nu, x):
            calls.append(1)
            return closure(nu, x)

        return counting

    monkeypatch.setattr(expr, "_compiled", counted)
    code, _ = cli.run(["gf", "mul", "--lhs=nu/(2*cosh(nu*x)^2)", "--rhs=nu/(2*cosh(nu*x)^2)"])
    assert code == 0
    # two denominators, each one (index x point) lattice and one lane-wise
    # refinement; a grid row and a scalar search per index take 8,960 calls
    assert 0 < len(calls) <= 200


def test_a_repeated_denominator_is_checked_once(monkeypatch):
    lattices = []
    original = expr._compiled

    def counted(e):
        closure = original(e)

        def counting(nu, x):
            if np.ndim(nu) == 2:
                lattices.append(e)
            return closure(nu, x)

        return counting

    monkeypatch.setattr(expr, "_compiled", counted)
    code, _ = cli.run(["gf", "mul", "--lhs=x" + "/2" * 500, "--rhs=1"])
    assert code == 0
    # 500 occurrences of one denominator: one (index x point) lattice
    assert lattices == [expr.Num(2.0)]
    safety = expr.denominator_safety(
        expr.parse("x" + "/2" * 500), expr.DEFAULT_DOMAIN, SAFETY_LATTICE
    )
    assert safety.denominator_count == 500


@pytest.mark.parametrize(
    "argv, message",
    [
        (["limit", "--seq=x", "--tol=abc"], "argument --tol: invalid float value"),
        (["nonsense"], "invalid choice: 'nonsense'"),
        (["limit"], "the following arguments are required: --seq"),
    ],
)
def test_usage_errors_print_one_error_report(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.out == cli.canonical_json(report)
    assert report["command"] == argv
    assert report["error"]["type"] == "UsageError"
    assert message in report["error"]["message"]
    assert "stages" not in report
    # the usage line still goes to stderr for a reader at a terminal
    assert captured.err.startswith("usage:")


def test_running_out_of_memory_is_one_error_report(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(ideals, "off_diagonality", exhausted)
    code, report = cli.run(["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1"])
    assert code == 1
    assert report["error"] == {"type": "MemoryError", "message": "Unable to allocate 14.6 TiB"}


def test_help_exits_cleanly_without_a_report(capsys):
    assert cli.run(["limit", "--help"]) == (0, None)
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize(
    "argv",
    [
        # a negative margin passed sin(nu*x) off as a unit with bound -0.99999
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--margin=-1"],
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--margin=nan"],
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--margin=inf"],
        # a negative cell width certified off-diagonality with a single cell
        ["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1", "--cell=-0.05"],
        ["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1", "--cell=inf"],
        ["demo", "no-largest-ideal", "--cell=-1"],
        # an infinite tolerance called nu^2 weak-null
        ["classify", "--seq=nu^2", "--tol=inf"],
        ["limit", "--seq=nu^2", "--tol=nan"],
        # 2e12 cells: the certificate's first grid would have allocated 14.6 TiB
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--cell=1e-12"],
        # each is refused where cli reads it, before the generators are sampled
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--margin=0"],
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--cell=0"],
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1", "--cell=nan"],
    ],
)
def test_out_of_range_parameters_are_refused(argv):
    code, report = cli.run(argv)
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert "finite and positive" in report["error"]["message"]
