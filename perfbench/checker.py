"""Report checker: sorts each operation into ok, indefinite, failed or wrong.

- failed: exit 1, an exception that escaped ``cli.run``, an exit code
  outside {0, 1, 2}, no report, or a report ``canonical_json`` rejects.
- indefinite: exit 2.  Honest, and never compared with the closed form,
  so inputs the program leaves undecided stay in the workload and show here.
- wrong: exit 0, and the report contradicts the answer the generator knows
  in closed form, or lacks the evidence a definite verdict must carry.
  Families with no closed-form answer are not compared.
- ok: everything else.

Tolerances are loose on purpose: a contradiction is a gross miss (a
divergence called convergence, a limit off by more than 1e-3 plus ten times
its own stated uncertainty), not a rounding difference.
"""

from __future__ import annotations

import json
import math

import closedform as cf

OK, INDEFINITE, FAILED, WRONG = "ok", "indefinite", "failed", "wrong"

LIMIT_SLACK = 1e-3
UNCERTAINTY_FACTOR = 10.0
EDGE_BAND = 0.1  # |u| within 1 +- this of a support edge: unresolved at finite index
VALUE_RTOL = 1e-9
ROUNDING_FACTOR = 1e3  # the rounding bound is first order; leave it room
# (nu, x) points where symbolic results are compared; inside every domain used
SAMPLE_POINTS = ((1, 0.3), (3, -0.55), (7, 0.8))


class Contradiction(Exception):
    """The report disagrees with the closed-form answer."""


def classify(case, code, text):
    """(status, reason) for one operation, from its exit code and stdout text."""
    if code == 1:
        return FAILED, "exit 1"
    if code not in (0, 2) or text is None:
        return FAILED, f"exit {code} without a report"
    if code == 2:
        return INDEFINITE, ""
    check = _CHECKS.get(case.expect.get("check"))
    if check is None:
        return OK, ""
    try:
        check(case.expect, json.loads(text))
    except Contradiction as err:
        return WRONG, str(err)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return WRONG, f"definite report without its evidence: {type(err).__name__}: {err}"
    return OK, ""


def _require(condition, message):
    if not condition:
        raise Contradiction(message)


# ---------------------------------------------------------------------------
# weak limits


def _member_expectation(expect, center, width):
    """('limit', value), ('diverges',) or None when unresolved at finite index."""
    family = expect["family"]
    if family == "null":
        return ("limit", 0.0)
    if family == "half":
        return ("limit", 0.5 * expect.get("scale", 1.0))
    if family == "smooth":
        return ("limit", cf.bump_pairing(center, width, expect["f"]))
    u = abs(expect["c"] - center) / width
    if abs(u - 1.0) < EDGE_BAND:
        return None
    if family == "impulse":
        return ("limit", expect["a"] * cf.bump_value(center, width, expect["c"]))
    return ("diverges",) if u < 1.0 else ("limit", 0.0)


EXPECTED_CLASS = {
    "null": "weak-null",
    "half": "convergent",
    "impulse": "convergent",
    "smooth": "convergent",
    "scaled-impulse": "divergent",
}


def _check_members(expect, domain, members):
    panel = cf.default_panel(*domain)
    _require(len(members) == len(panel), "panel size differs from the default panel")
    for member, (center, width) in zip(members, panel):
        _require(
            abs(member["center"] - center) <= 1e-9 and abs(member["width"] - width) <= 1e-9,
            f"panel member at {member['center']} is not a default-panel member",
        )
        expected = _member_expectation(expect, center, width)
        verdict = member["verdict"]
        if expected is None or verdict["kind"] == "inconclusive":
            continue
        where = f"member at {center:.4g}"
        if expected[0] == "diverges":
            _require(verdict["kind"] == "diverges", f"{where}: {verdict['kind']}, expected divergence")
            continue
        _require(verdict["kind"] == "converges-to", f"{where}: {verdict['kind']}, expected a limit")
        miss = abs(verdict["value"] - expected[1])
        allowed = LIMIT_SLACK * max(1.0, abs(expected[1])) + UNCERTAINTY_FACTOR * verdict["uncertainty"]
        _require(
            miss <= allowed,
            f"{where}: limit {verdict['value']:.6g}, expected {expected[1]:.6g}",
        )


def _check_panel(expect, report):
    stage = report["stages"][0]
    expected = EXPECTED_CLASS[expect["family"]]
    _require(
        stage["classification"] == expected,
        f"classification {stage['classification']}, expected {expected}",
    )
    _check_members(expect, expect["domain"], stage["per_test_function"])


def _check_nosquare(expect, report):
    base, square = report["stages"][0], report["stages"][1]
    _require(base["classification"] == "weak-null", "base sequence not weak-null")
    _require(square["classification"] == "convergent", "square not convergent")
    _check_members({"family": "null"}, expect["domain"], base["per_test_function"])
    _check_members({"family": "half"}, expect["domain"], square["per_test_function"])


def _check_branching(expect, report):
    stages = {stage["name"]: stage for stage in report["stages"]}
    for record in stages["classify-representatives"]["records"]:
        _require(record["classification"] == "weak-null", "representative not weak-null")
    records = stages["apply-operation"]["records"]
    _require(len(records) == len(expect["amps"]), "one record per representative expected")
    for amp, record in zip(expect["amps"], records):
        _require(record["classification"] == "convergent", "squared representative not convergent")
        # the square of amp*cos(...) pairs to amp^2/2 against a normalized bump
        square = {"family": "half", "scale": amp**2}
        _check_members(square, expect["domain"], record["per_test_function"])


def _check_delta_square(expect, report):
    stages = {stage["name"]: stage for stage in report["stages"]}
    verdict = stages["growth-exponent"]["verdict"]
    _require(verdict["kind"] == "diverges", "squared delta does not diverge")
    _require(abs(verdict["growth_exponent"] - 1.0) <= 0.1, "growth exponent is not 1")
    _require(stages["panel-classification"]["classification"] == "divergent", "panel not divergent")
    height = cf.bump_value(0.0, 1.0, 0.0)
    for row in stages["pairing-table"]["records"]:
        predicted = row["nu"] * height / 3.0
        _require(abs(row["expected"] - predicted) <= 1e-9 * predicted, "wrong first-order prediction")


# ---------------------------------------------------------------------------
# certificates


def _check_ideal(expect, report):
    stages = {stage["name"]: stage for stage in report["stages"]}
    generator = report["config"]["generators"][0]["tail"]
    offdiag = stages["off-diagonality"]["outcome"]
    _require(offdiag["verdict"] == expect["offdiag"], f"off-diagonality {offdiag['verdict']}, expected {expect['offdiag']}")
    if offdiag["verdict"] == "off-diagonal":
        _check_cells(generator, report["config"]["domain"], offdiag["certificate"])
    closure = stages["derivation-closure"]["outcome"]
    _require(closure["verdict"] == expect["closure"], f"closure {closure['verdict']}, expected {expect['closure']}")
    if closure["verdict"] == "not-closed":
        witness = closure["witness"]
        g = cf.value(generator, witness["x"], witness["nu"])
        dg = cf.derivative(generator, 1, witness["x"], witness["nu"])
        _require(abs(g) <= 1e-8 and abs(dg) > 1e-6, "not-closed witness does not separate g from g'")


def _check_cells(generator, domain, certificate):
    cells = certificate["cells"]
    _require(cells and cells[0]["lower"] <= domain[0] + 1e-9, "certificate does not start at the domain")
    _require(cells[-1]["upper"] >= domain[1] - 1e-9, "certificate does not reach the domain end")
    for previous, cell in zip(cells, cells[1:]):
        _require(abs(previous["upper"] - cell["lower"]) <= 1e-9, "certificate cells leave a gap")
    for cell in cells:
        _require(cell["lower"] <= cell["root"] <= cell["upper"], "certified root outside its cell")
        _require(abs(cf.value(generator, cell["root"], cell["nu"])) <= 1e-6, "certified root is not a root")


def _check_no_largest(expect, report):
    stages = {stage["name"]: stage for stage in report["stages"]}
    for name in ("off-diagonality-first", "off-diagonality-second"):
        _require(stages[name]["outcome"]["verdict"] == "off-diagonal", f"{name} not off-diagonal")
    unit = stages["unit-witness"]["outcome"]
    _require(unit.get("lower_bound", 0.0) > 0.0, "no unit witness in the ideal sum")


# ---------------------------------------------------------------------------
# symbolic


def _close(text, nu, x, expected, what):
    """The printed result, evaluated as written, agrees with the exact value.

    Points where either side is not finite in double precision are skipped:
    a symbolic identity cannot be judged there.
    """
    actual, error = cf.value_with_error(text, x, nu)
    if not (math.isfinite(actual) and math.isfinite(expected) and math.isfinite(error)):
        return
    allowed = ROUNDING_FACTOR * error + VALUE_RTOL * max(1.0, abs(expected))
    _require(abs(actual - expected) <= allowed, f"{what}: {actual!r} != {expected!r}")


def _check_gf_mul(expect, report):
    result = report["stages"][0]["result"]["tail"]
    for nu, x in SAMPLE_POINTS:
        expected = cf.value(expect["lhs"], x, nu) * cf.value(expect["rhs"], x, nu)
        _close(result, nu, x, expected, f"product at nu={nu}, x={x}")


def _check_gf_derive(expect, report):
    result = report["stages"][0]["result"]["tail"]
    for nu, x in SAMPLE_POINTS:
        expected = cf.derivative(expect["lhs"], expect["order"], x, nu)
        _close(result, nu, x, expected, f"derivative at nu={nu}, x={x}")


def _check_gf_equal(expect, report):
    verdict = report["stages"][0]["outcome"]["verdict"]
    wanted = "equal" if expect["equal"] else "not-equal"
    _require(verdict == wanted, f"{verdict}, expected {wanted}")


def _check_span(expect, report):
    status = report["stages"][0]["certificate"]["status"]
    if expect["dependent"]:
        _require(status != "trivial-intersection", "dependent bases certified independent")


_CHECKS = {
    "panel": _check_panel,
    "nosquare": _check_nosquare,
    "branching": _check_branching,
    "delta_square": _check_delta_square,
    "ideal": _check_ideal,
    "no_largest": _check_no_largest,
    "gf_mul": _check_gf_mul,
    "gf_derive": _check_gf_derive,
    "gf_equal": _check_gf_equal,
    "span": _check_span,
}
