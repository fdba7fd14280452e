"""Known wrong outcomes, one strict expected failure each, named by its ROADMAP item.

Each case asserts the right outcome of one repro that still ends wrong.  The
mark is strict, so the fix that flips a case fails this file until the same
change removes its mark.  Repros whose run costs seconds or gigabytes (items
8 and 11) come with their fixes, under a resource cap.
"""

import pytest

from branchlab import cli

TRIG_DOMAIN = "--domain=0,6.283185307179586"


def known_defect(item, reason):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {reason}")


def _stage(report, name):
    (entry,) = (entry for entry in report["stages"] if entry["name"] == name)
    return entry


@known_defect(2, "the unit bound is sampled at indices up to 16 only")
def test_a_unit_candidate_with_late_zeros_is_no_unit():
    code, report = cli.run(["ideal", "check", "--generators=1-nu*x^2/100", "--domain=-1,1"])
    assert code != 1
    assert _stage(report, "off-diagonality")["outcome"]["verdict"] != "contains-unit"


@known_defect(2, "denominator safety samples indices up to 64 only")
def test_a_late_index_pole_is_not_denominator_safe():
    code, _ = cli.run(["gf", "mul", "--lhs=1/(x^2+1/nu^3-1e-7)", "--rhs=1"])
    assert code != 0


@known_defect(3, "the quadrature step takes the index as the frequency")
def test_a_chirp_has_weak_limit_zero():
    code, report = cli.run([
        "limit", "--seq=cos(nu^2*x)", TRIG_DOMAIN,
        "--panel=[[3.14159265358979,3.14159265358979]]",
        "--schedule=16,32,64,128,256,512,1024",
    ])
    assert code != 1
    for member in report["stages"][0]["per_test_function"]:
        verdict = member["verdict"]
        assert verdict["kind"] != "converges-to" or abs(verdict["value"]) < 1e-2


@known_defect(3, "step halving is no honest error estimate")
@pytest.mark.parametrize(
    "seq, classification",
    [("nu/(2*cosh(nu*x)^2)", "convergent"), ("cos(8*nu*x)", "weak-null")],
)
def test_a_sweep_classifies_by_its_limit(seq, classification):
    code, report = cli.run(["classify", f"--seq={seq}"])
    assert code == 0
    assert report["stages"][0]["classification"] == classification


@known_defect(3, "a non-finite sample ends the command instead of a verdict")
def test_an_overflowing_sequence_ends_in_a_verdict():
    code, _ = cli.run(["limit", "--seq=exp(nu*x)"])
    assert code in (0, 2)


@known_defect(4, "a tail whose normal form is not literally 0 is called not-equal")
@pytest.mark.parametrize(
    "lhs, rhs",
    [
        ("2*(x+1)", "2*x+2"),
        ("x*(x+1)", "x^2+x"),
        ("(x+1)^2", "x^2+2*x+1"),
        ("(x+nu)^2", "x^2+2*nu*x+nu^2"),
        ("exp(x)*exp(x)", "exp(2*x)"),
        ("sin(nu*x)^2", "(1-cos(2*nu*x))/2"),
        ("sin(pi*nu)*x", "0"),
        ("0.1*x+0.2*x", "0.3*x"),
        ("x/49*49", "x"),
    ],
)
def test_an_identity_is_never_not_equal(lhs, rhs):
    code, report = cli.run(["gf", "equal", f"--lhs={lhs}", f"--rhs={rhs}"])
    assert code != 1
    assert _stage(report, "gf-equal")["outcome"]["verdict"] != "not-equal"


@known_defect(14, "only gf checks that an operand is smooth on the domain")
@pytest.mark.parametrize(
    "argv",
    [
        ["span", "independence", "--first=1/x", "--second=1"],
        ["span", "independence", "--first=tanh(1/x)", "--second=1", "--x-count=17"],
    ],
)
def test_a_singular_basis_certifies_nothing(argv):
    code, _ = cli.run(argv)
    assert code != 0


@known_defect(14, "only gf checks that an operand is smooth on the domain")
def test_a_singular_entry_is_refused_before_quadrature():
    code, report = cli.run(["limit", "--seq=1/(nu-1)"])
    assert code != 1 or report["error"]["type"] != "IntegrationError"
