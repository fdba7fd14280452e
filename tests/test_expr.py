import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchlab.expr as ex

from conftest import random_expression


def test_parse_precedence_and_shape():
    e = ex.parse("1 + 2*x^3")
    assert e == ex.Add(ex.Num(1.0), ex.Mul(ex.Num(2.0), ex.Pow(ex.x, 3)))

    e = ex.parse("cos(nu*x)^2")
    assert e == ex.Pow(ex.Call("cos", ex.Mul(ex.nu, ex.x)), 2)

    # unary minus binds tighter than +, looser than ^
    assert ex.parse("-x^2") == ex.Neg(ex.Pow(ex.x, 2))
    assert ex.parse("2 - -x") == ex.Sub(ex.Num(2.0), ex.Neg(ex.x))


def test_parse_number_formats():
    assert ex.parse("1.5e-3") == ex.Num(1.5e-3)
    assert ex.parse("2E6") == ex.Num(2e6)
    with pytest.raises(ex.ParseError):
        ex.parse(".5")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("(x", 2),
        ("sinh(x)", 0),
        ("1 + * 2", 4),
        ("x $ 2", 2),
    ],
)
def test_parse_errors_carry_position(text, offset):
    with pytest.raises(ex.ParseError) as info:
        ex.parse(text)
    assert info.value.position == offset
    assert f"(offset {offset})" in str(info.value)


def test_pi_is_a_constant():
    assert ex.evaluate(ex.parse("pi"), 1, 0.0) == pytest.approx(math.pi)
    assert "pi" not in ex.variables(ex.parse("pi + x"))
    assert ex.variables(ex.parse("cos(nu*x) + pi")) == frozenset({"x", "nu"})


_leaves = st.one_of(
    st.floats(min_value=-5, max_value=5, allow_nan=False).map(
        lambda v: ex.Num(round(v, 4))
    ),
    st.just(ex.x),
    st.just(ex.nu),
    st.just(ex.pi),
)


def _extend(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: ex.Add(*ab)),
        pair.map(lambda ab: ex.Sub(*ab)),
        pair.map(lambda ab: ex.Mul(*ab)),
        pair.map(lambda ab: ex.Div(*ab)),
        # the parser folds -literal into a negative literal, so mirror it
        children.map(
            lambda c: ex.Num(-c.value) if isinstance(c, ex.Num) else ex.Neg(c)
        ),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
            lambda p: ex.Pow(p[0], p[1])
        ),
        st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(
            lambda p: ex.Call(*p)
        ),
    )


expression_trees = st.recursive(_leaves, _extend, max_leaves=25)


@settings(max_examples=200)
@given(expression_trees)
def test_print_parse_round_trip(e):
    assert ex.parse(ex.to_string(e)) == e


@settings(max_examples=200, deadline=None)
@given(expression_trees)
def test_simplify_normal_form_round_trip(e):
    s = ex.simplify(e)
    assert ex.parse(ex.to_string(s)) == s
    assert ex.simplify(s) == s


def test_simplify_preserves_values(expression_corpus, rng):
    points = [rng.uniform(-2.0, 2.0) for _ in range(5)]
    for e in expression_corpus:
        s = ex.simplify(e)
        for x in points:
            v0 = ex.evaluate(e, 1, x)
            v1 = ex.evaluate(s, 1, x)
            assert abs(v0 - v1) <= 1e-8 * (1.0 + max(abs(v0), abs(v1)))


def test_simplify_collects_terms():
    assert ex.simplify(ex.parse("x + x")) == ex.parse("2*x")
    assert ex.simplify(ex.parse("x*x")) == ex.parse("x^2")
    assert ex.simplify(ex.parse("sin(x) - sin(x)")) == ex.Num(0.0)
    # products are never distributed, so cancellation is per collected term
    assert ex.is_zero(ex.simplify(ex.parse("2*sin(x) - sin(x) - sin(x)")))
    assert ex.is_zero(ex.simplify(ex.parse("(x+1)*(x-1) - (x-1)*(x+1)")))


def test_diff_known_forms():
    assert ex.to_string(ex.diff(ex.parse("sin(nu*x)"))) == "cos(nu*x)*nu"
    assert ex.to_string(ex.diff(ex.parse("tanh(nu*x)"))) == "nu/cosh(nu*x)^2"
    assert ex.to_string(ex.diff(ex.parse("cosh(x)"))) == "cosh(x)*tanh(x)"
    assert ex.diff(ex.parse("x"), 2) == ex.Num(0.0)
    with pytest.raises(ValueError):
        ex.diff(ex.x, -1)


def test_diff_of_step_representative_is_peak():
    # d/dx (1 + tanh(nu*x))/2 = nu / (2 cosh(nu*x)^2), exactly
    lhs = ex.diff(ex.parse("(1 + tanh(nu*x))/2"))
    rhs = ex.simplify(ex.parse("nu/(2*cosh(nu*x)^2)"))
    assert lhs == rhs


def test_diff_linearity(expression_corpus, rng):
    # coefficient rounding differs between derivation orders, so the check
    # is numeric, not structural
    for _ in range(40):
        f = rng.choice(expression_corpus)
        g = rng.choice(expression_corpus)
        a = round(rng.uniform(-3, 3), 3)
        b = round(rng.uniform(-3, 3), 3)
        combined = ex.Add(ex.Mul(ex.Num(a), f), ex.Mul(ex.Num(b), g))
        lhs = ex.diff(combined)
        rhs = ex.Add(ex.Mul(ex.Num(a), ex.diff(f)), ex.Mul(ex.Num(b), ex.diff(g)))
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0)
            assert abs(ex.evaluate(lhs, 1, x) - ex.evaluate(rhs, 1, x)) < 1e-10


def test_diff_leibniz(expression_corpus, rng):
    for _ in range(40):
        f = rng.choice(expression_corpus)
        g = rng.choice(expression_corpus)
        lhs = ex.diff(ex.Mul(f, g))
        rhs = ex.Add(ex.Mul(ex.diff(f), g), ex.Mul(f, ex.diff(g)))
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0)
            assert abs(ex.evaluate(lhs, 1, x) - ex.evaluate(rhs, 1, x)) < 1e-10


def test_diff_matches_central_difference(expression_corpus, rng):
    h = 1e-4
    for e in expression_corpus:
        d1 = ex.diff(e)
        d3 = ex.diff(e, 3)
        for _ in range(2):
            x = rng.uniform(-1.0, 1.0)
            fd = (ex.evaluate(e, 1, x + h) - ex.evaluate(e, 1, x - h)) / (2 * h)
            sym = ex.evaluate(d1, 1, x)
            third = abs(ex.evaluate(d3, 1, x))
            tol = max(1.0, third / 6.0) * 2.0 * h * h + 1e-9 * (1 + abs(sym))
            assert abs(fd - sym) <= tol


def test_substitute():
    e = ex.parse("cos(nu*x)")
    assert ex.substitute(e, "nu", ex.Num(3.0)) == ex.parse("cos(3*x)")
    assert ex.substitute(e, "missing", ex.Num(1.0)) == e


def test_evaluate_validates_index():
    with pytest.raises(ValueError):
        ex.evaluate(ex.x, 0, 1.0)
    with pytest.raises(ValueError):
        ex.evaluate(ex.x, 1.5, 1.0)


def test_evaluate_division_by_zero_raises():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("1/x"), 1, 0.0)


def test_evaluate_on_grid_flags_poles_without_raising():
    values = ex.evaluate_on_grid(ex.parse("1/x"), 1, np.array([0.0, 1.0, 2.0]))
    assert not np.isfinite(values[0])
    assert values[1] == pytest.approx(1.0)


def test_evaluate_on_grid_passes_index_only_poles_through():
    xs = np.array([-0.5, 0.0, 0.5])
    for text in ("1/(nu-1)", "(nu-1)^-1", "cos(x)/(nu-1)"):
        values = ex.evaluate_on_grid(ex.parse(text), 1, xs)
        assert values.shape == xs.shape
        assert not np.any(np.isfinite(values))
    assert np.all(np.isnan(ex.evaluate_on_grid(ex.parse("0/(nu-1)"), 1, xs)))
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("1/(nu-1)"), 1, 0.5)


def test_power_overflow_is_an_eval_error_or_passed_through():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("x^2"), 1, 1e300)
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("nu^200"), 4096, 0.0)
    values = ex.evaluate_on_grid(ex.parse("nu^200*cos(x)"), 4096, np.array([0.0, 0.5]))
    assert np.all(np.isposinf(values))


def test_domain_interval_validation():
    with pytest.raises(ValueError):
        ex.DomainInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        ex.DomainInterval(2.0, -2.0)
    with pytest.raises(ValueError):
        ex.DomainInterval(float("nan"), 1.0)
    grid = ex.DomainInterval(0.0, 1.0).interior_grid(11)
    assert len(grid) == 11
    assert 0.0 < grid[0] and grid[-1] < 1.0


def test_denominators_collects_quotients():
    e = ex.parse("1/(1+x^2) + x/(2+cos(x))")
    dens = ex.denominators(e)
    assert len(dens) == 2


def test_denominator_safety_safe():
    dom = ex.DomainInterval(-1.0, 1.0)
    report = ex.denominator_safety(ex.parse("1/(2+sin(nu*x))"), dom)
    assert report.status is ex.SafetyStatus.SAFE
    assert report.denominator_count == 1
    assert report.witness_x is None

    clean = ex.denominator_safety(ex.parse("x^2 + cos(nu*x)"), dom)
    assert clean.status is ex.SafetyStatus.SAFE
    assert clean.denominator_count == 0


def test_denominator_safety_unsafe_with_witness():
    dom = ex.DomainInterval(-1.0, 1.0)
    report = ex.denominator_safety(ex.parse("1/x"), dom)
    assert report.status is ex.SafetyStatus.UNSAFE
    assert abs(report.witness_x) < 1e-6
    assert abs(report.witness_value) < 1e-6

    wobbly = ex.denominator_safety(
        ex.parse("1/(1+sin(nu*x))"), ex.DomainInterval(0.0, 2 * math.pi)
    )
    assert wobbly.status is ex.SafetyStatus.UNSAFE

    x_free = ex.denominator_safety(ex.parse("1/(nu-3)"), dom)
    assert x_free.status is ex.SafetyStatus.UNSAFE
    assert x_free.witness_nu == 3
    assert type(x_free.witness_value) is float and x_free.witness_value == 0.0


def test_denominator_safety_overflow_is_inconclusive():
    dom = ex.DomainInterval(-1.0, 1.0)
    report = ex.denominator_safety(ex.parse("1/exp(800*x^2)"), dom)
    assert report.status is ex.SafetyStatus.INCONCLUSIVE


def test_random_corpus_round_trips(rng):
    for _ in range(100):
        e = random_expression(rng, depth=3, allow_nu=True)
        assert ex.parse(ex.to_string(e)) == e


def _random_powered_expression(rng):
    """A random tree wrapped with integer powers of x and nu and a negative power."""
    e = random_expression(rng, depth=3, allow_nu=True)
    k = rng.randint(1, 4)
    roll = rng.random()
    if roll < 0.3:
        return e * ex.Pow(ex.x, k) + ex.Pow(ex.nu, k)
    if roll < 0.6:
        return e / ex.Pow(ex.x - ex.Num(0.25), k) - ex.Pow(ex.nu, -k)
    return ex.Pow(e, -k) + ex.Pow(ex.x, k) * ex.Pow(ex.nu, k + 1)


def test_scalar_and_grid_evaluation_agree(rng):
    xs = np.array([-2.5, -1.0, -0.3, 0.0, 0.25, 0.7, 1.9])
    for _ in range(200):
        e = _random_powered_expression(rng)
        for index in (1, 3, 7):
            grid = ex.evaluate_on_grid(e, index, xs)
            for point, expected in zip(xs, grid):
                if not math.isfinite(expected):
                    with pytest.raises(ex.EvalError):
                        ex.evaluate(e, index, point)
                    continue
                try:
                    value = ex.evaluate(e, index, point)
                except ex.EvalError:
                    continue  # a pole the grid smooths over, e.g. tanh(1/0) = 1
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "text, index, point",
    [
        ("1/x", 1, 0.0),
        ("x^-1", 1, 0.0),
        ("tanh(1/x)", 1, 0.0),
        ("exp(-1/x^2)", 1, 0.0),
        ("1/(nu-1)", 1, 0.5),
        ("(nu-1)^-1", 1, 0.5),
    ],
)
def test_scalar_poles_raise(text, index, point):
    with pytest.raises(ex.EvalError, match="division by zero"):
        ex.evaluate(ex.parse(text), index, point)


def test_deep_left_sum_evaluates_on_both_paths():
    e = ex.x
    for _ in range(899):
        e = ex.Add(e, ex.x)
    assert ex.evaluate(e, 1, 0.5) == 450.0
    assert ex.evaluate_on_grid(e, 1, np.array([0.5, 1.0])).tolist() == [450.0, 900.0]


def test_each_root_is_compiled_once(monkeypatch):
    original = ex._compile
    compiled = []

    def counted(node):
        compiled.append(node)
        return original(node)

    monkeypatch.setattr(ex, "_compile", counted)
    e = ex.parse("cos(nu*x)/(2 + x^2)")
    ex.evaluate(e, 3, 0.5)
    first = len(compiled)
    for _ in range(1000):
        ex.evaluate(e, 3, 0.5)
        ex.evaluate_on_grid(e, 3, np.array([0.5]))
    assert len(compiled) == first


def test_probe_returns_what_evaluate_returns(rng):
    compared = 0
    for _ in range(200):
        e = random_expression(rng, depth=3, allow_nu=True)
        index = rng.randint(1, 40)
        points = [rng.uniform(-3.0, 3.0) for _ in range(8)]
        with ex._probe(e, index) as probe:
            for point in points:
                assert probe(point) == ex.evaluate(e, index, point)
                compared += 1
    assert compared == 1600


@pytest.mark.parametrize(
    "text, index, point",
    [
        ("1/x", 1, 0.0),
        ("x^-1", 1, 0.0),
        ("tanh(1/x)", 1, 0.0),
        ("exp(-1/x^2)", 1, 0.0),
        ("1/(nu-1)", 1, 0.5),
        ("(nu-1)^-1", 1, 0.5),
    ],
)
def test_probe_poles_raise_like_evaluate(text, index, point):
    e = ex.parse(text)
    with pytest.raises(ex.EvalError) as expected:
        ex.evaluate(e, index, point)
    with ex._probe(e, index) as probe:
        with pytest.raises(ex.EvalError) as raised:
            probe(point)
    assert str(raised.value) == str(expected.value)


def test_probe_restores_the_error_state():
    before = np.geterr()
    with ex._probe(ex.parse("1/x"), 1) as probe:
        assert probe(2.0) == 0.5
    assert np.geterr() == before
    with pytest.raises(ex.EvalError):
        with ex._probe(ex.parse("1/x"), 1) as probe:
            probe(0.0)
    assert np.geterr() == before
    with pytest.raises(ex.EvalError, match="index"):
        with ex._probe(ex.x, 0):
            pass
    assert np.geterr() == before
