import copy
import gc
import math
import operator
import pickle
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchlab.expr as ex

from conftest import (
    SAFETY_LATTICE, free_variables, quotient, random_expression, refine_min_abs, value_at
)

# (text, index, point): expressions with a pole at that index and point
POLES = [
    ("1/x", 1, 0.0),
    ("x^-1", 1, 0.0),
    ("tanh(1/x)", 1, 0.0),
    ("exp(-1/x^2)", 1, 0.0),
    ("1/(nu-1)", 1, 0.5),
    ("(nu-1)^-1", 1, 0.5),
]


def test_parse_precedence_and_shape():
    e = ex.parse("1 + 2*x^3")
    assert e == ex.Num(1.0) + ex.Num(2.0) * ex.Pow(ex.x, 3)

    e = ex.parse("cos(nu*x)^2")
    assert e == ex.Pow(ex.Call("cos", ex.nu * ex.x), 2)

    # unary minus binds tighter than +, looser than ^
    assert ex.parse("-x^2") == ex.Neg(ex.Pow(ex.x, 2))
    assert ex.parse("2 - -x") == ex.Num(2.0) - ex.Neg(ex.x)


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


@pytest.mark.parametrize("opening, levels", [("(", 1), ("sin(", 1), ("-(", 2)])
def test_parse_nesting_limit(opening, levels):
    """Nesting up to MAX_NESTING parses; one level more is a ParseError."""
    repeats = ex.MAX_NESTING // levels
    ex.parse(opening * repeats + "x" + ")" * repeats)
    with pytest.raises(ex.ParseError, match="nesting deeper than") as info:
        ex.parse(opening * (repeats + 1) + "x" + ")" * (repeats + 1))
    # the offset is where the first level past the limit opens
    assert info.value.position == len(opening) * repeats


def test_pi_is_a_constant():
    assert value_at(ex.parse("pi"), 1, 0.0) == pytest.approx(math.pi)
    assert free_variables(ex.parse("pi + x")) == {"x"}
    assert free_variables(ex.parse("cos(nu*x) + pi")) == {"x", "nu"}


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
        pair.map(lambda ab: ab[0] + ab[1]),
        pair.map(lambda ab: ab[0] - ab[1]),
        pair.map(lambda ab: ab[0] * ab[1]),
        pair.map(lambda ab: quotient(*ab)),
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
            v0 = value_at(e, 1, x)
            v1 = value_at(s, 1, x)
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
        combined = ex.Num(a) * f + ex.Num(b) * g
        lhs = ex.diff(combined)
        rhs = ex.Num(a) * ex.diff(f) + ex.Num(b) * ex.diff(g)
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0)
            assert abs(value_at(lhs, 1, x) - value_at(rhs, 1, x)) < 1e-10


def test_diff_leibniz(expression_corpus, rng):
    for _ in range(40):
        f = rng.choice(expression_corpus)
        g = rng.choice(expression_corpus)
        lhs = ex.diff(f * g)
        rhs = ex.diff(f) * g + f * ex.diff(g)
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0)
            assert abs(value_at(lhs, 1, x) - value_at(rhs, 1, x)) < 1e-10


def test_diff_matches_central_difference(expression_corpus, rng):
    h = 1e-4
    for e in expression_corpus:
        d1 = ex.diff(e)
        d3 = ex.diff(e, 3)
        for _ in range(2):
            x = rng.uniform(-1.0, 1.0)
            fd = (value_at(e, 1, x + h) - value_at(e, 1, x - h)) / (2 * h)
            sym = value_at(d1, 1, x)
            third = abs(value_at(d3, 1, x))
            tol = max(1.0, third / 6.0) * 2.0 * h * h + 1e-9 * (1 + abs(sym))
            assert abs(fd - sym) <= tol


def _seeded(left, op, right):
    """left op right, holding the term map one fold step makes from left's and right's."""
    node = ex._chain(left, op, right)
    if getattr(node, "_term_map", None) is None:
        object.__setattr__(node, "_term_map", ex._step_terms(ex._terms(left), op, ex._terms(right)))
    return node


def _reference_d(e):
    """The derivative rules on nodes, without a memo: every occurrence is differentiated again."""
    match e:
        case ex.Num() | ex.Pi():
            return ex.Num(0.0)
        case ex.Var(name):
            return ex.Num(1.0) if name == "x" else ex.Num(0.0)
        case ex.Neg(a):
            return ex.Neg(_reference_d(a))
        case ex.Add(parts):
            return ex._flat([(op, _reference_d(node)) for op, node in parts])
        case ex.Mul(((_, prefix), *rest)):
            dprefix = _reference_d(prefix)
            for k, (op, node) in enumerate(rest):
                if k:
                    prefix = _seeded(prefix, *rest[k - 1])
                lead = _seeded(prefix, "*", _reference_d(node))
                dprefix = _seeded(dprefix, "*", node)
                if op == "*":
                    dprefix = _seeded(dprefix, "+", lead)
                else:
                    dprefix = _seeded(_seeded(dprefix, "-", lead), "/", node**2)
            return dprefix
        case ex.Pow(b, k):
            if k == 0:
                return ex.Num(0.0)
            return ex.Num(float(k)) * ex.Pow(b, k - 1) * _reference_d(b)
        case ex.Call(fn, a):
            da = _reference_d(a)
            if fn == "sin":
                outer = ex.Call("cos", a)
            elif fn == "cos":
                outer = ex.Neg(ex.Call("sin", a))
            elif fn == "exp":
                outer = ex.Call("exp", a)
            elif fn == "tanh":
                outer = ex.Pow(ex.Call("cosh", a), -2)
            else:
                outer = ex.Call("tanh", a) * ex.Call("cosh", a)
            return outer * da
    raise TypeError(f"not an expression node: {e!r}")


def test_memoized_diff_matches_the_rules_without_a_memo(rng):
    trees = [random_expression(rng, depth=3, allow_nu=True) for _ in range(300)]
    # and trees whose subexpressions repeat, so the memo is read
    for e in trees[:20]:
        trees.append(e * ex.Call("cos", e) - quotient(e**2, ex.Num(2.0) + ex.Call("sin", e)))
    for e in trees:
        expected = e
        for order in (1, 2, 3):
            expected = ex.simplify(_reference_d(expected))
            got = ex.diff(e, order)
            assert got == expected
            assert ex.to_string(got) == ex.to_string(expected)


def _nodes(e):
    """Every node of e's tree, e first; a subtree that occurs twice is listed twice."""
    nodes, stack = [], [e]
    while stack:
        node = stack.pop()
        nodes.append(node)
        match node:
            case ex.Add(parts) | ex.Mul(parts):
                stack.extend(part for _, part in parts)
            case ex.Neg(child) | ex.Pow(child, _) | ex.Call(_, child):
                stack.append(child)
    return nodes


def _record_rule_applications(monkeypatch):
    """Patch ex._d to list each node a rule is applied to, and each memo with its first size."""
    applied, memos = [], []
    original = ex._d

    def recorded(e, memo):
        if all(seen is not memo for seen, _ in memos):
            memos.append((memo, len(memo)))
        if e not in memo:
            applied.append(e)
        return original(e, memo)

    monkeypatch.setattr(ex, "_d", recorded)
    return applied, memos


REPEATS = "cos(2*x)*exp(x^2)*cos(2*x) + cos(2*x)^3 - sin(x^2)*cos(2*x)/(1 + cos(2*x))"


def test_diff_applies_one_rule_per_distinct_subexpression(monkeypatch):
    e = ex.parse(REPEATS)
    # the trees diff(e, 3) differentiates, one per order
    trees = [e, ex.diff(e), ex.diff(e, 2)]
    occurrences = [node for tree in trees for node in _nodes(tree)]
    applied, memos = _record_rule_applications(monkeypatch)
    ex.diff(e, 3)
    assert len(memos) == 1
    assert len(applied) == len(set(applied)) == len(set(occurrences))
    assert set(applied) == set(occurrences)
    assert 2 * len(applied) < len(occurrences)


def test_successive_diff_calls_share_no_state(monkeypatch):
    e = ex.parse(REPEATS)
    applied, memos = _record_rule_applications(monkeypatch)
    first = ex.diff(e, 2)
    once = len(applied)
    second = ex.diff(e, 2)
    assert second == first
    # a new, empty memo per call, and every rule applied again
    assert len(memos) == 2 and memos[0][0] is not memos[1][0]
    assert [size for _, size in memos] == [0, 0]
    assert len(applied) == 2 * once


def _reference_format_number(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def test_infinite_coefficients_print_as_a_literal_that_reads_back(rng):
    assert ex.format_number(math.inf) == "1e999"
    assert ex.format_number(-math.inf) == "-1e999"
    for text in ("1e200*x*1e200*x", "-1e200*x*(1e200*x)", "x/1e-200/1e-200 + 1", "1e999 - x"):
        e = ex.simplify(ex.parse(text))
        assert ex.parse(ex.to_string(e)) == e
    assert ex.to_string(ex.simplify(ex.parse("1e200*x*1e200*x"))) == "1e999*x^2"
    # finite numbers print as they always did
    finite = [0.0, -0.0, 1.0, -3.0, 0.5, 1e15, 1e16 - 2, 1e16, 2.0**53 + 2, 1e-300, 5e-324]
    finite += [1.7976931348623157e308, -1.7976931348623157e308]
    finite += [round(rng.uniform(-1e6, 1e6), rng.randint(0, 6)) for _ in range(200)]
    for v in finite:
        assert ex.format_number(v) == _reference_format_number(v)


def test_substitute():
    e = ex.parse("cos(nu*x)")
    assert ex.substitute(e, "nu", ex.Num(3.0)) == ex.parse("cos(3*x)")
    assert ex.substitute(e, "missing", ex.Num(1.0)) == e


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


def test_power_overflow_is_an_eval_error_or_passed_through():
    assert value_at(ex.parse("x^2"), 1, 1e300) == math.inf
    assert value_at(ex.parse("nu^200"), 4096, 0.0) == math.inf
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
    report = ex.denominator_safety(ex.parse("1/(2+sin(nu*x))"), dom, SAFETY_LATTICE)
    assert report.status is ex.SafetyStatus.SAFE
    assert report.denominator_count == 1
    assert report.witness_x is None

    clean = ex.denominator_safety(ex.parse("x^2 + cos(nu*x)"), dom, SAFETY_LATTICE)
    assert clean.status is ex.SafetyStatus.SAFE
    assert clean.denominator_count == 0


def test_denominator_safety_unsafe_with_witness():
    dom = ex.DomainInterval(-1.0, 1.0)
    report = ex.denominator_safety(ex.parse("1/x"), dom, SAFETY_LATTICE)
    assert report.status is ex.SafetyStatus.UNSAFE
    assert abs(report.witness_x) < 1e-6
    assert abs(report.witness_value) < 1e-6

    wobbly = ex.denominator_safety(
        ex.parse("1/(1+sin(nu*x))"), ex.DomainInterval(0.0, 2 * math.pi), SAFETY_LATTICE
    )
    assert wobbly.status is ex.SafetyStatus.UNSAFE

    x_free = ex.denominator_safety(ex.parse("1/(nu-3)"), dom, SAFETY_LATTICE)
    assert x_free.status is ex.SafetyStatus.UNSAFE
    assert x_free.witness_nu == 3
    assert type(x_free.witness_value) is float and x_free.witness_value == 0.0


def test_denominator_safety_overflow_is_inconclusive():
    dom = ex.DomainInterval(-1.0, 1.0)
    report = ex.denominator_safety(ex.parse("1/exp(800*x^2)"), dom, SAFETY_LATTICE)
    assert report.status is ex.SafetyStatus.INCONCLUSIVE


def _enclosed_values(e, box, rng):
    """e's compiled values at dense lattice points of the box and at lane points in it."""
    nu_lo, nu_hi, x_lo, x_hi = box
    nus = np.arange(nu_lo, nu_hi + 1.0)
    xs = np.linspace(x_lo, x_hi, 257)
    with np.errstate(all="ignore"):
        lattice = np.broadcast_to(ex._compiled(e)(nus[:, None], xs), (len(nus), len(xs)))
        lanes = 64
        lane_nus = np.array([float(rng.randint(int(nu_lo), int(nu_hi))) for _ in range(lanes)])
        points = np.array([x_lo, x_hi] + [rng.uniform(x_lo, x_hi) for _ in range(lanes - 2)])
        on_lanes = ex._on_lanes((e,), np.zeros(lanes, int), lane_nus)(points)
    return np.concatenate([lattice.ravel(), on_lanes])


def _random_box(rng):
    nu_lo = rng.randint(1, 64)
    nu_hi = nu_lo if rng.random() < 0.3 else rng.randint(nu_lo, 64)
    x_lo = round(rng.uniform(-math.pi, math.pi), 3)
    x_hi = x_lo if rng.random() < 0.3 else round(rng.uniform(x_lo, math.pi), 3)
    return float(nu_lo), float(nu_hi), x_lo, x_hi


def test_every_finite_enclosure_holds_the_compiled_values(rng):
    proved = 0
    for _ in range(150):
        a = random_expression(rng, depth=3, allow_nu=True)
        b = random_expression(rng, depth=2, allow_nu=True)
        for e in (a, quotient(a, b), ex.Pow(b, -rng.choice((1, 2, 3)))):
            box = _random_box(rng)
            lo, hi = ex._enclose(e, box)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                continue
            proved += 1
            values = _enclosed_values(e, box, rng)
            assert np.all((lo <= values) & (values <= hi)), (ex.to_string(e), box)
    assert proved > 200


@pytest.mark.parametrize(
    "text, box",
    [
        ("cosh(nu*x)^2", (1.0, 64.0, -1.0, 1.0)),
        ("2+cos(nu*x)", (1.0, 64.0, -1.0, 1.0)),
        ("2+tanh(x)", (1.0, 64.0, -3.0, 3.0)),
        ("(nu-1.738)^3", (2.0, 64.0, -1.0, 1.0)),
        ("(nu-1.738)^3", (1.0, 1.0, -1.0, 1.0)),
    ],
)
def test_an_enclosure_away_from_zero_proves_a_denominator(rng, text, box):
    e = ex.parse(text)
    lo, hi = ex._enclose(e, box)
    assert lo > ex.SAFETY_MARGIN or hi < -ex.SAFETY_MARGIN
    values = _enclosed_values(e, box, rng)
    assert np.all((lo <= values) & (values <= hi))


@pytest.mark.parametrize(
    "text, box",
    [
        ("1/cosh(800*x)", (1.0, 64.0, -1.0, 1.0)),  # cosh(800) overflows
        ("x", (1.0, 64.0, -1.0, 1.0)),
        ("1-x+x^2", (1.0, 64.0, -2.0, 2.0)),  # spans [-1, 7], least value 0.75
        ("(nu-1.738)^3", (1.0, 64.0, -1.0, 1.0)),  # no integer index is a root
    ],
)
def test_an_enclosure_near_zero_proves_nothing(text, box):
    lo, hi = ex._enclose(ex.parse(text), box)
    assert not (lo > ex.SAFETY_MARGIN or hi < -ex.SAFETY_MARGIN)


def test_denominators_the_enclosure_cannot_prove_are_still_sampled():
    # the two quotients of the named non-proofs that sampling finds safe
    for text, domain in (("1/(1-x+x^2)", (-2.0, 2.0)), ("1/(nu-1.738)^3", (-1.0, 1.0))):
        report = ex.denominator_safety(ex.parse(text), ex.DomainInterval(*domain), SAFETY_LATTICE)
        assert report.status is ex.SafetyStatus.SAFE


def _per_index_safety(e, domain):
    """denominator_safety as one grid row and one scalar refinement per index."""
    dens = ex.denominators(e)
    verdict = partial(ex.DenominatorSafety, margin=ex.SAFETY_MARGIN, denominator_count=len(dens))
    unsafe, inconclusive = ex.SafetyStatus.UNSAFE, ex.SafetyStatus.INCONCLUSIVE
    xs = domain.interior_grid(ex.SAFETY_X_SAMPLES)
    last = len(xs) - 1
    for den in dens:
        closure = ex._compiled(den)
        for index in range(1, ex.SAFETY_NU_SAMPLES + 1):
            values = ex.evaluate_on_grid(den, index, xs)
            if not np.all(np.isfinite(values)):
                bad = int(np.argmax(~np.isfinite(values)))
                return verdict(inconclusive, witness_nu=index, witness_x=float(xs[bad]))
            k = int(np.argmin(np.abs(values)))
            nu = np.float64(index)

            def f(point):
                return closure(nu, np.array([point])).item()

            with np.errstate(all="ignore"):
                point, value = refine_min_abs(f, float(xs[max(k - 1, 0)]), float(xs[min(k + 1, last)]))
                if not math.isfinite(value):
                    return verdict(inconclusive, witness_nu=index, witness_x=point)
                if value < ex.SAFETY_MARGIN:
                    return verdict(unsafe, witness_nu=index, witness_x=point, witness_value=f(point))
    return verdict(ex.SafetyStatus.SAFE)


def test_denominator_safety_matches_the_per_index_search(rng):
    dom = ex.DomainInterval(-1.0, 1.0)
    one = ex.Num(1.0)
    cases = [quotient(one, random_expression(rng, depth=3, allow_nu=True)) for _ in range(60)]
    cases += [ex.parse(text) for text, _, _ in POLES]
    cases += [ex.parse("1/(nu-3)"), ex.parse("1/exp(800*x^2)"), ex.parse("1/(2+sin(nu*x))")]
    statuses = set()
    for e in cases:
        report = ex.denominator_safety(e, dom, SAFETY_LATTICE)
        assert report == _per_index_safety(e, dom), ex.to_string(e)
        statuses.add(report.status)
    assert statuses == set(ex.SafetyStatus)


def test_denominator_safety_reports_the_first_failing_index():
    dom = ex.DomainInterval(-1.0, 1.0)
    # touches zero at index 5 and is infinite at index 9: index 5 is unsafe
    unsafe_first = ex.parse("1/((x^2 + (nu-5)^2)/(nu-9))")
    report = ex.denominator_safety(unsafe_first, dom, SAFETY_LATTICE)
    assert report.status is ex.SafetyStatus.UNSAFE and report.witness_nu == 5
    assert report == _per_index_safety(unsafe_first, dom)
    # the other way round the row of index 5 is not finite, before any
    # unsafe index, and the grid point that failed is the witness
    blind_first = ex.parse("1/((x^2 + (nu-9)^2)/(nu-5))")
    report = ex.denominator_safety(blind_first, dom, SAFETY_LATTICE)
    assert report.status is ex.SafetyStatus.INCONCLUSIVE and report.witness_nu == 5
    assert report.witness_x == float(dom.interior_grid(ex.SAFETY_X_SAMPLES)[0])
    assert report == _per_index_safety(blind_first, dom)


def test_random_corpus_round_trips(rng):
    for _ in range(100):
        e = random_expression(rng, depth=3, allow_nu=True)
        assert ex.parse(ex.to_string(e)) == e


def _normal_forms(e):
    """Every cached-path result on e: normal form, derivatives, splits, text."""
    return (
        ex.simplify(e),
        *(ex.diff(e, k) for k in (1, 2, 3)),
        ex._terms(e),
        ex._atomic_sum(ex._terms(e)),
        ex.to_string(e),
    )


def test_node_caches_agree_with_fresh_nodes(rng):
    for _ in range(100):
        state = rng.getstate()
        e = random_expression(rng, depth=3, allow_nu=True)
        rng.setstate(state)
        twin = random_expression(rng, depth=3, allow_nu=True)
        assert twin == e and twin is e
        assert hash(twin) == hash(e)
        text = ex.to_string(twin)
        fresh = _normal_forms(ex.parse(text))
        # twice over, interleaved with hashing: a later call must not see
        # a term map an earlier one mutated
        for _ in range(2):
            for k, result in enumerate(_normal_forms(e)):
                assert hash(e) == hash(twin)
                assert result == fresh[k]
        assert ex.to_string(e) == text
        # a copy rebuilds through the constructor, so it is the interned node
        copied = pickle.loads(pickle.dumps(e))
        assert copied == e and hash(copied) == hash(e)
        assert _normal_forms(copied)[0] == fresh[0]


def _random_powered_expression(rng):
    """A random tree wrapped with integer powers of x and nu and a negative power."""
    e = random_expression(rng, depth=3, allow_nu=True)
    k = rng.randint(1, 4)
    roll = rng.random()
    if roll < 0.3:
        return e * ex.Pow(ex.x, k) + ex.Pow(ex.nu, k)
    if roll < 0.6:
        return quotient(e, ex.Pow(ex.x - ex.Num(0.25), k)) - ex.Pow(ex.nu, -k)
    return ex.Pow(e, -k) + ex.Pow(ex.x, k) * ex.Pow(ex.nu, k + 1)


def test_lane_and_grid_evaluation_agree(rng):
    xs = np.array([-2.5, -1.0, -0.3, 0.0, 0.25, 0.7, 1.9])
    for _ in range(200):
        e = _random_powered_expression(rng)
        for index in (1, 3, 7):
            grid = ex.evaluate_on_grid(e, index, xs)
            f = ex._on_lanes((e,), np.zeros(len(xs), int), np.full(len(xs), float(index)))
            with np.errstate(all="ignore"):
                lanes = f(xs)
            assert np.array_equal(np.isfinite(lanes), np.isfinite(grid))
            # an x-free power of the index may differ in the last bit
            finite = np.isfinite(grid)
            assert lanes[finite] == pytest.approx(grid[finite], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text, index, point", POLES)
def test_scalar_poles_raise(text, index, point):
    # a pole is a point the definedness rule refuses, even where the value is
    # finite: tanh(1/0) = tanh(inf) = 1 and exp(-1/0^2) = 0
    (value,) = ex._defined_values(ex.parse(text), index, np.array([point]))
    assert np.isnan(value)


def test_deep_left_sum_evaluates_on_both_paths():
    e = ex.x
    for _ in range(899):
        e = e + ex.x
    xs = np.array([0.5, 1.0])
    assert ex.evaluate_on_grid(e, 1, xs).tolist() == [450.0, 900.0]
    assert ex._on_lanes((e,), np.zeros(2, int), np.ones(2))(xs).tolist() == [450.0, 900.0]
    # the normal form, the derivative and the printer each fold over one flat node
    assert ex.simplify(e) == ex.Num(900.0) * ex.x
    assert ex.diff(e) == ex.Num(900.0)
    assert ex.to_string(e) == " + ".join(["x"] * 900)


def _depth(e):
    """Levels of e's tree, counted with a stack rather than by recursion."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        match node:
            case ex.Add(parts) | ex.Mul(parts):
                stack.extend((part, level + 1) for _, part in parts)
            case ex.Neg(child) | ex.Pow(child, _) | ex.Call(_, child):
                stack.append((child, level + 1))
    return deepest


# tree levels one nesting level of text may add: a sum, a product, and a
# power, negation or call around the next level, with room to spare for the
# negated leading terms and atomic sums of normal forms
LEVELS_PER_NESTING = 6


@st.composite
def chained_texts(draw):
    """(nesting, text): chains of up to 2000 operands, nested at most `nesting` deep.

    One chain, at a drawn level, is long; the others have one to three
    operands.  Each nested operand opens one level: parentheses, possibly
    powered or negated, or a call.  `nesting` counts these wrappers; the
    parser counts a negated group as two levels, so its count is never lower.
    """
    nesting = draw(st.integers(min_value=0, max_value=6))
    long_level = draw(st.integers(min_value=0, max_value=nesting))
    long_length = [draw(st.integers(min_value=1, max_value=2000))]
    rng = draw(st.randoms(use_true_random=False))

    def chain(level):
        length = rng.randint(1, 3)
        if level == long_level and long_length:
            length = long_length.pop()
        ops = rng.choice(("+-", "*/", "+-*/"))
        text = operand(level)
        for _ in range(length - 1):
            text += rng.choice(ops) + operand(level)
        return text

    def operand(level):
        # nest on the way to the long chain's level until it is placed
        toward_long = level < long_level and long_length
        if level == nesting or not (toward_long or rng.random() < 0.4):
            return rng.choice(("x", "nu", "pi", "2", "0.5", "x^2", "nu^-1"))
        wrapper = rng.choice(("({})", "({})^2", "({})^-1", "-({})", "cos({})", "exp({})"))
        return wrapper.format(chain(level + 1))

    return nesting, chain(0)


@settings(max_examples=40, deadline=None)
@given(chained_texts())
def test_tree_depth_follows_nesting_not_chain_length(case):
    nesting, text = case
    e = ex.parse(text)
    bound = LEVELS_PER_NESTING * (nesting + 1)
    assert _depth(e) <= bound
    assert _depth(ex.simplify(e)) <= bound


def test_deep_atomic_base_hashes_without_recursing():
    # the rebuilt 599-term sum becomes a factor key, and its first hash must
    # not recurse through every term
    text = "(" + "+".join(f"x^{k}" for k in range(1, 600)) + ")*sin(x)"
    result = ex.simplify(ex.parse(text))
    assert isinstance(result, ex.Mul) and result.factors[0][1] == ex.Call("sin", ex.x)
    assert ex.to_string(result).endswith(" + x^598 + x^599)")


def test_each_root_is_compiled_once(monkeypatch):
    original = ex._compile
    compiled = []

    def counted(node):
        compiled.append(node)
        return original(node)

    monkeypatch.setattr(ex, "_compile", counted)
    e = ex.parse("cos(nu*x)/(2 + x^2)")
    value_at(e, 3, 0.5)
    first = len(compiled)
    for _ in range(1000):
        value_at(e, 3, 0.5)
        ex.evaluate_on_grid(e, 3, np.array([0.5, 0.7]))
    assert len(compiled) == first

    # a node keeps its closure however many other roots compile meanwhile
    for k in range(100):
        value_at(ex.parse(f"x + {k}"), 1, 0.5)
    compiled.clear()
    value_at(e, 3, 0.5)
    assert compiled == []


_REFERENCE_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _reference_compile(e):
    """Node-by-node reference compiler: one closure per node, one left fold per flat node."""
    match e:
        case ex.Num() | ex.Pi():
            c = np.float64(math.pi if isinstance(e, ex.Pi) else e.value)
            return lambda nu, x: c
        case ex.Var("x"):
            return lambda nu, x: x
        case ex.Var("nu"):
            return lambda nu, x: nu
        case ex.Var():
            raise ex.EvalError("operation placeholder 'u' is unbound at evaluation")
        case ex.Neg(a):
            fa = _reference_compile(a)
            return lambda nu, x: -fa(nu, x)
        case ex.Add(parts) | ex.Mul(parts):
            (_, first), *rest = parts
            head = _reference_compile(first)
            steps = [(_REFERENCE_OPERATORS[op], _reference_compile(node)) for op, node in rest]

            def fold(nu, x):
                value = head(nu, x)
                for step, f in steps:
                    value = step(value, f(nu, x))
                return value

            return fold
        case ex.Pow(b, k):
            fb = _reference_compile(b)
            return lambda nu, x: fb(nu, x) ** k
        case ex.Call(fn, a):
            ufunc, fa = ex._NP_FUNCTIONS[fn], _reference_compile(a)
            return lambda nu, x: ufunc(fa(nu, x))
    raise TypeError(f"not an expression node: {e!r}")


_XS = np.array([-2.5, -1.0, -0.3, 0.0, 0.25, 0.7, 1.9])
_NUS = np.array([1.0, 2.0, 3.0, 7.0, 40.0])
# scalar nu and x; scalar nu, x grid; nu column by x row; nu and x lanes
_SHAPES = [
    *[(np.float64(nu), np.float64(x)) for nu in (1.0, 3.0) for x in (-0.3, 0.0, 0.25, 1.9)],
    (np.float64(3.0), _XS),
    (_NUS[:, None], _XS),
    (np.resize(_NUS, len(_XS)), _XS),
]


def _assert_same_bits(generated, reference):
    assert type(generated) is type(reference)
    generated, reference = np.asarray(generated), np.asarray(reference)
    assert generated.dtype == reference.dtype == np.float64
    assert generated.shape == reference.shape
    # NaNs included: every value carries the same 64 bits
    assert np.array_equal(generated.view(np.int64), reference.view(np.int64))


def _assert_matches_reference(e):
    generated, reference = ex._compile(e), _reference_compile(e)
    with np.errstate(all="ignore"):
        for nu_value, x_value in _SHAPES:
            _assert_same_bits(generated(nu_value, x_value), reference(nu_value, x_value))


def test_generated_function_matches_the_node_closures_bit_for_bit(rng):
    trees = [random_expression(rng, depth=3, allow_nu=True) for _ in range(200)]
    trees += [_random_powered_expression(rng) for _ in range(200)]
    for e in trees:
        _assert_matches_reference(e)


@pytest.mark.parametrize("text, index, point", POLES)
def test_generated_poles_raise_what_the_node_closures_raise(text, index, point):
    e = ex.parse(text)
    raised = []
    for f in (_reference_compile(e), ex._compile(e)):
        with pytest.raises(FloatingPointError, match="divide by zero") as caught:
            with np.errstate(all="ignore", divide="raise"):
                f(np.float64(index), np.array([point]))
        raised.append(str(caught.value))
    assert raised[0] == raised[1]


def test_grid_overflow_and_x_free_trees():
    xs = np.linspace(-3.0, 3.0, 7)
    decay = ex.parse("1/exp(800*x^2)")
    values = ex.evaluate_on_grid(decay, 1, xs)
    with np.errstate(all="ignore"):
        _assert_same_bits(values, _reference_compile(decay)(np.float64(1.0), xs))
    assert values.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    # an x-free tree gives one scalar, which fills the grid
    flat = ex.parse("nu^2 + 1")
    assert np.shape(ex._compiled(flat)(np.float64(3.0), xs)) == ()
    _assert_same_bits(ex.evaluate_on_grid(flat, 3, xs), np.full_like(xs, 10.0))


def test_placeholder_is_refused_at_compile_time():
    with pytest.raises(ex.EvalError, match="placeholder 'u' is unbound"):
        ex._compile(ex.Num(1.0) + ex.Call("sin", ex.Var("u")))


def test_deep_tree_compiles_and_matches_the_node_closures():
    e = ex.x
    for level in range(300):
        e = (
            ex.Neg(e),
            ex.Call("sin", e),
            ex.Num(0.5) + ex.nu * e,
            ex.Pow(e, 2),
            ex.Num(1.0) - quotient(ex.Num(0.3), ex.Num(2.0) + e),
        )[level % 5]
    # deeper than the parser accepts and than Python's 200-parenthesis limit
    assert _depth(e) > 300 > ex.MAX_NESTING
    _assert_matches_reference(e)


def test_long_flat_sum_compiles_and_matches_the_node_closures():
    def term(k):
        return (ex.x, ex.nu * ex.x, ex.Call("cos", ex.x), ex.Num(0.1 * k), ex.Pow(ex.x, 2))[k % 5]

    e = ex.Add(tuple(("-" if k % 3 == 1 else "+", term(k)) for k in range(3000)))
    _assert_matches_reference(e)


def test_trees_of_one_shape_share_one_code_object():
    first = ex._compiled(ex.parse("0.5+sin(2*nu*x+1.3)"))
    second = ex._compiled(ex.parse("0.7+sin(3*nu*x+0.2)"))
    assert first is not second
    assert first.__code__ is second.__code__
    assert value_at(ex.parse("0.7+sin(3*nu*x+0.2)"), 2, 0.5) == pytest.approx(0.7 + math.sin(3.2))


def test_shape_cache_keeps_to_its_size():
    assert ex._factory.cache_info().maxsize == ex._SHAPE_CACHE_SIZE
    before = ex._factory.cache_info().misses
    for i in range(ex._SHAPE_CACHE_SIZE + 20):
        # bit j of i picks x or nu as part j: a new shape for each i
        parts = [ex.x if i >> j & 1 else ex.nu for j in range(10)]
        ex._compiled(ex.Add(tuple(("+", part) for part in parts)))
        assert ex._factory.cache_info().currsize <= ex._SHAPE_CACHE_SIZE
    assert ex._factory.cache_info().misses - before > ex._SHAPE_CACHE_SIZE


# ---------------------------------------------------------------------------
# interning


def test_fields_are_checked_before_the_table_is_read():
    b = ex.Call("cos", ex.x)
    # alive, and equal as keys to the invalid calls below: True == 1, 2.0 == 2
    alive = (ex.Pow(b, 1), ex.Pow(b, 2))
    with pytest.raises(TypeError):
        ex.Pow(b, True)
    with pytest.raises(TypeError):
        ex.Pow(b, 2.0)
    with pytest.raises(ValueError):
        ex.Var("y")
    with pytest.raises(ValueError):
        ex.Call("sinh", ex.x)
    assert ex.Pow(b, 1) is alive[0] and ex.Pow(b, 2) is alive[1]
    assert ex.Num(-0.0) is ex.Num(0.0) and ex.Num(0) is ex.Num(0.0)
    assert ex.to_string(ex.Num(-0.0)) == "0"
    with pytest.raises(AttributeError):
        alive[0].exponent = 3


def test_copies_and_pickles_are_the_interned_node():
    e = ex.parse("cos(2*x)^2/(1 + nu*x) - 3*exp(-x)")
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e


def test_the_table_keeps_no_tree_alive():
    e = ex.parse("sin(3*x + nu)^2/(1 + x) - 17.25*x*cosh(0.5*x)")
    # fill every cache: term maps, derivatives, printed forms, compiled functions
    ex.to_string(ex.diff(e, 2))
    value_at(e, 2, 0.5)
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None
    assert all(entry() is not None for entry in ex._NODES.values())


def _fold(parts):
    """A chain's map from its parts' maps, folded with the rule of one binary node."""
    (_, first), *rest = parts
    terms = ex._terms(first)
    for op, node in rest:
        terms = ex._step_terms(terms, op, ex._terms(node))
    return terms


def test_a_chain_holds_the_fold_of_its_parts_maps(rng):
    # the derivative rules fold maps and never build the chains they stand for
    a, b, c = ex.parse("cos(2*x)*x"), ex.parse("sin(x) - nu"), ex.parse("1/(1 + x^2)")
    spliced, nested = a * b * c, (a + b) * c
    assert spliced.factors == (*a.factors, ("*", b), ("*", c))
    assert ex._terms(spliced) == ex._step_terms(ex._terms(a * b), "*", ex._terms(c))
    assert ex._terms(spliced) == _fold(spliced.factors)
    assert nested.factors == (("*", a + b), ("*", c))
    assert ex._terms(nested) == ex._step_terms(ex._terms(a + b), "*", ex._terms(c))
    # a chain interned earlier keeps the map it holds, and that map is the fold
    early = ex.parse("cos(2*x)*x*sin(x)")
    held = ex._terms(early)
    assert a * ex.Call("sin", ex.x) is early and early._term_map is held
    assert held == ex._step_terms(ex._terms(a), "*", ex._terms(ex.Call("sin", ex.x)))
    for e in [random_expression(rng, depth=3, allow_nu=True) for _ in range(200)]:
        for node in _nodes(e):
            if isinstance(node, (ex.Add, ex.Mul)):
                parts = node.terms if isinstance(node, ex.Add) else node.factors
                # the prefix chain's own map, stepped by the last part
                last_op, last = parts[-1]
                assert ex._terms(node) == ex._step_terms(
                    ex._terms(ex._flat(parts[:-1])), last_op, ex._terms(last)
                ) == _fold(parts)


def _count_calls(monkeypatch, name):
    """Patch ex.<name> to add one entry to the returned list per call."""
    calls, original = [], getattr(ex, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(ex, name, counted)
    return calls


def test_diff_builds_no_chain_node(monkeypatch):
    repeats = ex.parse(REPEATS)
    product = ex.parse("*".join(f"cos({k}*x)" for k in range(1, 61)))
    calls = _count_calls(monkeypatch, "_chain")
    ex.diff(repeats, 3)
    ex.diff(product, 2)
    assert calls == []


def test_diff_reads_the_last_orders_off_a_cycle(monkeypatch):
    square, sine = ex.parse("x^2"), ex.parse("sin(x)")
    calls = _count_calls(monkeypatch, "_from_terms")
    # 2*x, 2, 0, and 0 again: the fourth order repeats the third
    assert ex.diff(square, 10**5) == ex.Num(0.0)
    assert len(calls) == 4
    del calls[:]
    assert ex.diff(sine, 10**5 + 1) == ex.parse("cos(x)")
    # cos(x), -sin(x), -cos(x) and sin(x) again, and at most one simplify of
    # the argument x per call the rules meet
    assert len(calls) <= 8
    # and every order is the node iterating diff gives, whether or not it cycles
    for text in ("x^2", "sin(x)", "exp(x)", "exp(-x)*cos(x)", "x^3/(1 + x)"):
        e = iterated = ex.parse(text)
        for order in range(1, 10):
            iterated = ex.diff(iterated)
            assert ex.diff(e, order) is iterated


def _census(e):
    """(node objects by id, distinct structures) in e's tree.

    Each structure is numbered from its type and its fields, children by
    their numbers, so equal structures share a number whatever their identity.
    """
    numbers, structures = {}, {}

    def number(node):
        if id(node) not in numbers:
            key = [type(node).__name__]
            for name in node.__match_args__:
                value = getattr(node, name)
                if isinstance(value, ex.Expr):
                    value = number(value)
                elif isinstance(value, tuple):
                    value = tuple((op, number(part)) for op, part in value)
                key.append(value)
            numbers[id(node)] = structures.setdefault(tuple(key), len(structures))
        return numbers[id(node)]

    number(e)
    return len(numbers), len(structures)


def test_a_long_product_derivative_holds_one_node_per_structure():
    e = ex.parse("*".join(f"cos({k}*x)" for k in range(1, 61)))
    # the parent of hash-consing held 8,536 node objects for these structures
    assert _census(ex.diff(e, 2)) == (2156, 2156)
