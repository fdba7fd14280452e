import json
import math
import os
import pathlib
import random
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from branchlab import cli
from branchlab import expr as ex
from branchlab import ideals
from branchlab._numutil import _GOLDEN, BISECT_ITERATIONS, GOLDEN_ITERATIONS
from branchlab.sequences import smooth_sequence

CORPUS_SEED = 977112
# the indices sequences.admission samples the tail of a sequence at when it
# starts at 1 and has no exceptions, as denominator_safety takes them
SAFETY_LATTICE = np.arange(1.0, ex.SAFETY_NU_SAMPLES + 1.0)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# the certificate settings `ideal check` declares by default, as off_diagonality takes them
_CHECK = cli.COMMAND_SETTINGS["ideal check"]
CERTIFICATE = {
    "cell_width": _CHECK["cell"], "nu_max": _CHECK["nu-max"], "margin": _CHECK["margin"],
}
# the reason of a single generator that off_diagonality neither proves nor refutes
NO_DENSE_ZEROS = (
    "no unit found and no root factor of the generator is c + c'*sin|cos(alpha*x + beta) "
    "with numbers |c| <= |c'| and alpha a polynomial in nu of degree at least 1 whose "
    "closed-form roots fill every cell at an index up to nu-max"
)


# ---------------------------------------------------------------------------
# fresh interpreters

# runs each argv through cli.main, as the `branchlab` command does, and keeps
# what it wrote and the modules loaded once it returned
_FRESH_CHILD = """\
import contextlib, io, json, sys
argvs, address_space = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if address_space is not None:
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
from branchlab import cli
results = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    results.append((code, out.getvalue(), sorted(sys.modules)))
print(json.dumps(results))
"""


class Fresh(NamedTuple):
    """One argv's exit code, its report as main printed it (None for --help and
    --version), and the names in sys.modules once it returned."""

    code: int
    report: dict
    modules: frozenset


def run_fresh(*argvs, env=None, address_space=None, timeout=120):
    """Run the argvs in turn in one child `python` with `src` on its path.

    `env` adds to this process's environment, and `address_space` caps the
    child's, in bytes, by RLIMIT_AS set in the child alone.  Returns one Fresh
    per argv.
    """
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    completed = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD, json.dumps(argvs), json.dumps(address_space)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return [
        Fresh(code, json.loads(text) if text.startswith("{") else None, frozenset(modules))
        for code, text, modules in json.loads(completed.stdout)
    ]


def random_expression(rng, depth=3, allow_nu=False):
    """Random expression tree, bounded on |x| <= pi so derivatives stay finite.

    exp and cosh only appear applied to small multiples of x; everything else
    is built from sums, differences, products, small integer powers, negation,
    and the bounded calls.
    """
    if depth == 0:
        roll = rng.random()
        if roll < 0.35:
            return ex.Num(round(rng.uniform(-2.0, 2.0), 3))
        if allow_nu and roll < 0.45:
            return ex.nu
        if roll < 0.80:
            return ex.x
        scale = ex.Num(round(rng.uniform(-0.7, 0.7), 3))
        fn = rng.choice(("exp", "cosh"))
        return ex.Call(fn, scale * ex.x)
    roll = rng.random()
    if roll < 0.22:
        return random_expression(rng, depth - 1, allow_nu) + random_expression(
            rng, depth - 1, allow_nu
        )
    if roll < 0.40:
        return random_expression(rng, depth - 1, allow_nu) - random_expression(
            rng, depth - 1, allow_nu
        )
    if roll < 0.60:
        return random_expression(rng, depth - 1, allow_nu) * random_expression(
            rng, depth - 1, allow_nu
        )
    if roll < 0.70:
        return random_expression(rng, depth - 1, allow_nu) ** rng.choice((2, 3))
    if roll < 0.78:
        inner = random_expression(rng, depth - 1, allow_nu)
        # the parser folds a negated literal into the literal itself
        if isinstance(inner, ex.Num):
            return ex.Num(-inner.value)
        return ex.Neg(inner)
    fn = rng.choice(("sin", "cos", "tanh"))
    return ex.Call(fn, random_expression(rng, depth - 1, allow_nu))


def free_variables(e):
    """The names of the variables in e, by a walk of its nodes."""
    match e:
        case ex.Var(name):
            return {name}
        case ex.Neg(a) | ex.Pow(a, _) | ex.Call(_, a):
            return free_variables(a)
        case ex.Add(parts) | ex.Mul(parts):
            return set().union(*(free_variables(part) for _, part in parts))
    return set()


def quotient(numerator, denominator):
    """numerator / denominator, built as the parser builds a quotient."""
    return ex._chain(numerator, "/", denominator)


def generated_by(*tails):
    """The finitely generated ideal whose generators have these tails."""
    return ideals.generated_by(*map(smooth_sequence, tails))


def value_at(e, index, x):
    """Value of e at one point, evaluated as a one-point grid."""
    return float(ex.evaluate_on_grid(e, index, np.array([x]))[0])


def gauss_rank(matrix, rel_tol=1e-8):
    """Row-echelon rank by Gaussian elimination with partial pivoting.

    Independent of the SVD-based rank used by the package.
    """
    work = np.array(matrix, dtype=float, copy=True)
    rows, cols = work.shape
    threshold = rel_tol * max(np.max(np.abs(work)), 1e-300)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[pivot, col]) <= threshold:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        work[rank + 1 :] -= (
            work[rank + 1 :, col : col + 1] / work[rank, col]
        ) * work[rank : rank + 1]
        rank += 1
    return rank


@pytest.fixture
def rng():
    return random.Random(CORPUS_SEED)


@pytest.fixture(scope="session")
def expression_corpus():
    """100 random nu-free expressions shared by the derivative suites."""
    corpus_rng = random.Random(CORPUS_SEED)
    return [random_expression(corpus_rng, depth=3) for _ in range(100)]


# ---------------------------------------------------------------------------
# scalar reference searches: the lane-wise ones in _numutil must return what
# these return, lane for lane, bit for bit


def bisect_root(f, lo, hi):
    """Bisection on a sign change; returns the midpoint of the final bracket."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-15 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def golden_min(g, lo, hi):
    """Golden-section minimum of g on [lo, hi]; assumes local unimodality."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(GOLDEN_ITERATIONS):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
        if b - a < 1e-15 * max(1.0, abs(a)):
            break
    mid = 0.5 * (a + b)
    return mid, g(mid)


def refine_min_abs(f, lo, hi):
    """Point in [lo, hi] where |f| is (locally) smallest: bisection on a sign
    change, golden-section search on |f| otherwise."""
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        return lo, abs(f(lo))
    flo, fhi = f(lo), f(hi)
    if math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0:
        root = bisect_root(f, lo, hi)
        return root, abs(f(root))
    point, value = golden_min(lambda t: abs(f(t)), lo, hi)
    for candidate in (lo, hi):
        cv = abs(f(candidate))
        if cv < value:
            point, value = candidate, cv
    return point, value
