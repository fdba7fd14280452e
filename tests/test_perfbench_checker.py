"""The benchmark's checker scores every report it reads as it stands.

`perfbench/checker.py` reads fields of the reports (classifications,
per-member verdicts, certificate cells and their roots); a report-shape
change that drops one of them turns its cases `wrong` or `failed`.  Scoring
the demo cases of the first rounds, and every certificates case among them,
here makes such a change fail the test suite, not only the benchmark.
"""

import itertools
import pathlib
import sys

import pytest

from branchlab import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
CASES = 40
SEED = 1


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checker
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return checker, workloads


@pytest.mark.parametrize("workload", ["weak-limits", "certificates"])
def test_the_checker_scores_no_demo_case_wrong(bench, workload):
    checker, workloads = bench
    cases = itertools.islice(workloads.cases(workload, SEED), CASES)
    demos = [case for case in cases if case.family.startswith("demo-")]
    assert demos
    for case in demos:
        _assert_scored_right(checker, case)


def test_the_checker_scores_no_certificates_case_wrong(bench):
    """Every family of the certificates workload, off-diagonal cells included."""
    checker, workloads = bench
    cases = list(itertools.islice(workloads.cases("certificates", SEED), CASES))
    families = {case.family for case in cases}
    assert {"a+trig", "x*sin", "unit", "demo-no-largest-ideal", "gf-mul-impulse"} <= families
    for case in cases:
        _assert_scored_right(checker, case)


def _assert_scored_right(checker, case):
    code, report = cli.run(list(case.argv))
    text = None if report is None else cli.canonical_json(report)
    status, reason = checker.classify(case, code, text)
    assert status not in (checker.WRONG, checker.FAILED), (case.argv, reason)
