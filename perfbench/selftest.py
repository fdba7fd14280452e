"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that seeds are deterministic, that every generated expression is
passed in --flag=value form, that a planted wrong verdict is flagged while
the program's own reports pass, that every printed metric name is declared
in BENCHMARK.json with its unit, and that the benchmark refuses to run in a
directory without the package.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checker  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from branchlab import cli  # noqa: E402

CASES_PER_WORKLOAD = 40


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def check_determinism():
    for workload in workloads.WORKLOADS:
        first = list(itertools.islice(workloads.cases(workload, 7), CASES_PER_WORKLOAD))
        again = list(itertools.islice(workloads.cases(workload, 7), CASES_PER_WORKLOAD))
        other = list(itertools.islice(workloads.cases(workload, 8), CASES_PER_WORKLOAD))
        if [c.argv for c in first] != [c.argv for c in again]:
            fail(f"{workload}: the same seed gave different argv lists")
        if [c.argv for c in first] == [c.argv for c in other]:
            fail(f"{workload}: different seeds gave the same argv lists")
        for case in first:
            for arg in case.argv:
                if arg.startswith("-") and not (arg.startswith("--") and "=" in arg):
                    fail(f"{workload}: argument {arg!r} is not in --flag=value form")
    print("ok: seeds are deterministic and every value is passed as --flag=value")


def _tamper(case, report):
    """A copy of a report with its verdict or result made wrong."""
    bad = copy.deepcopy(report)
    check = case.expect["check"]
    stage = bad["stages"][0]
    if check == "panel":
        stage["classification"] = "divergent" if stage["classification"] != "divergent" else "convergent"
    elif check == "nosquare":
        stage["classification"] = "convergent"
    elif check == "branching":
        for record in stage["records"]:
            record["classification"] = "mixed"
    elif check == "delta_square":
        bad["stages"][1]["verdict"] = {"kind": "converges-to", "value": 1.0, "uncertainty": 0.0}
    elif check == "ideal":
        bad["stages"][1]["outcome"]["verdict"] = (
            "contains-unit" if case.expect["offdiag"] == "off-diagonal" else "off-diagonal"
        )
    elif check == "no_largest":
        bad["stages"][-1]["outcome"] = {"witness": None}
    elif check in ("gf_mul", "gf_derive"):
        stage["result"]["tail"] = f"({stage['result']['tail']}) + 0.001*x"
    elif check == "gf_equal":
        verdict = stage["outcome"]["verdict"]
        stage["outcome"]["verdict"] = "not-equal" if verdict == "equal" else "equal"
    elif check == "span":
        stage["certificate"]["status"] = "trivial-intersection"
    else:
        fail(f"no tampering rule for check {check!r}")
    return bad


def check_planted_wrong_verdicts():
    planted = set()
    for workload in workloads.WORKLOADS:
        for case in itertools.islice(workloads.cases(workload, 3), 30):
            check = case.expect.get("check")
            if check in planted or (check == "span" and not case.expect["dependent"]):
                continue
            code, report = cli.run(list(case.argv))
            status, reason = checker.classify(case, code, cli.canonical_json(report))
            if status in (checker.WRONG, checker.FAILED):
                fail(f"the program's own report is flagged {status}: {reason}: {case.argv}")
            # an undecided report made definite and wrong must be flagged too
            bad = cli.canonical_json(_tamper(case, report))
            status, _ = checker.classify(case, 0, bad)
            if status != checker.WRONG:
                fail(f"planted wrong {check} verdict was not flagged: {case.argv}")
            planted.add(check)
    missing = set(checker._CHECKS) - planted
    if missing:
        fail(f"no report to tamper with for checks {sorted(missing)}")
    print(f"ok: planted wrong verdicts flagged for {len(planted)} checks")


def check_declarations():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    declared_e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    if declared_e2e != list(metrics.END_TO_END):
        fail("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    declared_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared_layer != [entry[:3] for entry in metrics.PER_LAYER]:
        fail("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expected = {trace: {m["name"]: m["unit"] for m in bench[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            if out.returncode != 0:
                fail(f"run.py {workload} --trace {trace} exited {out.returncode}: {out.stderr[-400:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if printed != expected[trace]:
                fail(f"{workload} --trace {trace} printed metrics differ from BENCHMARK.json")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("the result line has other keys than correct, attempted, failed, metrics")
    print("ok: every printed metric is declared in BENCHMARK.json with its unit")


def check_refuses_bare_directory():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workloads.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        fail("run.py produced a result in a directory without the package")
    print("ok: without the package run.py exits non-zero and prints no result")


def main():
    check_determinism()
    check_planted_wrong_verdicts()
    check_declarations()
    check_refuses_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
