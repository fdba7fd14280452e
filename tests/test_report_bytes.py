"""Report bytes pinned by hash: a refactor of the record classes must not move them.

Each argv below reaches at least one record class of the report vocabulary;
together they reach every class the CLI writes.  The pins are the sha256 of
`cli.comparable_bytes` (timestamps and timings stripped), plus the sha256 of
the `--csv` file for the four demos.  A pin changes only with an agreed
re-baseline of the reports.
"""

import hashlib

import pytest

from branchlab import cli, ideals
from branchlab.expr import DomainInterval
from branchlab.sequences import smooth_sequence

from conftest import CERTIFICATE, run_fresh

TRIG_DOMAIN = "--domain=0,6.283185307179586"

PINNED_REPORTS = [
    (
        ["limit", "--seq=cos(nu*x)"],
        0,
        "7dadf5c10aaf72e1eaa1b0bbc778b835f571129e1226e38dbad7f50093ba9e77",
    ),
    (  # weak-limit inconclusive members
        ["classify", "--seq=nu/(2*cosh(nu*x)^2)"],
        2,
        "e73356737e13831aeac8f4769e6bff904027aa357b71978b3ecd9975d5b57e90",
    ),
    (  # closure unknown; re-recorded when the certificate took its cells in closed
        # form at one index and gained its factor, ratio and alpha
        ["ideal", "check", "--generators=1+sin(nu*x)", "--domain=-1,1"],
        2,
        "b3a006693dcbc76a0af77e82fee1aa820e6a4fc6477f415b5a474efc3e48bf47",
    ),
    (  # not-closed, with a membership witness; re-recorded when the certificate took
        # its cells in closed form at one index; the witness did not move
        ["ideal", "check", "--generators=sin(nu*x)", "--domain=-1,1"],
        0,
        "e0c8fcab57eb82052bb18821e6d5bb004c46209495bfa54bbdb20d21e6077fe1",
    ),
    (  # off-diagonality inconclusive, closure closed
        ["ideal", "check", "--generators=sin(nu*x),cos(nu*x)", "--domain=-1,1"],
        2,
        "4578baf07ce7dd494f25c7ea49cb53cf08b0ad1632398aa558eb7a8bbf769862",
    ),
    (  # contains-unit
        ["ideal", "check", "--generators=1+sin(nu*x),1+cos(nu*x)", TRIG_DOMAIN],
        2,
        "43f14d914cd3d6b03d57716d629ba758fde49c59b69a65606a78dae1cac81d01",
    ),
    (
        ["span", "independence", "--first=sin(nu*x)", "--second=cos(nu*x)"],
        0,
        "504dc822b019a1d6b158ae64e3d00c849cc7af410cd5da407b729db6f9efff49",
    ),
    (
        ["gf", "mul", "--lhs=nu/(2*cosh(nu*x)^2)", "--rhs=nu/(2*cosh(nu*x)^2)"],
        0,
        "11b4681ebdbb88d0964464be84b13ca7c4a9bb71c796dd80aae5991c6fa86506",
    ),
    (
        ["gf", "derive", "--lhs=(1+tanh(nu*x))/2", "--order=2"],
        0,
        "3ce9d68c8746c6ce5381fc21b4f5647d03e51297631bd8e2d3f55334f511cf9c",
    ),
    (
        ["gf", "equal", "--lhs=sin(x)", "--rhs=sin(x)"],
        0,
        "8ca87e7b2c293a480dd1d5308cdb676cd7ff33599a946acd00e3e0bd8b1f5012",
    ),
    (
        ["gf", "equal", "--lhs=sin(x)", "--rhs=cos(x)"],
        0,
        "58d51d819bf9ab1acd3bbf39232bbde947a0994c0cf8fd9f3f81dfb1d485e47f",
    ),
    (  # equality unknown; re-recorded when the algebra gate became a stage
        [
            "gf", "equal", "--lhs=nu*cos(nu*x)", "--rhs=0", "--algebra=generated",
            "--generators=1+sin(nu*x)", TRIG_DOMAIN,
        ],
        2,
        "9e3ed022c38e1a48b9244aaaca06770fee06db072a794d92bc6da6629ecfcbb7",
    ),
    # repeated subexpressions, which diff differentiates once per call; recorded
    # before diff kept a memo
    (
        ["gf", "derive", "--lhs=sin(nu*x)*cos(nu*x)*sin(nu*x)/(1+sin(nu*x)^2)"],
        0,
        "c5d8cadcfc79402c1aa7ebc87842611ef794eaac284d0fd864a2f1309b14fa83",
    ),
    (
        ["gf", "derive", "--lhs=exp(x)*cos(2*x)*exp(x)*cos(2*x)+cos(2*x)^3", "--order=2"],
        0,
        "2672920abfea8f8278e7d04ac8a4280a7691a494a1f2df7320c4dfa24cf357fa",
    ),
    (
        ["gf", "derive", "--lhs=tanh(nu*x)*cosh(nu*x)*tanh(nu*x)/cosh(nu*x)^2", "--order=3"],
        0,
        "7fcfba8e04d721ff9afe34b6bc54363e48b8ced1c976311abde10d9af9f68987",
    ),
]

PINNED_DEMOS = [
    (  # re-recorded when its three stages gained "passed"; the CSV did not move
        "nosquare",
        "482a2ef8cdf5fc17a6fe0aa4572be145fd1cf4563560ac47d6134d5bf89b4729",
        "f51a32dc0d0425a9c2fd2a8cbea68337dec074e90c255594be3ca0d10b994013",
    ),
    (  # re-recorded when the certificates took their cells in closed form at one
        # index; the CSV did not move
        "no-largest-ideal",
        "717d28c89e717747c226271006f7036d2eb6d467ba13d8bbb25ac6e2fdb3932c",
        "f8b3149b47f410eb10af15d4048c2e0bd94c88e3d8bcd7d570a15f4fa5aaa2d8",
    ),
    (  # re-recorded when its records became FunctionalVerdict records; the CSV did not move
        "branching",
        "f9f9bd83a8508012fc2de6ab193b5e15f22e54017e37ef74cf602fc000ed9c79",
        "f8b3149b47f410eb10af15d4048c2e0bd94c88e3d8bcd7d570a15f4fa5aaa2d8",
    ),
    (  # re-recorded when panel-classification gained its per-member verdicts; the CSV did not move
        "delta-square",
        "e2ad4d8ced2beea89e9c1396ee08ebc6a5cf5d3e0d8486174e3cf1e72af9853a",
        "b4e5f66c887e14ad7c2cb2a9edd0d24f5f8e13104e8014fc6ce39bd16f6483e3",
    ),
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, code, digest", PINNED_REPORTS, ids=[" ".join(a) for a, _, _ in PINNED_REPORTS]
)
def test_report_bytes_pinned(argv, code, digest):
    got_code, report = cli.run(argv)
    assert got_code == code
    assert _sha256(cli.comparable_bytes(report)) == digest


@pytest.mark.parametrize("demo, digest, csv_digest", PINNED_DEMOS)
def test_demo_report_and_csv_bytes_pinned(demo, digest, csv_digest, tmp_path, monkeypatch):
    # a relative path keeps the argv, which the report echoes, the same in every run
    monkeypatch.chdir(tmp_path)
    code, report = cli.run(["demo", demo, "--csv=pairings.csv"])
    assert code == 0
    assert _sha256(cli.comparable_bytes(report)) == digest
    assert _sha256((tmp_path / "pairings.csv").read_bytes()) == csv_digest


def _dispatch_targets():
    """numpy's dispatch targets above its baseline that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        return []
    return [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]


@pytest.mark.skipif(not _dispatch_targets(), reason="no dispatch target above numpy's baseline")
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: reports print floats to the last bit, which numpy's SIMD kernels "
    "round differently, so 5 pins move on another dispatch path",
)
def test_report_bytes_do_not_depend_on_the_simd_path(tmp_path, monkeypatch):
    # the demos' argv names a relative CSV path, so their child runs where the pin ran
    monkeypatch.chdir(tmp_path)
    argvs = [argv for argv, _, _ in PINNED_REPORTS]
    argvs += [["demo", demo, "--csv=pairings.csv"] for demo, _, _ in PINNED_DEMOS]
    expected = [(code, digest) for _, code, digest in PINNED_REPORTS]
    expected += [(0, digest) for _, digest, _ in PINNED_DEMOS]
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(_dispatch_targets())}
    results = run_fresh(*argvs, env=env, timeout=300)
    got = [(result.code, _sha256(cli.comparable_bytes(result.report))) for result in results]
    moved = [" ".join(argv) for argv, a, b in zip(argvs, got, expected) if a != b]
    assert not moved, f"reports that move off the default SIMD path: {moved}"


def test_library_records_keep_their_dicts():
    """Records the CLI never writes keep their report form too."""
    domain = DomainInterval(-1.0, 1.0)
    assert ideals.EventuallyZero().to_dict() == {"kind": "eventually-zero"}
    proof = ideals.off_diagonality(ideals.EventuallyZero(), domain, **CERTIFICATE)
    assert proof.to_dict()["certificate"]["kind"] == "structural"
    # the generator's derivative vanishes wherever the generator does
    unknown = ideals.membership(
        smooth_sequence("nu*cos(nu*x)"),
        ideals.generated_by(smooth_sequence("1 + sin(nu*x)")),
        domain,
    )
    assert unknown.to_dict() == {
        "verdict": "unknown",
        "reason": "no factorization matched and no vanishing-point witness found",
    }
