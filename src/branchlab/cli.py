"""Command-line surface: subcommands, config merge, JSON reports, CSV tables.

Reports carry a versioned schema and are byte-deterministic apart from the
timestamp and per-stage timings; strip_volatile removes exactly those fields
so byte comparison across runs is meaningful.  Exit codes: 0 for demo success
and definite verdicts, 1 for usage or runtime errors, 2 when the demo pattern
does not materialize or any reported verdict is Inconclusive or Unknown.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from ._stage import stage
from .algebra import (
    AlgebraError,
    Equal,
    NotEqual,
    branching_demo,
    delta_square_demo,
    eventually_zero_algebra,
    gf,
    gf_derive,
    gf_equal,
    gf_mul,
    make_algebra,
)
from .expr import DomainInterval, SafetyStatus, denominator_safety
from .ideals import (
    ContainsUnit,
    OffDiagonal,
    Closed,
    NotClosed,
    derivation_closure,
    generated_by,
    no_largest_ideal_demo,
    off_diagonality,
)
from .pairing import Panel, bump, default_panel
from .sequences import (
    SampleGrid,
    concat_spans,
    independence_certificate,
    smooth_sequence,
    span,
    SpanStatus,
)
from .weaklimit import (
    DEFAULT_SCHEDULE,
    DEFAULT_TOL,
    Classification,
    Inconclusive,
    classify_stage,
    nosquare_demo,
)

SCHEMA = "branch-lab/1"
VOLATILE_KEYS = frozenset({"timestamp", "timing_s"})
CSV_FIELDS = ("nu", "center", "width", "value", "error_estimate")


# ---------------------------------------------------------------------------
# input loading


def _file_or_literal(value):
    """Treat the value as a path when one exists, else as literal text."""
    if isinstance(value, str) and len(value) < 4096 and os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as handle:
            return handle.read()
    return value


def _sequence_from_payload(payload):
    if isinstance(payload, str):
        return smooth_sequence(payload)
    if isinstance(payload, dict):
        unknown = set(payload) - {"tail", "exceptions", "start"}
        if unknown:
            raise ValueError(f"unknown sequence literal keys: {sorted(unknown)}")
        if "tail" not in payload:
            raise ValueError("sequence literal needs a 'tail' key")
        return smooth_sequence(
            payload["tail"], payload.get("exceptions"), payload.get("start", 1)
        )
    raise ValueError("sequence literal must be a string or an object")


def load_sequence(value):
    """Sequence from an expression string, JSON literal, or file of either."""
    text = _file_or_literal(value).strip()
    if text.startswith("{"):
        return _sequence_from_payload(json.loads(text))
    return smooth_sequence(text)


def load_sequence_list(value):
    """Comma-separated expressions or file paths, or a JSON array."""
    text = _file_or_literal(value).strip()
    if text.startswith("["):
        return [_sequence_from_payload(item) for item in json.loads(text)]
    if text.startswith("{"):
        return [_sequence_from_payload(json.loads(text))]
    return [load_sequence(item.strip()) for item in text.split(",") if item.strip()]


def _parse_domain(value):
    if isinstance(value, DomainInterval):
        return value
    if isinstance(value, str):
        parts = value.split(",")
        if len(parts) != 2:
            raise ValueError('domain must be written "lower,upper"')
        return DomainInterval(float(parts[0]), float(parts[1]))
    lower, upper = value
    return DomainInterval(float(lower), float(upper))


def load_panel_spec(value):
    """Panel spec as (center, width, normalized) triples."""
    text = _file_or_literal(value) if isinstance(value, str) else value
    payload = json.loads(text) if isinstance(text, str) else text
    if isinstance(payload, dict):
        payload = payload.get("members", payload)
    triples = []
    for entry in payload:
        if isinstance(entry, dict):
            triples.append(
                (
                    float(entry["center"]),
                    float(entry["width"]),
                    bool(entry.get("normalized", True)),
                )
            )
        else:
            center, width, *rest = entry
            normalized = bool(rest[0]) if rest else True
            triples.append((float(center), float(width), normalized))
    return tuple(triples)


def _parse_schedule(value):
    if isinstance(value, str):
        entries = [int(item) for item in value.split(",") if item.strip()]
    else:
        entries = [int(item) for item in value]
    return tuple(entries)


def _schedule_up_to(nu_max, start_exponent=0):
    entries = []
    exponent = start_exponent
    while 2**exponent <= nu_max:
        entries.append(2**exponent)
        exponent += 1
    return tuple(entries)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Resolved common settings; flags beat config-file values beat defaults."""

    domain: DomainInterval
    panel_spec: tuple | None
    schedule: tuple
    tol: float

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if not self.schedule:
            raise ValueError("schedule must be nonempty")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("schedule must be strictly increasing")

    def panel(self):
        if self.panel_spec is None:
            return default_panel(self.domain)
        members = tuple(
            bump(center, width, normalized, self.domain)
            for center, width, normalized in self.panel_spec
        )
        return Panel(members, self.domain)

    def to_dict(self):
        out = {
            "domain": [self.domain.lower, self.domain.upper],
            "schedule": list(self.schedule),
            "tol": self.tol,
        }
        if self.panel_spec is not None:
            out["panel"] = [list(triple) for triple in self.panel_spec]
        return out


def _load_config_file(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    return payload


def _pick(args, config, name, default=None):
    flag = getattr(args, name.replace("-", "_"), None)
    if flag is not None:
        return flag
    return config.get(name, default)


def resolve_config(args, default_domain=(-1.0, 1.0), schedule_start_exponent=0):
    config = _load_config_file(getattr(args, "config", None))
    domain = _parse_domain(_pick(args, config, "domain", default_domain))
    schedule_value = _pick(args, config, "schedule")
    if schedule_value is not None:
        schedule = _parse_schedule(schedule_value)
    else:
        nu_max = _pick(args, config, "nu-max")
        if nu_max is not None:
            schedule = _schedule_up_to(int(nu_max), schedule_start_exponent)
        elif schedule_start_exponent > 0:
            schedule = _schedule_up_to(4096, schedule_start_exponent)
        else:
            schedule = DEFAULT_SCHEDULE
    tol = float(_pick(args, config, "tol", DEFAULT_TOL))
    panel_value = _pick(args, config, "panel")
    panel_spec = load_panel_spec(panel_value) if panel_value is not None else None
    return RunConfig(domain, panel_spec, schedule, tol), config


# ---------------------------------------------------------------------------
# reports


def _sanitize(obj):
    if isinstance(obj, dict):
        return {key: _sanitize(item) for key, item in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(item) for item in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def canonical_json(report):
    return json.dumps(_sanitize(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def strip_volatile(obj):
    """Drop timestamp and timing fields so runs can be compared byte-wise."""
    if isinstance(obj, dict):
        return {
            key: strip_volatile(item)
            for key, item in obj.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(obj, (list, tuple)):
        return [strip_volatile(item) for item in obj]
    return obj


def comparable_bytes(report):
    return canonical_json(strip_volatile(report)).encode("utf-8")


def make_report(argv, config_echo, stages, conclusion):
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": list(argv),
        "config": config_echo,
        "stages": stages,
        "conclusion": conclusion,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def collect_pairing_rows(report):
    rows = []
    for stage in report.get("stages", []):
        for key in ("pairings", "records"):
            candidates = stage.get(key)
            if not isinstance(candidates, list):
                continue
            for row in candidates:
                if isinstance(row, dict) and all(f in row for f in CSV_FIELDS):
                    rows.append({f: row[f] for f in CSV_FIELDS})
    return rows


def emit_csv(report):
    """Header plus one row per raw pairing found in the report's stages."""
    return [list(CSV_FIELDS)] + [
        [row[f] for f in CSV_FIELDS] for row in collect_pairing_rows(report)
    ]


def write_csv(report, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerows(emit_csv(report))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_limit(args, argv):
    run_config, _ = resolve_config(args)
    sequence = load_sequence(args.seq)
    panel = run_config.panel()
    entry, verdict = classify_stage(
        "weak-limit", sequence, panel, run_config.schedule, run_config.tol
    )
    definite = all(
        not isinstance(member_verdict, Inconclusive)
        for _, member_verdict in verdict.per_test_function
    )
    entry["passed"] = definite
    values = [row["verdict"] for row in entry["per_test_function"]]
    converged = [v["value"] for v in values if v["kind"] == "converges-to"]
    if definite and len(converged) == len(values):
        spread = (min(converged), max(converged))
        conclusion = (
            f"every panel member converges; limits lie in "
            f"[{spread[0]:.6g}, {spread[1]:.6g}]; classification "
            f"{verdict.classification.value}"
        )
    elif definite:
        conclusion = (
            "at least one panel member diverges; classification "
            f"{verdict.classification.value}"
        )
    else:
        conclusion = "some panel members are inconclusive at this schedule"
    return (
        0 if definite else 2,
        run_config.to_dict() | {"seq": sequence.to_dict()},
        [entry],
        conclusion,
    )


def _cmd_classify(args, argv):
    run_config, _ = resolve_config(args)
    sequence = load_sequence(args.seq)
    panel = run_config.panel()
    entry, verdict = classify_stage(
        "classify", sequence, panel, run_config.schedule, run_config.tol
    )
    definite = verdict.classification is not Classification.MIXED
    entry["passed"] = definite
    conclusion = f"classification: {verdict.classification.value}"
    return (
        0 if definite else 2,
        run_config.to_dict() | {"seq": sequence.to_dict()},
        [entry],
        conclusion,
    )


def _cmd_ideal_check(args, argv):
    domain = _parse_domain(args.domain)
    generators = load_sequence_list(args.generators)
    ideal = generated_by(*generators)
    stages = []

    with stage("generator-safety", stages) as entry:
        safety_records = []
        all_safe = True
        for g in generators:
            record = denominator_safety(g.tail, domain)
            safety_records.append(
                {"generator": g.to_dict(), "safety": record.to_dict()}
            )
            all_safe = all_safe and record.status is SafetyStatus.SAFE
        entry["records"] = safety_records
        entry["passed"] = all_safe

    with stage("off-diagonality", stages) as entry:
        verdict = off_diagonality(
            ideal,
            domain,
            cell_width=args.cell,
            nu_max=args.nu_max,
            margin=args.margin,
        )
        off_diag_definite = isinstance(verdict, (OffDiagonal, ContainsUnit))
        entry["outcome"] = verdict.to_dict()
        entry["passed"] = off_diag_definite

    with stage("derivation-closure", stages) as entry:
        closure = derivation_closure(ideal, 1, domain)
        closure_definite = isinstance(closure, (Closed, NotClosed))
        entry["outcome"] = closure.to_dict()
        entry["passed"] = closure_definite

    definite = all_safe and off_diag_definite and closure_definite
    conclusion = (
        f"off-diagonality: {verdict.to_dict()['verdict']}; "
        f"derivation closure: {closure.to_dict()['verdict']}"
    )
    config_echo = {
        "domain": [domain.lower, domain.upper],
        "generators": [g.to_dict() for g in generators],
        "cell": args.cell,
        "nu-max": args.nu_max,
        "margin": args.margin,
    }
    return (0 if definite else 2, config_echo, stages, conclusion)


def _cmd_span_independence(args, argv):
    domain = _parse_domain(args.domain if args.domain is not None else (-1.0, 1.0))
    first = [load_sequence(item) for item in args.first]
    second = [load_sequence(item) for item in args.second]
    grid = SampleGrid.for_domain(domain, x_count=args.x_count)
    stages = []
    with stage("independence", stages) as entry:
        certificate = independence_certificate(
            concat_spans(span(*first), span(*second)), grid
        )
        trivial = certificate.status is SpanStatus.TRIVIAL_INTERSECTION
        entry["first"] = [s.to_dict() for s in first]
        entry["second"] = [s.to_dict() for s in second]
        entry["certificate"] = certificate.to_dict()
        entry["passed"] = trivial
    conclusion = (
        "the sampled evaluations have full column rank, so the two spans "
        "intersect only in zero"
        if trivial
        else "rank deficiency at this grid; independence not established"
    )
    config_echo = {
        "domain": [domain.lower, domain.upper],
        "x-count": args.x_count,
    }
    return (0 if trivial else 2, config_echo, stages, conclusion)


def _gf_algebra(args):
    domain = _parse_domain(args.domain if args.domain is not None else (-1.0, 1.0))
    if args.algebra == "eventually-zero":
        return eventually_zero_algebra(domain)
    if args.algebra == "generated":
        if not args.generators:
            raise ValueError("--algebra generated requires --generators")
        return make_algebra(generated_by(*load_sequence_list(args.generators)), domain)
    raise ValueError(f"unknown algebra {args.algebra!r}")


def _cmd_gf(args, argv):
    algebra = _gf_algebra(args)
    config_echo = {
        "algebra": args.algebra,
        "domain": [algebra.domain.lower, algebra.domain.upper],
    }
    stages = []
    with stage("gf-" + args.gf_action, stages) as entry:
        lhs = gf(load_sequence(args.lhs), algebra)
        entry["lhs"] = lhs.representative.to_dict()
        if args.gf_action == "derive":
            result = gf_derive(lhs, args.order)
            entry["order"] = args.order
            entry["result"] = result.representative.to_dict()
            entry["passed"] = True
            code = 0
            conclusion = f"derivative representative: {entry['result']['tail']}"
        else:
            rhs = gf(load_sequence(args.rhs), algebra)
            entry["rhs"] = rhs.representative.to_dict()
            if args.gf_action == "mul":
                result = gf_mul(lhs, rhs)
                entry["result"] = result.representative.to_dict()
                entry["passed"] = True
                code = 0
                conclusion = f"product representative: {entry['result']['tail']}"
            else:
                verdict = gf_equal(lhs, rhs)
                entry["outcome"] = verdict.to_dict()
                entry["passed"] = isinstance(verdict, (Equal, NotEqual))
                code = 0 if entry["passed"] else 2
                conclusion = (
                    f"equality modulo the ideal: {entry['outcome']['verdict']}"
                )
    return (code, config_echo, stages, conclusion)


def _cmd_demo(args, argv):
    name = args.demo_name
    if name == "nosquare":
        run_config, _ = resolve_config(args)
        sequence = load_sequence(args.seq) if args.seq else None
        result = nosquare_demo(
            run_config.domain,
            run_config.panel(),
            run_config.schedule,
            run_config.tol,
            sequence,
        )
        config_echo = run_config.to_dict()
    elif name == "no-largest-ideal":
        domain = _parse_domain(
            args.domain if args.domain is not None else (0.0, 2.0 * math.pi)
        )
        kwargs = {"domain": domain, "cell_width": args.cell, "nu_max": args.nu_max}
        if args.generators:
            generators = load_sequence_list(args.generators)
            if len(generators) != 2:
                raise ValueError("this demo takes exactly two generators")
            kwargs["first_generator"] = generators[0]
            kwargs["second_generator"] = generators[1]
        result = no_largest_ideal_demo(**kwargs)
        config_echo = {
            "domain": [domain.lower, domain.upper],
            "cell": args.cell,
            "nu-max": args.nu_max,
        }
    elif name == "branching":
        run_config, _ = resolve_config(args)
        representatives = (
            load_sequence_list(args.reps) if args.reps is not None else None
        )
        result = branching_demo(
            representatives,
            args.op,
            run_config.domain,
            run_config.panel(),
            run_config.schedule if args.schedule or args.nu_max else None,
            run_config.tol,
        )
        config_echo = run_config.to_dict() | {"op": args.op}
    else:
        run_config, _ = resolve_config(args, schedule_start_exponent=2)
        result = delta_square_demo(run_config.domain, schedule=run_config.schedule)
        config_echo = run_config.to_dict()

    config_echo["parameters"] = result["parameters"]
    code = 0 if result["all_stages_passed"] else 2
    return (code, config_echo, result["stages"], result["conclusion"], result)


# ---------------------------------------------------------------------------
# parser


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    parser.add_argument("--out", help="write the JSON report to this path")
    parser.add_argument("--csv", help="write raw pairing rows to this CSV path")


def _add_sweep_flags(parser):
    parser.add_argument("--domain", help='domain interval "lower,upper"')
    parser.add_argument("--panel", help="panel file or JSON: (center,width,normalized) triples")
    parser.add_argument("--nu-max", type=int, help="largest index; schedule = powers of 2")
    parser.add_argument("--schedule", help="explicit comma-separated index schedule")
    parser.add_argument("--tol", type=float, help="convergence tolerance")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Sequence algebras, weak limits, and branching demonstrations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    limit = subparsers.add_parser("limit", help="weak limit per panel member")
    limit.add_argument("--seq", required=True, help="sequence literal or file")
    _add_sweep_flags(limit)
    _add_common(limit)
    limit.set_defaults(handler=_cmd_limit)

    classify = subparsers.add_parser("classify", help="weak-convergence class")
    classify.add_argument("--seq", required=True, help="sequence literal or file")
    _add_sweep_flags(classify)
    _add_common(classify)
    classify.set_defaults(handler=_cmd_classify)

    ideal = subparsers.add_parser("ideal", help="ideal admissibility checks")
    ideal_sub = ideal.add_subparsers(dest="ideal_action", required=True)
    check = ideal_sub.add_parser("check", help="off-diagonality and closure")
    check.add_argument(
        "--generators", required=True, help="comma-separated expressions or files"
    )
    check.add_argument("--domain", required=True, help='domain interval "lower,upper"')
    check.add_argument("--cell", type=float, default=0.05, help="certificate cell width")
    check.add_argument("--nu-max", type=int, default=200, help="certificate index cap")
    check.add_argument("--margin", type=float, default=0.1, help="unit-search margin")
    _add_common(check)
    check.set_defaults(handler=_cmd_ideal_check)

    span_cmd = subparsers.add_parser("span", help="finite-span diagnostics")
    span_sub = span_cmd.add_subparsers(dest="span_action", required=True)
    independence = span_sub.add_parser(
        "independence", help="trivial-intersection certificate"
    )
    independence.add_argument(
        "--first", action="append", required=True, help="basis sequence (repeatable)"
    )
    independence.add_argument(
        "--second", action="append", required=True, help="basis sequence (repeatable)"
    )
    independence.add_argument("--domain", help='domain interval "lower,upper"')
    independence.add_argument("--x-count", type=int, default=16)
    _add_common(independence)
    independence.set_defaults(handler=_cmd_span_independence)

    gf_cmd = subparsers.add_parser("gf", help="generalized-function operations")
    gf_sub = gf_cmd.add_subparsers(dest="gf_action", required=True)
    for action in ("mul", "derive", "equal"):
        sub = gf_sub.add_parser(action)
        sub.add_argument("--lhs", required=True, help="sequence literal or file")
        if action != "derive":
            sub.add_argument("--rhs", required=True, help="sequence literal or file")
        else:
            sub.add_argument("--order", type=int, default=1)
        sub.add_argument(
            "--algebra",
            default="eventually-zero",
            choices=("eventually-zero", "generated"),
        )
        sub.add_argument("--generators", help="generators for --algebra generated")
        sub.add_argument("--domain", help='domain interval "lower,upper"')
        _add_common(sub)
        sub.set_defaults(handler=_cmd_gf)

    demo = subparsers.add_parser("demo", help="scripted demonstrations")
    demo_sub = demo.add_subparsers(dest="demo_name", required=True)

    nosquare = demo_sub.add_parser("nosquare", help="squared null sequence")
    nosquare.add_argument("--seq", help="substitute base sequence")
    _add_sweep_flags(nosquare)
    _add_common(nosquare)
    nosquare.set_defaults(handler=_cmd_demo)

    no_largest = demo_sub.add_parser("no-largest-ideal", help="improper ideal sum")
    no_largest.add_argument("--generators", help="two comma-separated generators")
    no_largest.add_argument("--domain", help='domain interval "lower,upper"')
    no_largest.add_argument("--cell", type=float, default=0.05)
    no_largest.add_argument("--nu-max", type=int, default=200)
    _add_common(no_largest)
    no_largest.set_defaults(handler=_cmd_demo)

    branching = demo_sub.add_parser("branching", help="representative-dependent limits")
    branching.add_argument("--reps", help="JSON array, comma list, or file")
    branching.add_argument("--op", default="u^2", help="outer expression in u")
    _add_sweep_flags(branching)
    _add_common(branching)
    branching.set_defaults(handler=_cmd_demo)

    delta_square = demo_sub.add_parser("delta-square", help="squared delta pairings")
    _add_sweep_flags(delta_square)
    _add_common(delta_square)
    delta_square.set_defaults(handler=_cmd_demo)

    return parser


@functools.cache
def _parser():
    """The one parser of this process; parse_args keeps no state between calls."""
    return build_parser()


def run(argv):
    """Execute one command; returns (exit code, report or None)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return (0 if err.code == 0 else 1, None)
    try:
        outcome = args.handler(args, argv)
        code, config_echo, stages, conclusion = outcome[:4]
        report = make_report(argv, config_echo, stages, conclusion)
        if len(outcome) == 5:
            report["all_stages_passed"] = outcome[4]["all_stages_passed"]
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(report))
        if getattr(args, "csv", None):
            write_csv(report, args.csv)
        return (code, report)
    except (ValueError, TypeError, OSError, AlgebraError, ArithmeticError, RecursionError) as err:
        report = {
            "schema": SCHEMA,
            "version": __version__,
            "command": list(argv),
            "error": {"type": type(err).__name__, "message": str(err)},
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        out = getattr(args, "out", None) if "args" in locals() else None
        if out:
            try:
                with open(out, "w", encoding="utf-8") as handle:
                    handle.write(canonical_json(report))
            except OSError:
                pass
        return (1, report)


def main(argv=None):
    code, report = run(sys.argv[1:] if argv is None else list(argv))
    if report is not None:
        sys.stdout.write(canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
