"""Command-line surface: subcommands, settings, JSON reports, CSV tables.

COMMANDS declares each command once: its words, handler, the settings it
reads with their defaults, and its other flags; SETTING_FLAGS gives each
setting's flag, reader and rule.  The parser and the settings resolver both
read that table.  The config file and the flags are each read whole, then a
flag beats the config file beats the default.  A handler returns its report
stages; run() alone turns them into the exit code: 0 when every stage
passed, 2 when one did not (an indefinite verdict, or a demo pattern that
did not materialize), 1 for usage or runtime errors, with a JSON error
report.  Reports carry a versioned schema and are byte-deterministic apart
from the timestamp and per-stage timings; strip_volatile removes exactly
those fields so byte comparison across runs is meaningful.  canonical_json
writes a report with its own encoder, in exactly the bytes
json.dumps(sort_keys=True, indent=2) writes, with non-finite floats as the
strings "nan", "inf" and "-inf".

A command loads only the layers it runs.  This module imports `_report`,
`expr`, `pairing`, `sequences` and `weaklimit` at its top; `ideals` and
`algebra` are imported inside the handlers that call them, and `csv` inside
write_csv, so `limit`, `classify`, `span independence` and `demo nosquare`
never load them.  The settings those layers read have their defaults in
COMMANDS, so building the parser loads neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Callable, NamedTuple

from . import __version__
from ._report import all_passed, report_value, stage
from .expr import DEFAULT_DOMAIN, DomainInterval, ParseError, SafetyStatus, parse
from .pairing import MAX_GRID_NODES, WORK_BUDGET, Panel, bump, default_panel, plan_grids
from .sequences import (
    DEFAULT_X_COUNT, SAMPLE_NUS, SpanStatus, admission, independence_certificate,
    smooth_sequence,
)
from .weaklimit import (
    DEFAULT_SCHEDULE, DEFAULT_TOL, Classification, classify_stage, nosquare_demo,
    validate_schedule,
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


def _parsed(path, text, variable_names):
    """The text parsed as an expression in the variables; a parse error names where it sits."""
    try:
        return parse(text, variable_names)
    except ParseError as err:
        err.args = (f"{path}: {err}",)
        raise


def _sequence_from_payload(path, payload):
    """A sequence from an expression string, or from an object with a string
    `tail`, `exceptions` from index text to strings in x, and an integer
    `start` of at least 1 that no exception's index precedes."""
    payload = _typed(path, payload, (str, dict), "an expression string or an object")
    if type(payload) is str:
        return smooth_sequence(_parsed(path, payload, ("x", "nu")))
    unknown = set(payload) - {"tail", "exceptions", "start"}
    if unknown:
        raise ValueError(f"{path}: unknown sequence literal keys {sorted(unknown)}")
    if "tail" not in payload:
        raise ValueError(f"{path}: sequence literal needs a 'tail' key")
    tail = _typed(f"{path}['tail']", payload["tail"], (str,), "an expression string")
    where = f"{path}['exceptions']"
    exceptions = _typed(where, payload.get("exceptions", {}), (dict,), "an object")
    entries = {}
    for key, entry in exceptions.items():
        if not (key.isdecimal() and str(int(key)) == key):  # the index text to_dict writes
            raise ValueError(f"{where}: expected index keys like \"2\", got {json.dumps(key)}")
        entry = _typed(f"{where}[{key!r}]", entry, (str,), "an expression string")
        entries[int(key)] = _parsed(f"{where}[{key!r}]", entry, ("x",))
    start = _typed(f"{path}['start']", payload.get("start", 1), (int,), "an integer")
    if start < 1:
        raise ValueError(f"{path}['start']: expected an integer of at least 1, got {start}")
    first = min(entries, default=start)
    if first < start:
        raise ValueError(f'{where}: expected index keys from the start {start} on, got "{first}"')
    return smooth_sequence(_parsed(f"{path}['tail']", tail, ("x", "nu")), entries, start)


def load_sequence(value, path):
    """Sequence from an expression string, JSON literal, or file of either;
    `path` names the literal in an error."""
    text = _file_or_literal(value).strip()
    return _sequence_from_payload(path, json.loads(text) if text.startswith("{") else text)


def load_sequence_list(value, path):
    """Comma-separated expressions or file paths, or a JSON array; never empty."""
    text = _file_or_literal(value).strip()
    if text.startswith("["):
        items = enumerate(json.loads(text))
        sequences = [_sequence_from_payload(f"{path}[{k}]", item) for k, item in items]
    elif text.startswith("{"):
        sequences = [_sequence_from_payload(path, json.loads(text))]
    else:
        items = [item.strip() for item in text.split(",") if item.strip()]
        sequences = [load_sequence(item, f"{path}[{k}]") for k, item in enumerate(items)]
    if not sequences:
        raise ValueError(f"{path}: expected at least one sequence, got none")
    return sequences


# a JSON number: a bool is no number, though Python's bool is an int
_NUMBER = (int, float)


def _typed(path, value, types, expected):
    """The value, if its type is exactly one of the types; else an error naming where it sits."""
    if type(value) in types:
        return value
    raise ValueError(f"{path}: expected {expected}, got {json.dumps(value, default=repr)}")


def _array_of(path, value, types, expected, entry):
    """A JSON array whose every item has one of the types, as a list."""
    items = _typed(path, value, (list, tuple), expected)
    return [_typed(f"{path}[{k}]", item, types, entry) for k, item in enumerate(items)]


def _from_text(path, text, convert, expected):
    """The text read as a number by convert; else an error naming where it sits."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{path}: expected {expected}, got {json.dumps(text)}") from None


def _parse_domain(value):
    if isinstance(value, str):
        value = value.split(",")
        if len(value) != 2:
            raise ValueError('domain must be written "lower,upper"')
        value = [_from_text(f"domain[{k}]", v, float, "a number") for k, v in enumerate(value)]
    else:
        expected = 'a "lower,upper" string or an array'
        value = _array_of("domain", value, _NUMBER, expected, "a number")
        if len(value) != 2:
            raise ValueError(f"domain: expected 2 entries, got {len(value)}")
    lower, upper = value
    return DomainInterval(float(lower), float(upper))


def load_panel_spec(value):
    """Panel spec as (center, width, normalized) triples.

    The spec is an array of [center, width] or [center, width, normalized]
    entries or of objects with those keys, or an object holding that array
    under "members", as a demo report's `parameters.panel` writes it.
    """
    text = _file_or_literal(value)
    payload = json.loads(text) if isinstance(text, str) else text
    if isinstance(payload, dict) and "members" in payload:
        payload = payload["members"]
    payload = _typed("panel", payload, (list, tuple), 'an array, or an object with "members"')
    triples = []
    for k, entry in enumerate(payload):
        if isinstance(entry, dict):
            unknown = set(entry) - {"center", "width", "normalized"}
            if unknown:
                raise ValueError(f"panel[{k}]: unknown panel member keys {sorted(unknown)}")
            missing = [key for key in ("center", "width") if key not in entry]
            if missing:
                raise ValueError(f"panel[{k}]: panel member needs a {missing[0]!r} key")
            entry = (entry["center"], entry["width"], entry.get("normalized", True))
        entry = _typed(f"panel[{k}]", entry, (list, tuple), "an array or an object")
        if not 2 <= len(entry) <= 3:
            raise ValueError(f"panel[{k}]: expected 2 or 3 entries, got {len(entry)}")
        center, width, *rest = entry
        triples.append((
            float(_typed(f"panel[{k}].center", center, _NUMBER, "a number")),
            float(_typed(f"panel[{k}].width", width, _NUMBER, "a number")),
            _typed(f"panel[{k}].normalized", rest[0] if rest else True, (bool,), "true or false"),
        ))
    return tuple(triples)


def _parse_schedule(value):
    if isinstance(value, str):
        items = [item for item in value.split(",") if item.strip()]
        return tuple(
            _from_text(f"schedule[{k}]", item, int, "an integer") for k, item in enumerate(items)
        )
    expected = "a comma-separated string or an array"
    return tuple(_array_of("schedule", value, (int,), expected, "an integer"))


# ---------------------------------------------------------------------------
# settings


def _finite_positive(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _index_cap(nu_max):
    if nu_max < 1:
        raise ValueError(f"nu-max must be at least 1, got {nu_max}")


def _sample_count(x_count):
    # the evaluation matrix holds len(SAMPLE_NUS) * x-count rows per basis sequence
    most = MAX_GRID_NODES // len(SAMPLE_NUS)
    if not 1 <= x_count <= most:
        raise ValueError(f"x-count must lie in [1, {most}], got {x_count}")


# a command's settings with their defaults, which are values already read;
# a sweep's `nu-max`, unset by default, is its other way to give its schedule
_REQUIRED = object()  # a setting with no default: a flag or the config file must give it
_SWEEP = {"domain": DEFAULT_DOMAIN, "schedule": DEFAULT_SCHEDULE, "tol": DEFAULT_TOL,
          "panel": None, "nu-max": None}
_CERTIFICATE = {"cell": 0.05, "nu-max": 200}

# each setting's flag: how its value is read, the rule a read value must meet,
# and its help; argparse itself converts an int or float flag, so a bad value
# is a usage error naming the flag
SETTING_FLAGS = {
    "domain": (_parse_domain, None, 'domain interval "lower,upper"'),
    "schedule": (_parse_schedule, validate_schedule, "explicit comma-separated index schedule"),
    "tol": (float, functools.partial(_finite_positive, "tol"), "convergence tolerance"),
    "panel": (load_panel_spec, None, "panel file or JSON: (center,width,normalized) triples"),
    "cell": (float, functools.partial(_finite_positive, "cell"), "width of a certificate cell"),
    "nu-max": (int, _index_cap, "largest index: certificate index cap, or a powers-of-2 schedule"),
    "margin": (float, functools.partial(_finite_positive, "margin"), "unit-search margin"),
    "x-count": (int, _sample_count, "sample points per index"),
}


def _read(name, value):
    """A setting's value through its reader, then its rule.  A numeric setting takes
    a JSON number or the text of one, never a bool; an int setting takes no fraction."""
    reader, rule, _ = SETTING_FLAGS[name]
    if reader is float:
        value = _typed(name, value, (str, *_NUMBER), "a number")
        value = _from_text(name, value, float, "a number")
    elif reader is int:
        if type(value) is float and value.is_integer():
            value = int(value)
        value = _typed(name, value, (str, int), "an integer")
        value = _from_text(name, value, int, "an integer")
    else:
        value = reader(value)
    if rule is not None:
        rule(value)
    return value


def _read_layer(layer, defaults):
    """Every value of one layer, read.  A sweep reads `nu-max` as the schedule of powers
    of two from its default's first index through it, which the layer's `schedule` beats."""
    values = {name: _read(name, value) for name, value in layer.items()}
    if "schedule" in defaults and "nu-max" in values:
        nu_max, first = values.pop("nu-max"), defaults["schedule"][0]
        powers = tuple(first << k for k in range((nu_max // first).bit_length()))
        values = {"schedule": _read("schedule", powers)} | values
    return values


def resolve_settings(args):
    """The command's settings: a flag beats the --config file beats the default.

    The config file and the flags are each read whole, so a value is refused
    whether or not another layer overrides it, and a config key the command
    does not read is an error, never a silent no-op.
    """
    defaults, config = COMMAND_SETTINGS[args.command], {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = _typed("config file", json.load(handle), (dict,), "a JSON object")
    unread = sorted(set(config) - set(defaults))
    if unread:
        raise ValueError(f"{args.command} reads no config key {', '.join(map(repr, unread))}")
    flags = {name: getattr(args, name) for name in defaults if getattr(args, name) is not None}
    layers = _read_layer(config, defaults), _read_layer(flags, defaults)
    settings = defaults | layers[0] | layers[1]
    for name, value in settings.items():
        if value is _REQUIRED:
            raise ValueError(f"{args.command} needs --{name} or a config {name!r}")
    # a config panel that a flag's panel beats must fit the resolved domain too;
    # the panel in use is built against it by the command
    if "panel" in layers[0] and "panel" in layers[1]:
        _panel(settings["domain"], layers[0]["panel"])
    return settings


def _settings_echo(settings):
    """Report form of the resolved settings; an unset panel or nu-max is left out."""
    return {name: report_value(value) for name, value in settings.items() if value is not None}


def _panel(domain, triples):
    """The panel of (center, width, normalized) triples; each support and the
    cover are checked against the domain, and a member's error names it."""
    members = []
    for k, triple in enumerate(triples):
        try:
            members.append(bump(*triple, domain))
        except ValueError as err:
            raise ValueError(f"panel[{k}]: {err}") from None
    return Panel(tuple(members), domain)


# ---------------------------------------------------------------------------
# reports


def _float_text(value):
    # a non-finite float is written as the string of its repr: "nan", "inf", "-inf"
    if math.isfinite(value):
        return float.__repr__(value)
    return _encode_str(repr(value))


def _bool_text(value):
    return "true" if value else "false"


def _null_text(_):
    return "null"


# scalar writers by exact type; subclasses take the isinstance path in _scalar_text
_encode_str = json.encoder.encode_basestring_ascii
_SCALAR_TEXT = {
    str: _encode_str,
    float: _float_text,
    int: int.__repr__,
    bool: _bool_text,
    type(None): _null_text,
}


def _scalar_text(o):
    """JSON text of a scalar of any type json.dumps takes, None for a container."""
    if isinstance(o, str):
        return _encode_str(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _write_json(o, parts, indent):
    """Append the JSON text of the container o, opened at `indent` (newline and spaces)."""
    inner = indent + "  "
    if isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        separator = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            writer = _SCALAR_TEXT.get(type(value))
            text = writer(value) if writer else _scalar_text(value)
            if text is None:
                parts.append(separator + _encode_str(key) + ": ")
                _write_json(value, parts, inner)
            else:
                parts.append(separator + _encode_str(key) + ": " + text)
            separator = "," + inner
        parts.append(indent + "}")
        return
    if not o:
        parts.append("[]")
        return
    separator = "[" + inner
    for value in o:
        writer = _SCALAR_TEXT.get(type(value))
        text = writer(value) if writer else _scalar_text(value)
        if text is None:
            parts.append(separator)
            _write_json(value, parts, inner)
        else:
            parts.append(separator + text)
        separator = "," + inner
    parts.append(indent + "]")


def canonical_json(report):
    """The report as json.dumps(sort_keys=True, indent=2) writes it, plus a newline.

    Non-finite floats are written as the strings "nan", "inf" and "-inf".  A
    value json.dumps refuses, or a dict key that is not a str, raises
    TypeError.  The text is written in one recursive pass with the same C
    string escaper json.dumps uses: with an indent, json.dumps itself falls
    back to its pure-Python encoder.
    """
    writer = _SCALAR_TEXT.get(type(report))
    text = writer(report) if writer else _scalar_text(report)
    if text is not None:
        return text + "\n"
    parts = []
    _write_json(report, parts, "\n")
    parts.append("\n")
    return "".join(parts)


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


def make_report(argv, **body):
    """A report: the schema header, the body's fields, and a timestamp."""
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": list(argv),
        **body,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _error_report(argv, err):
    return make_report(argv, error={"type": type(err).__name__, "message": str(err)})


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
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerows(emit_csv(report))


# ---------------------------------------------------------------------------
# subcommand handlers
#
# Each handler returns (config echo, stages, conclusion); run() alone turns
# the stages' `passed` flags into the exit code.


def _classified(args, name):
    """The config echo, stage and verdict of classifying --seq over the panel."""
    settings = resolve_settings(args)
    sequence = load_sequence(args.seq, "seq")
    _, grids, tol = _sweep(settings, [("seq", sequence)], 1)
    entry, verdict = classify_stage(name, sequence, grids, tol)
    return _settings_echo(settings) | {"seq": sequence.to_dict()}, entry, verdict


def _cmd_limit(args):
    config_echo, entry, verdict = _classified(args, "weak-limit")
    members = [member_verdict for _, member_verdict in verdict.per_test_function]
    entry["passed"] = all(member.definite for member in members)
    # convergent and weak-null both mean every member is a ConvergesTo
    if verdict.classification in (Classification.CONVERGENT, Classification.WEAK_NULL):
        limits = [member.value for member in members]
        conclusion = (
            f"every panel member converges; limits lie in "
            f"[{min(limits):.6g}, {max(limits):.6g}]; classification "
            f"{verdict.classification.value}"
        )
    elif entry["passed"]:
        conclusion = (
            "at least one panel member diverges; classification "
            f"{verdict.classification.value}"
        )
    else:
        conclusion = "some panel members are inconclusive at this schedule"
    return config_echo, [entry], conclusion


def _cmd_classify(args):
    config_echo, entry, verdict = _classified(args, "classify")
    entry["passed"] = verdict.definite
    return config_echo, [entry], f"classification: {verdict.classification.value}"


def _cmd_ideal_check(args):
    from .ideals import derivation_closure, generated_by, off_diagonality

    settings = resolve_settings(args)
    domain = settings["domain"]
    generators = load_sequence_list(args.generators, "generators")
    _check_plan([])
    ideal = generated_by(*generators)
    config_echo = _settings_echo(settings) | {"generators": [g.to_dict() for g in generators]}
    stages = []

    with stage("generator-safety", stages) as entry:
        records = [admission(g, domain) for g in generators]
        entry["records"] = [
            {"generator": g.to_dict(), "safety": record.to_dict()}
            for g, record in zip(generators, records)
        ]
        entry["passed"] = all(record.status is SafetyStatus.SAFE for record in records)
    if not entry["passed"]:  # no later stage speaks of an ideal that holds a non-element
        k = next(k for k, record in enumerate(records) if record.status is not SafetyStatus.SAFE)
        tail, status = generators[k].to_dict()["tail"], records[k].status.value
        conclusion = f"generators[{k}] ({tail}) is not admitted on the domain: {status}"
        return config_echo, stages, conclusion + "; the ideal is not checked"

    with stage("off-diagonality", stages) as entry:
        verdict = off_diagonality(ideal, domain, settings["cell"], settings["nu-max"],
                                  settings["margin"])
        entry["outcome"] = verdict.to_dict()
        entry["passed"] = verdict.definite

    with stage("derivation-closure", stages) as entry:
        closure = derivation_closure(ideal, domain)
        entry["outcome"] = closure.to_dict()
        entry["passed"] = closure.definite

    conclusion = f"off-diagonality: {verdict.tag}; derivation closure: {closure.tag}"
    return config_echo, stages, conclusion


def _cmd_span_independence(args):
    settings = resolve_settings(args)
    first = [load_sequence(item, f"first[{k}]") for k, item in enumerate(args.first)]
    second = [load_sequence(item, f"second[{k}]") for k, item in enumerate(args.second)]
    count, x_count = len(first) + len(second), settings["x-count"]
    _check_plan([(f"{count} sequences x {x_count} points x {len(SAMPLE_NUS)} indices",
                  count * x_count * len(SAMPLE_NUS))])
    xs = settings["domain"].interior_grid(settings["x-count"])
    stages = []
    with stage("independence", stages) as entry:
        certificate = independence_certificate(first + second, xs)
        entry["first"] = [s.to_dict() for s in first]
        entry["second"] = [s.to_dict() for s in second]
        entry["certificate"] = certificate.to_dict()
        entry["passed"] = certificate.status is SpanStatus.TRIVIAL_INTERSECTION
    conclusion = (
        "the sampled evaluations have full column rank, so the two spans "
        "intersect only in zero"
        if entry["passed"]
        else "rank deficiency at this grid; independence not established"
    )
    return _settings_echo(settings), stages, conclusion


def _cmd_gf(args):
    """A generated ideal must pass the off-diagonality gate, which refuses one that
    contains a unit; an inconclusive gate ends the command before its operation."""
    from .algebra import AlgebraError, gf, gf_derive, gf_equal
    from .ideals import EventuallyZero, OffDiagonal, generated_by, off_diagonality

    settings = resolve_settings(args)
    domain = settings["domain"]
    if (args.algebra == "generated") != (args.generators is not None):
        raise ValueError("--algebra generated and --generators go together")
    # the gate certifies at `ideal check`'s defaults; no setting of gf reaches them
    cell, nu_max, margin = map(COMMAND_SETTINGS["ideal check"].get, ("cell", "nu-max", "margin"))
    _check_plan([])
    config_echo = _settings_echo(settings) | {"algebra": args.algebra}
    stages, ideal = [], EventuallyZero()
    if args.generators is not None:
        ideal = generated_by(*load_sequence_list(args.generators, "generators"))
        with stage("off-diagonality-gate", stages) as entry:
            entry["cell_width"], entry["nu_max"] = cell, nu_max
            verdict = off_diagonality(ideal, domain, cell, nu_max, margin)
            if not verdict.definite:
                entry["reason"] = verdict.reason
            elif not isinstance(verdict, OffDiagonal):
                raise AlgebraError(f"ideal failed the off-diagonality gate: {verdict.to_dict()}")
            entry["passed"] = verdict.definite
        if not entry["passed"]:
            return config_echo, stages, "the off-diagonality gate is inconclusive"
    action = args.command.removeprefix("gf ")
    with stage("gf-" + action, stages) as entry:
        lhs = gf(load_sequence(args.lhs, "lhs"), domain)
        entry["lhs"] = lhs.to_dict()
        entry["passed"] = True
        if action == "derive":
            entry["order"] = args.order
            entry["result"] = gf_derive(lhs, args.order, ideal, domain).to_dict()
            conclusion = f"derivative representative: {entry['result']['tail']}"
        else:
            rhs = gf(load_sequence(args.rhs, "rhs"), domain)
            entry["rhs"] = rhs.to_dict()
            if action == "mul":
                entry["result"] = (lhs * rhs).to_dict()
                conclusion = f"product representative: {entry['result']['tail']}"
            else:
                verdict = gf_equal(lhs, rhs, ideal, domain)
                entry["outcome"] = verdict.to_dict()
                entry["passed"] = verdict.definite
                conclusion = f"equality modulo the ideal: {verdict.tag}"
    return config_echo, stages, conclusion


def _demo_report(settings, result, **echo):
    """A demo's (config echo, stages, conclusion); its parameters join the echo."""
    config_echo = _settings_echo(settings) | echo | {"parameters": result["parameters"]}
    return config_echo, result["stages"], result["conclusion"]


def _sweep(settings, operands, passes, probe=None):
    """A sweep's domain, grids (its panel's GridPlan) and tolerance, the order the demos
    take them in, then the probe's GridPlan if it has a probe.  Its plan is `passes`
    pairing passes over the panel and one over the probe; each operand, a (path,
    sequence) pair, must start by the schedule's first index."""
    domain, triples, schedule = settings["domain"], settings["panel"], settings["schedule"]
    panel = default_panel(domain) if triples is None else _panel(domain, triples)
    probes = [] if probe is None else [plan_grids((probe,), schedule)]  # paired first
    grids = plan_grids(panel.members, schedule)
    _check_plan([(f"{passes} pairing pass{'es' * (passes > 1)} x {grids.nodes} grid nodes",
                  passes * grids.nodes)]
                + [(f"1 probe pass x {plan.nodes} grid nodes", plan.nodes) for plan in probes])
    for path, s in operands:
        if s.start_index > schedule[0]:
            raise ValueError(f"schedule: expected indices from the start {s.start_index} "
                             f"of {path} on, got {schedule[0]}")
    return domain, grids, settings["tol"], *probes


def _check_plan(rows):
    """Refuse, before anything is sampled, a command whose plan, its rows of (what, units
    of work), holds more than WORK_BUDGET units in all.  Each command checks one plan."""
    total = sum(units for _, units in rows)
    if total > WORK_BUDGET:
        largest = max(rows, key=lambda row: row[1])[0]
        raise ValueError(f"{largest} is the largest row of a work plan of {total} units, "
                         f"more than the work budget of {WORK_BUDGET}")


def _demo_nosquare(args):
    settings = resolve_settings(args)
    base = load_sequence(args.seq, "seq")
    return _demo_report(settings, nosquare_demo(*_sweep(settings, [("seq", base)], 2), base))


def _demo_no_largest_ideal(args):
    from .ideals import no_largest_ideal_demo

    settings = resolve_settings(args)
    generators = load_sequence_list(args.generators, "generators")
    if len(generators) != 2:
        raise ValueError(f"generators: expected exactly two sequences, got {len(generators)}")
    # the unit search runs at `ideal check`'s margin, which no setting of the demo reaches
    margin = COMMAND_SETTINGS["ideal check"]["margin"]
    _check_plan([])
    result = no_largest_ideal_demo(settings["domain"], settings["cell"], settings["nu-max"],
                                   margin, *generators)
    return _demo_report(settings, result)


def _demo_branching(args):
    from .algebra import branching_demo

    settings = resolve_settings(args)
    representatives = load_sequence_list(args.reps, "reps")
    if len(representatives) < 2:
        raise ValueError(f"reps: expected at least two sequences, got {len(representatives)}")
    outer = _parsed("op", args.op, ("u",))
    operands = [(f"reps[{k}]", s) for k, s in enumerate(representatives)]
    # each representative takes two pairing passes: itself, and its image under the op
    sweep = _sweep(settings, operands, 2 * len(representatives))
    result = branching_demo(representatives, args.op, outer, *sweep)
    return _demo_report(settings, result, op=args.op)


def _demo_delta_square(args):
    from .algebra import DELTA_PROBE, delta_square_demo

    settings = resolve_settings(args)
    return _demo_report(settings, delta_square_demo(*_sweep(settings, [], 1, DELTA_PROBE)))


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    """A command's words, help, handler, the settings it reads with their
    defaults in resolution order, and its other arguments as (flag,
    add_argument keywords) pairs.  A setting's flag comes from SETTING_FLAGS."""

    words: str
    help: str
    handler: Callable
    settings: dict
    arguments: tuple = ()


def _operand(flag, **options):
    """A required flag that takes a sequence literal or file."""
    return (flag, {"required": True, "help": "sequence literal or file"} | options)


_GF_ALGEBRA = (
    ("--algebra", {"default": "eventually-zero", "choices": ("eventually-zero", "generated")}),
    ("--generators", {"help": "generators for --algebra generated"}),
)
_GF = {"domain": DEFAULT_DOMAIN}
_BASIS = {"action": "append", "help": "basis sequence (repeatable)"}

COMMANDS = (
    Command("limit", "weak limit per panel member", _cmd_limit, _SWEEP, (_operand("--seq"),)),
    Command("classify", "weak-convergence class", _cmd_classify, _SWEEP, (_operand("--seq"),)),
    Command("ideal check", "off-diagonality and closure", _cmd_ideal_check,
            {"domain": _REQUIRED, **_CERTIFICATE, "margin": 0.1},
            (_operand("--generators", help="comma-separated expressions or files"),)),
    Command("span independence", "trivial-intersection certificate", _cmd_span_independence,
            {"domain": DEFAULT_DOMAIN, "x-count": DEFAULT_X_COUNT},
            (_operand("--first", **_BASIS), _operand("--second", **_BASIS))),
    Command("gf mul", "product of two classes", _cmd_gf, _GF,
            (_operand("--lhs"), _operand("--rhs"), *_GF_ALGEBRA)),
    Command("gf derive", "derivative of a class", _cmd_gf, _GF,
            (_operand("--lhs"), ("--order", {"type": int, "default": 1}), *_GF_ALGEBRA)),
    Command("gf equal", "equality modulo the ideal", _cmd_gf, _GF,
            (_operand("--lhs"), _operand("--rhs"), *_GF_ALGEBRA)),
    Command("demo nosquare", "squared null sequence", _demo_nosquare, _SWEEP,
            (("--seq", {"default": "cos(nu*x)", "help": "base sequence (default %(default)s)"}),)),
    Command("demo no-largest-ideal", "improper ideal sum", _demo_no_largest_ideal,
            {"domain": DomainInterval(0.0, 2.0 * math.pi), **_CERTIFICATE},
            (("--generators", {"default": "1 + sin(nu*x),1 + cos(nu*x)",
                               "help": "two comma-separated generators (default %(default)s)"}),)),
    Command("demo branching", "representative-dependent limits", _demo_branching, _SWEEP,
            (("--reps", {"default": "cos(nu*x),0",
                         "help": "JSON array, comma list, or file (default %(default)s)"}),
             ("--op", {"default": "u^2", "help": "outer expression in u (default %(default)s)"}))),
    Command("demo delta-square", "squared delta pairings", _demo_delta_square,
            _SWEEP | {"schedule": tuple(2**k for k in range(2, 13))}),
)
COMMAND_SETTINGS = {command.words: command.settings for command in COMMANDS}
_GROUP_HELP = {"ideal": "ideal admissibility checks", "span": "finite-span diagnostics",
               "gf": "generalized-function operations", "demo": "scripted demonstrations"}


# ---------------------------------------------------------------------------
# parser


class UsageError(ValueError):
    """A command line the parser rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors, so run() reports them like any other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    """One subparser per row of COMMANDS, nested under its group word."""
    parser = _ArgumentParser(
        prog="branchlab",
        description="Sequence algebras, weak limits, and branching demonstrations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    groups = {}
    for command in COMMANDS:
        group, _, word = command.words.rpartition(" ")
        if group and group not in groups:
            group_parser = subparsers.add_parser(group, help=_GROUP_HELP[group])
            groups[group] = group_parser.add_subparsers(required=True)
        sub = (groups[group] if group else subparsers).add_parser(word, help=command.help)
        for flag, options in command.arguments:
            sub.add_argument(flag, **options)
        for name in command.settings:
            reader, _, help = SETTING_FLAGS[name]
            converter = reader if reader in (int, float) else None
            sub.add_argument("--" + name, dest=name, type=converter, help=help)
        sub.add_argument("--config", help="JSON config file; flags take precedence")
        sub.add_argument("--out", help="write the JSON report to this path")
        sub.add_argument("--csv", help="write raw pairing rows to this CSV path")
        sub.set_defaults(handler=command.handler, command=command.words)
    return parser


@functools.cache
def _parser():
    """The one parser of this process; parse_args keeps no state between calls."""
    return build_parser()


def run(argv):
    """Execute one command; returns (exit code, report or None).

    Exit 0 exactly when every stage passed, 2 when one did not, 1 with an
    error report when the command failed.  The report is None only for
    --help and --version, which exit 0.
    """
    args = None
    try:
        args = _parser().parse_args(argv)
        config_echo, stages, conclusion = args.handler(args)
        passed = all_passed(stages)
        code = 0 if passed else 2
        report = make_report(argv, config=config_echo, stages=stages, conclusion=conclusion)
        if args.subcommand == "demo":
            report["all_stages_passed"] = passed
        if args.csv:
            write_csv(report, args.csv)
    except SystemExit as err:
        return (0 if err.code == 0 else 1, None)
    except (ValueError, TypeError, OSError, ArithmeticError, RecursionError, MemoryError) as err:
        code, report = 1, _error_report(argv, err)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(report))
        except OSError as err:
            if code != 1:  # a failed command keeps the error that ended it
                code, report = 1, _error_report(argv, err)
    return (code, report)


def main(argv=None):
    code, report = run(sys.argv[1:] if argv is None else list(argv))
    if report is not None:
        sys.stdout.write(canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
