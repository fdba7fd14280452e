"""No public definition in the package is dead: each one is named elsewhere in `src`.

The package's surface is its command line, so a public module-level function
or class, or a public method of a public class, that no other line of
`src/branchlab` names is code that nothing runs.  Names are read from the
syntax trees: a reference is a name or an attribute, outside the
definition's own lines.  Two kinds of definition are kept without one:
`cli.comparable_bytes`, which the README documents, and the methods that
`perfbench/tracer.py` wraps by name from class dicts.  Nor is any default
dead: some call in `src` leaves each defaulted parameter out.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "branchlab"
PERFBENCH = ROOT / "perfbench"
DOCUMENTED = {"cli.comparable_bytes"}


def _traced_methods():
    """The methods the tracer reads from class dicts, as module.Class.method."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return {
        f"{module}.{cls}.{method}"
        for module, classes in tracer.METHODS.items()
        for cls, methods in classes.items()
        for method in methods
    }


def _definitions(module, tree):
    """(qualified name, first line, last line) of each public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every name and attribute the tree reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_definition_has_a_reference_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    lines_by_name = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            lines_by_name.setdefault(name, set()).add((module, line))
    kept = DOCUMENTED | _traced_methods()
    unreferenced = [
        qualified
        for module, tree in trees.items()
        for qualified, first, last in _definitions(module, tree)
        if qualified not in kept
        and not any(
            where != module or not first <= line <= last
            for where, line in lines_by_name.get(qualified.rpartition(".")[2], ())
        )
    ]
    assert not unreferenced, f"no reference in src: {sorted(unreferenced)}"


def _defaulted(function, method):
    """(positional parameter names, names that carry a default) of a definition;
    a method's first parameter is its receiver, which no call writes."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if method else 0:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _left_out(call, positional, defaulted):
    """The defaulted parameters a call visibly leaves out: past its positional arguments, unless
    a `*` argument gives every one from its position on, not passed by keyword, and
    not named by a `**` argument (which may leave out any parameter it does not name)."""
    given = set()
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            given.update(positional[k:])
            break
        given.update(positional[k : k + 1])
    for keyword in call.keywords:
        if keyword.arg is not None:
            given.add(keyword.arg)
        elif isinstance(keyword.value, ast.Dict):
            given.update(
                key.value for key in keyword.value.keys if isinstance(key, ast.Constant)
            )
    return set(defaulted) - given


def test_every_default_is_left_out_by_some_caller():
    """A default no call in `src` leaves out is a value the program never uses.

    A call is matched to a definition by name, as a bare name or an attribute.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    definitions = []
    for tree in trees:
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        definitions += [
            (node.name, *_defaulted(node, id(node) in methods))
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        ]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unused = [
        f"{name}({parameter})"
        for name, positional, defaulted in definitions
        for parameter in defaulted
        if not any(
            parameter in _left_out(call, positional, defaulted) for call in calls.get(name, ())
        )
    ]
    assert not unused, f"defaults no call in src leaves out: {sorted(unused)}"


def test_one_function_checks_the_work_budget():
    """`cli._check_plan` is the one function that compares anything with WORK_BUDGET.
    Besides its definition, the budget is read only there."""
    readers, comparers = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

        def enclosing(node):
            spans = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            return f"{path.stem}.{max(spans, key=lambda f: f.lineno).name}" if spans else None

        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "WORK_BUDGET":
                if isinstance(node.ctx, ast.Load):
                    readers.add(enclosing(node))
            elif isinstance(node, ast.Compare):
                names = {getattr(n, "id", None) for n in ast.walk(node)}
                if "WORK_BUDGET" in names:
                    comparers.add(enclosing(node))
    assert comparers == {"cli._check_plan"}
    assert readers == {"cli._check_plan"}
