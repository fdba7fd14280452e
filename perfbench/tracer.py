"""Tracing shim: wraps each layer's public functions from outside the package.

A layer is one module of the package.  Every public function a layer
defines is replaced at every module binding that holds it, because
``from .expr import simplify`` or ``from ._numutil import refine_min_abs``
leaves a copy in the importing module that patching ``expr`` alone would
miss.  A few methods the per-layer metrics name are wrapped on their
classes.

Each wrapped call pushes a frame; on return its duration is added to the
caller's child time, so a function's self time is its duration minus the
time its wrapped callees covered.  Calls record a span (name, start, end,
parent span, operation id), kept in memory and written out at the end,
except the hot leaves in ``HOT``: scalar evaluation, for one, runs tens of
thousands of times per certificate operation, so they only add to their
counters.

The work is single-threaded with no queue, so no layer waits on another
and there are no wait metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "branchlab"
LAYERS = ("cli", "expr", "sequences", "pairing", "weaklimit", "_numutil", "ideals", "algebra")
METHODS = {
    "sequences": {"SmoothSequence": ("term", "term_values", "term_value", "signature")},
    "pairing": {"TestFunction": ("values",)},
}
# leaves called hundreds to tens of thousands of times per operation
HOT = frozenset({
    "expr.evaluate", "expr.evaluate_on_grid", "expr.to_string", "expr.format_number",
    "expr.as_expr", "expr.variables", "expr.substitute",
    "sequences.term_value", "sequences.term_values",
    "pairing.values", "pairing.bump_shape_integral", "pairing.integrate",
    "pairing.pair_with_estimate",
    "numutil.golden_min", "numutil.bisect_root",
})


class Tracer:
    """Per-function call counts and self times, spans, and work counters."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.incl_s = []
        self.spans = []
        self.counters = defaultdict(float)
        self.op = -1
        self._current = -1
        self._children = [0.0]  # child time of each open call; [0] is the root
        self._depth = []
        self._pairings = set()
        self._zero_density_depth = 0
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch every binding of every wrapped callable; undone by uninstall."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        holders = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped = {}
        for layer, module in modules.items():
            label = layer.lstrip("_")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{label}.{name}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(f"{label}.{method}", original))
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((holder, name, obj))
                    setattr(holder, name, entry[1])

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- operations -------------------------------------------------------

    def begin_op(self, op):
        self.op = op
        self._pairings = set()

    def end_op(self):
        self.counters["pairings.unique"] += len(self._pairings)

    # -- wrapping ---------------------------------------------------------

    def _register(self, qualname):
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self._depth.append(0)
        return len(self.names) - 1

    def _count_eval_error(self, err):
        if type(err).__name__ == "EvalError" and not getattr(err, "_traced", False):
            err._traced = True
            self.counters["eval_errors"] += 1

    def _wrap(self, qualname, fn):
        """Wrapper adding to the counters of `qualname`; a span too unless hot."""
        index = self._register(qualname)
        prepare = getattr(self, "_prepare_" + qualname.replace(".", "_"), None)
        finish = getattr(self, "_finish_" + qualname.replace(".", "_"), None)
        clock = time.perf_counter
        children = self._children
        calls, self_s, incl_s, depth = self.calls, self.self_s, self.incl_s, self._depth
        spans = self.spans
        tracer = self

        def close(start, end):
            duration = end - start
            depth[index] -= 1
            calls[index] += 1
            self_s[index] += duration - children.pop()
            children[-1] += duration
            if not depth[index]:
                incl_s[index] += duration

        if qualname in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                if prepare is not None:
                    args = prepare(args)
                children.append(0.0)
                depth[index] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception as err:
                    tracer._count_eval_error(err)
                    raise
                finally:
                    close(start, clock())

            return hot

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            parent = tracer._current
            span_id = tracer._current = len(spans)
            spans.append(None)
            children.append(0.0)
            depth[index] += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._count_eval_error(err)
                raise
            finally:
                end = clock()
                close(start, end)
                spans[span_id] = (index, start, end, parent, tracer.op)
                tracer._current = parent
                if finish is not None:
                    finish(result)
            return result

        return spanned

    # per-function work counters, found by name in _wrap

    def _prepare_numutil_refine_min_abs(self, args):
        f = args[0]
        counters = self.counters
        if self._zero_density_depth:
            counters["zero_density.refines"] += 1

        def objective(t):
            counters["fevals"] += 1
            return f(t)

        return (objective, *args[1:])

    def _prepare_pairing_integrate(self, args):
        f = args[0]
        counters = self.counters

        def integrand(xs):
            counters["integrate.nodes"] += len(xs)
            return f(xs)

        return (integrand, *args[1:])

    def _prepare_expr_evaluate_on_grid(self, args):
        self.counters["grid.points"] += len(args[2])
        return args

    def _prepare_pairing_pair_with_estimate(self, args):
        self._pairings.add(args)  # (sequence, index, test function), all hashable
        return args

    def _prepare_ideals_zero_density_certificate(self, args):
        self._zero_density_depth += 1
        return args

    def _finish_ideals_zero_density_certificate(self, result):
        self._zero_density_depth -= 1
        if result is not None:
            self.counters["zero_density.cells"] += len(result.cells)

    # -- results ----------------------------------------------------------

    def totals(self):
        """{qualname: (calls, self seconds, inclusive seconds)} over all traced ops."""
        return {
            name: (self.calls[i], self.self_s[i], self.incl_s[i])
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def layer_self(self):
        out = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_s[i]
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": self.spans}, handle)
