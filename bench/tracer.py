"""Outside-in tracer for the ``inctrees`` package.

:meth:`Tracer.install` rebinds, from outside the package, the public
functions of the nine modules and a fixed list of class methods with timing
wrappers; :meth:`Tracer.uninstall` puts every original object back.  A name
is rebound in every ``inctrees`` namespace that holds it, not only where it
is defined (``hooks`` holds its own ``solve_k_labelled``, ``cli`` its own
``enumerate_ordered_trees``), and the closed forms and recurrences stored in
``families.REGISTRY`` are rebound too.  No file of the package changes.

Each call of a wrapped function is a span (name, start, end, parent,
request).  For a function that returns an iterator, each ``next()`` is a
span as well, so lazy work is charged where it runs.  Spans live in compact
arrays until :meth:`Tracer.write_spans` stores them.  A layer is the module
that defines the function; a layer's self time is its spans' durations minus
the time of their child spans, so ``Fraction`` arithmetic counts towards the
innermost enclosing span.

Per-node and per-labelling helpers stay unwrapped (see ``UNWRAPPED``): a
span there would cost more than the work it measures.
"""
from __future__ import annotations

import importlib
import inspect
import json
from array import array
from time import perf_counter_ns
from types import GeneratorType

LAYERS = (
    "cli", "series", "weights", "trees", "solvers",
    "hooks", "families", "bijections", "reverse",
)
CLI, SERIES, WEIGHTS, TREES, SOLVERS, HOOKS, FAMILIES, BIJECTIONS, REVERSE = range(9)

UNWRAPPED = {
    "series": {"as_fraction", "is_rational_square"},
    "trees": {"falling_factorial", "catalan", "capacity_limit", "bucket_hook_lengths"},
    "families": {"double_factorial_odd"},
    "bijections": {"is_canonical_unordered", "validate_multilabelled", "validate_colored",
                   "format_object"},
    "reverse": {"generalized_binomial"},
}
# Operations of the package's classes; accessors such as Series.coefficient
# and per-node generators such as OrderedTree.preorder stay unwrapped.
METHODS = {
    ("series", "Series"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale",
        "differentiate", "integrate", "compose", "reciprocal", "sqrt", "reversion",
    ),
    ("weights", "DegreeWeights"): (
        "coefficient", "__call__", "as_series", "derivative_series",
        "antiderivative_series", "parse", "polynomial", "bundled", "exponential",
        "cosh", "exp_minus_t", "ordered_minus_t", "custom",
    ),
    ("trees", "OrderedTree"): ("out_degrees", "hook_lengths", "parent_indices", "to_text", "parse"),
    ("families", "FamilySpec"): ("sequence",),
    ("solvers", "CountingSequence"): ("as_integers",),
    ("reverse", "ReverseReport"): ("weights",),
}


class Tracer:
    """Spans and counters of one benchmark run; install around traced work."""

    def __init__(self):
        self.package = importlib.import_module("inctrees")
        self.modules = [importlib.import_module(f"inctrees.{name}") for name in LAYERS]
        self.names = []          # span name per name id
        self.name_layer = []     # layer index per name id
        # span records, one entry per span
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.name_ids = array("H")
        self.requests = array("l")
        # aggregates, filled as spans close
        self.count = []          # per name id
        self.incl_ns = []        # per name id
        self.self_ns = [0] * len(LAYERS)
        self.yields = []         # successful next() per name id
        self.extra = {
            "compose_in_solvers": 0, "terms": 0, "max_bits": 0,
            "trees_under_hooks": 0, "trees_self_under_hooks_ns": 0,
            "solvers_under_hooks_ns": 0, "labellings_under_bijections": 0,
            "objects": 0, "reversion_under_reverse_ns": 0,
        }
        self.request = -1
        self._stack = []         # open frames: [span index, name id, layer, start, child ns]
        self._active = [0] * len(LAYERS)
        self._patches = []       # (setter, owner, attribute, original)
        self._wrappers = {}      # id(original) -> wrapper, so aliases share one wrapper
        self._nid = {}
        self._compose = self._reversion = self._trees = self._labellings = -1

    # -- name table ------------------------------------------------------

    def _name_id(self, name: str, layer: int) -> int:
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.count.append(0)
            self.incl_ns.append(0)
            self.yields.append(0)
        return self._nid[name]

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [self.package] + self.modules
        for layer, module in enumerate(self.modules):
            layer_name = LAYERS[layer]
            skip = UNWRAPPED.get(layer_name, set())
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or name in skip:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrapper(obj, f"{layer_name}.{name}", layer)
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            self._patch(setattr, ns, name, wrapper)
            for (owner_layer, cls_name), methods in METHODS.items():
                if owner_layer != layer_name:
                    continue
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = vars(cls)[meth]
                    span = f"{layer_name}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrapper(raw.__func__, span, layer))
                    else:
                        new = self._wrapper(raw, span, layer)
                    self._patch(setattr, cls, meth, new)
        families = self.modules[FAMILIES]
        for spec in families.REGISTRY.values():
            for field in ("closed_form", "special_recurrence"):
                fn = getattr(spec, field)
                if fn is not None:
                    name = getattr(fn, "__name__", "callable")
                    wrapper = self._wrapper(fn, f"families.{field}.{name}", FAMILIES)
                    self._patch(object.__setattr__, spec, field, wrapper)
        nid = self._nid.get
        self._compose = nid("series.Series.compose", -1)
        self._reversion = nid("series.Series.reversion", -1)
        self._trees = nid("trees.enumerate_ordered_trees", -1)
        self._labellings = nid("trees.iter_increasing_labellings", -1)

    def uninstall(self) -> None:
        for setter, owner, attribute, original in reversed(self._patches):
            setter(owner, attribute, original)
        self._patches.clear()
        self._wrappers.clear()

    def _patch(self, setter, owner, attribute, new) -> None:
        original = vars(owner)[attribute]
        self._patches.append((setter, owner, attribute, original))
        setter(owner, attribute, new)

    # -- spans ---------------------------------------------------------

    def _wrapper(self, fn, span: str, layer: int):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        nid = self._name_id(span, layer)
        stack = self._stack
        traced_iter = self._traced_iter
        open_span = self._open
        close = self._close
        on_return = self._on_return(span)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if stack and stack[-1][1] == nid:  # recursion inside its own next()
                    return fn(*args, **kwargs)
                return traced_iter(fn(*args, **kwargs), nid, layer)
        else:
            def wrapper(*args, **kwargs):
                if stack and stack[-1][1] == nid:
                    return fn(*args, **kwargs)
                frame = open_span(nid, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(frame)
                if on_return is not None:
                    on_return(result)
                if type(result) is GeneratorType:
                    return traced_iter(result, nid, layer)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span)
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _open(self, nid: int, layer: int) -> list:
        stack = self._stack
        index = len(self.starts)
        start = perf_counter_ns()
        self.starts.append(start)
        self.ends.append(0)
        self.parents.append(stack[-1][0] if stack else -1)
        self.name_ids.append(nid)
        self.requests.append(self.request)
        self._active[layer] += 1
        frame = [index, nid, layer, start, 0]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        index, nid, layer, start, child = frame
        stack = self._stack
        stack.pop()
        active = self._active
        active[layer] -= 1
        self.ends[index] = end
        duration = end - start
        own = duration - child
        self.self_ns[layer] += own
        self.count[nid] += 1
        self.incl_ns[nid] += duration
        if stack:
            stack[-1][4] += duration
        extra = self.extra
        if layer == SERIES:
            if nid == self._compose and active[SOLVERS]:
                extra["compose_in_solvers"] += 1
            elif nid == self._reversion and active[REVERSE]:
                extra["reversion_under_reverse_ns"] += duration
        elif layer == TREES and active[HOOKS]:
            extra["trees_self_under_hooks_ns"] += own
        elif layer == SOLVERS and active[HOOKS] and not active[SOLVERS]:
            extra["solvers_under_hooks_ns"] += duration

    def _traced_iter(self, iterator, nid: int, layer: int):
        open_span = self._open
        close = self._close
        yields = self.yields
        active = self._active
        extra = self.extra
        tree_nid = self._trees
        labelling_nid = self._labellings
        while True:
            frame = open_span(nid, layer)
            try:
                item = next(iterator)
            except StopIteration:
                close(frame)
                return
            except BaseException:
                close(frame)
                raise
            close(frame)
            yields[nid] += 1
            if nid == tree_nid and active[HOOKS]:
                extra["trees_under_hooks"] += 1
            elif nid == labelling_nid and active[BIJECTIONS]:
                extra["labellings_under_bijections"] += 1
            yield item

    def _on_return(self, span: str):
        """Counters read from a return value, for the few spans that need one."""
        extra = self.extra
        if span.startswith("solvers.solve_"):
            def on_return(seq):
                extra["terms"] += len(seq)
                bits = max((abs(v.numerator).bit_length() for v in seq), default=0)
                if bits > extra["max_bits"]:
                    extra["max_bits"] = bits
            return on_return
        if span in ("bijections.verify_chain_bijection", "bijections.verify_split_bijection"):
            def on_return(report):
                extra["objects"] += sum(report.domain_sizes)
            return on_return
        return None

    # -- output ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Self seconds per layer plus the raw counters."""
        def count(name):
            return self.count[self._nid[name]] if name in self._nid else 0

        def calls(layer):
            return sum(c for c, l in zip(self.count, self.name_layer) if l == layer)

        def incl(*names):
            return sum(self.incl_ns[self._nid[n]] for n in names if n in self._nid) / 1e9

        def yielded(name):
            return self.yields[self._nid[name]] if name in self._nid else 0

        extra = self.extra
        return {
            "self_s": {LAYERS[i]: ns / 1e9 for i, ns in enumerate(self.self_ns)},
            "series.mul_calls": count("series.Series.__mul__") + count("series.Series.__rmul__"),
            "series.compose_calls": count("series.Series.compose"),
            "series.reversion_calls": count("series.Series.reversion"),
            "solvers.calls": calls(SOLVERS),
            "solvers.terms": extra["terms"],
            "solvers.max_bits": extra["max_bits"],
            "solvers.compose_in_solvers": extra["compose_in_solvers"],
            # the alias DegreeWeights.__call__ shares this span
            "weights.coefficient_calls": count("weights.DegreeWeights.coefficient"),
            "trees.trees_yielded": yielded("trees.enumerate_ordered_trees"),
            "trees.labellings_yielded": yielded("trees.iter_increasing_labellings"),
            "hooks.trees_visited": extra["trees_under_hooks"],
            "hooks.trees_self_s": extra["trees_self_under_hooks_ns"] / 1e9,
            "hooks.rhs_s": extra["solvers_under_hooks_ns"] / 1e9,
            "bijections.objects": extra["objects"],
            "bijections.verify_s": incl(
                "bijections.verify_chain_bijection", "bijections.verify_split_bijection"
            ),
            "bijections.labellings": extra["labellings_under_bijections"],
            "reverse.reversion_s": extra["reversion_under_reverse_ns"] / 1e9,
            "reverse.roundtrip_s": incl("reverse.round_trip_check"),
            "families.calls": calls(FAMILIES),
            "spans": len(self.starts),
        }

    def write_spans(self, path: str) -> None:
        """One JSON header line (name table, field layout), then the raw
        arrays in the order of the header's ``arrays`` list."""
        fields = ("starts", "ends", "parents", "name_ids", "requests")
        header = {
            "spans": len(self.starts),
            "names": self.names,
            "layers": [LAYERS[l] for l in self.name_layer],
            "arrays": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
            "clock": "perf_counter_ns",
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(handle)
