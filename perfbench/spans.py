"""Span tracing of the verifier's public callables, installed from outside.

The tracer rebinds each traced callable to a wrapper that records one
span per call: its name, start and end (``time.perf_counter`` seconds),
the span that was open when it started, and the id of the benchmark
item (one suite run or one mutant) it belongs to.  Spans stay in
compact arrays in memory and are written once, when the run ends.

A function imported with ``from ..jetalg import name`` is a separate
binding in every importing module, so each binding is rebound; class
attributes are rebound on the class, which covers every instance; a
check's ``CheckSpec.runner`` was bound when the registry was built, so
each spec is rebound too.  ``uninstall`` puts every original back, and
``traced_bindings`` reports any binding that is not the original, which
the untraced runs use to prove they carry no tracing.
"""

import json
import sys
import time
from array import array

# (defining module, function, span name); the suite entry points are
# the root span of every item
FUNCTIONS = (
    ("jetalg", "total_derivative", "jetalg.total_derivative"),
    ("jetalg", "partial_derivative", "jetalg.partial_derivative"),
    ("jetalg", "euler_derivative", "jetalg.euler_derivative"),
    ("jetalg", "substitute", "jetalg.substitute"),
    ("jetalg", "antiderivative", "jetalg.antiderivative"),
    ("jetalg", "random_eval", "jetalg.random_eval"),
    ("verify.suite", "run_suite", "verify.run_suite"),
    ("verify.suite", "run_mutated", "verify.run_mutated"),
)

# (module, class, attribute) -> span name; reflected operators share the
# function object of their forward form and therefore its span name
METHODS = (
    ("jetalg", "JetExpr", "__mul__", "jetalg.expr_mul"),
    ("jetalg", "JetExpr", "__rmul__", "jetalg.expr_mul"),
    ("jetalg", "JetExpr", "__add__", "jetalg.expr_add"),
    ("jetalg", "JetExpr", "__radd__", "jetalg.expr_add"),
    ("jetalg", "JetExpr", "__pow__", "jetalg.expr_pow"),
    ("jetalg", "RelationSet", "reduce", "jetalg.reduce"),
    ("opcalc", "NonlocalStore", "resolve_dinv", "opcalc.resolve_dinv"),
    ("opcalc", "NonlocalStore", "resolve_inv", "opcalc.resolve_inv"),
    ("opcalc", "PseudoOp", "compose", "opcalc.pseudo_compose"),
    ("opcalc", "PseudoOp", "apply", "opcalc.pseudo_apply"),
    ("opcalc", "LocalOp", "apply", "opcalc.local_apply"),
    ("opcalc", "MatrixOp", "apply", "opcalc.matrix_apply"),
    ("opcalc", "LocalOp", "adjoint", "opcalc.adjoint"),
    ("opcalc", "PseudoOp", "adjoint", "opcalc.adjoint"),
    ("opcalc", "MatrixOp", "adjoint", "opcalc.adjoint"),
    ("catalog", "CatalogView", "entry", "catalog.entry"),
    ("catalog", "CatalogView", "with_mutation", "catalog.with_mutation"),
)

PACKAGE = "jetverify"


def _bindings():
    """Every (owner, attribute, span name, original) the tracer rebinds.

    Originals are read from where each callable is defined, so a
    binding elsewhere that differs from them is a leftover wrapper."""
    def module(name):
        return sys.modules[PACKAGE + "." + name]

    package = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE
                                     or name.startswith(PACKAGE + "."))]
    out = []
    for modname, fname, span in FUNCTIONS:
        original = _unwrapped(getattr(module(modname), fname))
        for mod in package:
            if _unwrapped(vars(mod).get(fname)) is original:
                out.append((mod, fname, span, original))
    for modname, clsname, attr, span in METHODS:
        cls = getattr(module(modname), clsname)
        out.append((cls, attr, span, _unwrapped(cls.__dict__[attr])))
    for spec in module("verify.suite").CHECKS:
        out.append((spec, "runner", "verify." + spec.name,
                    _unwrapped(spec.runner)))
    return out


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def traced_bindings():
    """Names of bindings that are not the original callable."""
    return ["%s.%s" % (getattr(owner, "__name__", type(owner).__name__),
                       attr)
            for owner, attr, _span, original in _bindings()
            if getattr(owner, attr) is not original]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.item_id = -1
        self.aux_allocated = 0
        self._open = [-1]
        self._patched = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span_name):
        """fn recording one span per call under span_name."""
        nid = self._name_id(span_name)
        start, end, name, parent, item = (self.start, self.end, self.name,
                                          self.parent, self.item)
        open_spans = self._open
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(open_spans[-1])
            item.append(tracer.item_id)
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()

        return traced

    def _count_allocations(self, resolve_dinv):
        tracer = self

        def counted(store, arg):
            before = len(store.allocated)
            try:
                return resolve_dinv(store, arg)
            finally:
                tracer.aux_allocated += len(store.allocated) - before

        return counted

    def install(self):
        wrappers = {}
        for owner, attr, span, original in _bindings():
            if id(original) not in wrappers:
                inner = original
                if span == "opcalc.resolve_dinv":
                    inner = self._count_allocations(original)
                wrappers[id(original)] = self._wrap(inner, span)
                wrappers[id(original)].__wrapped__ = original
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def layer_totals(self, seconds):
        """{span name: (calls, self seconds, total seconds)}.

        ``seconds(start, end)`` gives a span's total time; its self time
        is that less the total times of the spans it directly caused."""
        n = len(self.start)
        parent, name = self.parent, self.name
        total_of = [seconds(a, b) for a, b in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += total_of[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        for i in range(n):
            k = name[i]
            calls[k] += 1
            own[k] += total_of[i] - child[i]
            total[k] += total_of[i]
        return {self.names[k]: (calls[k], own[k], total[k])
                for k in range(len(self.names))}

    def write(self, path, **extra):
        """A JSON header line, then each column's raw native array: the
        span columns, then any extra named arrays."""
        columns = (("start", self.start), ("end", self.end),
                   ("name", self.name), ("parent", self.parent),
                   ("item", self.item)) + tuple(sorted(extra.items()))
        header = {
            "spans": len(self.start),
            "names": self.names,
            "clock": "time.perf_counter seconds",
            "byteorder": sys.byteorder,
            "columns": [[label, col.typecode, col.itemsize, len(col)]
                        for label, col in columns],
            "parent": "row index of the enclosing span, -1 at a root",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for _label, col in columns:
                col.tofile(fh)
