"""Per-call spans around the public functions of hyperlog's modules.

The tracer replaces each public function of the layer modules with a wrapper
in every hyperlog namespace that bound it (by ``from .x import y`` or by
definition), so calls between modules and inside one module both pass
through it.  Each call records one span: function, parent span, input id,
start and end.  Spans stay in memory and are written out when the run ends.
A call's self time is its duration minus the durations of the traced calls
directly under it.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter

LAYERS = ("ordinal", "monomial", "series", "calculus", "composition", "cli",
          "render")
EXPANSIONS = ("series.ser_mul_inverse", "series.ser_log", "series.ser_pow")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield name, obj


class Tracer:
    def __init__(self):
        from hyperlog.series import Series
        self._series_type = Series
        self.names = []        # "layer.function" per traced function
        self.originals = []    # the function objects that were wrapped
        self.calls = []
        self.self_s = []
        self.fn = array("i")
        self.parent = array("l")
        self.input = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.input_id = -1
        self.products = 0      # sum of |a|*|b| over ser_mul calls
        self.kept = 0          # sum of result terms over ser_mul calls
        self.terms_in = 0      # sum of input terms over make_series calls
        self.peak = 0          # largest Series returned during this input
        self._stack = []
        self._child = []
        self._patched = []     # (namespace, attribute, original)

    # -- installing -------------------------------------------------------
    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["hyperlog." + layer]
            for name, fn in _public_functions(module):
                idx = len(self.names)
                self.names.append("%s.%s" % (layer, name))
                self.originals.append(fn)
                self.calls.append(0)
                self.self_s.append(0.0)
                wrappers[id(fn)] = self._wrap(idx, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "hyperlog" and not modname.startswith("hyperlog."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, idx, fn):
        tracer = self
        stack, child = self._stack, self._child
        fns, parents, inputs = self.fn, self.parent, self.input
        t0s, t1s = self.t0, self.t1
        calls, selfs = self.calls, self.self_s
        series_type = self._series_type
        name = self.names[idx]
        count_mul = name == "series.ser_mul"
        count_make = name == "series.make_series"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_make:
                terms = args[0]
                if not hasattr(terms, "__len__"):
                    terms = list(terms)
                    args = (terms,) + args[1:]
                tracer.terms_in += len(terms)
            sid = len(t0s)
            fns.append(idx)
            parents.append(stack[-1] if stack else -1)
            inputs.append(tracer.input_id)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(sid)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                inner = child.pop()
                took = end - start
                if child:
                    child[-1] += took
                t0s[sid] = start
                t1s[sid] = end
                calls[idx] += 1
                selfs[idx] += took - inner
            if type(result) is series_type:
                n = len(result.terms)
                if n > tracer.peak:
                    tracer.peak = n
                if count_mul:
                    tracer.products += len(args[0].terms) * len(args[1].terms)
                    tracer.kept += n
            return result

        return wrapper

    # -- per input --------------------------------------------------------
    def start_input(self, input_id):
        self.input_id = input_id
        self.peak = 0
        self._stack.clear()   # a deadline may have cut spans short
        self._child.clear()

    # -- results ----------------------------------------------------------
    def cache_counts(self):
        """(hits, misses) of every traced function that has a cache."""
        out = {}
        for name, fn in zip(self.names, self.originals):
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[name] = (info.hits, info.misses)
        return out

    def write_spans(self, path):
        """Write the spans: a JSON header line, then the five arrays."""
        header = {"names": self.names, "spans": len(self.t0),
                  "arrays": [["fn", "i"], ["parent", "l"], ["input", "i"],
                             ["t0", "d"], ["t1", "d"]]}
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.fn, self.parent, self.input, self.t0, self.t1):
                arr.tofile(out)


def layer_metrics(rounds):
    """Per-layer metrics summed over the traced rounds of one run.

    Each element of ``rounds`` is the "trace" record a traced worker returns.
    """
    calls, self_s = {}, {}
    hits = {}
    products = kept = terms_in = distinct = 0
    peak = 0
    blowups = []
    for rec in rounds:
        for name, (n, s) in rec["functions"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        for name, (h, m) in rec["caches"].items():
            old = hits.get(name, (0, 0))
            hits[name] = (old[0] + h, old[1] + m)
        products += rec["products"]
        kept += rec["kept"]
        terms_in += rec["terms_in"]
        distinct = max(distinct, rec["monomials"])
        peak = max(peak, rec["peak_terms"])
        blowups.extend(rec["blowups"])

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    def ratio(name):
        h, m = hits.get(name, (0, 0))
        return h / (h + m) if h + m else 0.0

    out = {
        "cli.parse.self_s": (self_s.get("cli.parse", 0.0), "s"),
        "render.format_value.self_s": (self_s.get("render.format_value", 0.0), "s"),
        "ordinal.calls": (layer("ordinal", calls), "count"),
        "ordinal.self_s": (layer("ordinal", self_s), "s"),
        "monomial.mono_mul.calls": (calls.get("monomial.mono_mul", 0), "count"),
        "monomial.mono_compare.calls": (calls.get("monomial.mono_compare", 0),
                                        "count"),
        "monomial.self_s": (layer("monomial", self_s), "s"),
        "monomial.distinct": (distinct, "count"),
        "series.make_series.calls": (calls.get("series.make_series", 0), "count"),
        "series.make_series.self_s": (self_s.get("series.make_series", 0.0), "s"),
        "series.make_series.terms_in": (terms_in, "count"),
        "series.ser_add.self_s": (self_s.get("series.ser_add", 0.0), "s"),
        "series.expansions.self_s": (sum(self_s.get(n, 0.0) for n in EXPANSIONS),
                                     "s"),
        "series.ser_mul.calls": (calls.get("series.ser_mul", 0), "count"),
        "series.ser_mul.self_s": (self_s.get("series.ser_mul", 0.0), "s"),
        "series.ser_mul.products": (products, "count"),
        "series.ser_mul.kept_ratio": (kept / products if products else 0.0,
                                      "ratio"),
        "series.peak_terms": (peak, "count"),
        "series.blowup": (statistics.median(blowups) if blowups else 0.0,
                          "ratio"),
        "calculus.derive.calls": (calls.get("calculus.derive", 0), "count"),
        "calculus.derive.self_s": (self_s.get("calculus.derive", 0.0), "s"),
        "calculus.integrate.self_s": (self_s.get("calculus.integrate", 0.0), "s"),
        "composition.compose.calls": (calls.get("composition.compose", 0),
                                      "count"),
    }
    for fn in ("compose", "compose_hyperlog", "up3", "taylor_compose", "invert"):
        name = "composition.%s" % fn
        out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("ordinal.ord_compare", "monomial.mono_mul",
                 "monomial.mono_compare"):
        if name in hits:
            out[name + ".hit_ratio"] = (ratio(name), "ratio")
    return out
