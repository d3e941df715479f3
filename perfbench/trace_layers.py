"""Per-layer counts and self times for a traced pass, taken from outside weylkit.

The tracer wraps weylkit's public functions where each module, and the
benchmark, imported them: every global name bound to a wrapped function is
rebound to a wrapper that counts the call and records a span.  A layer is a
weylkit module.  A span's self time is its duration minus the durations of
the spans it caused, so a layer's self time is the time spent in its own
code.  The small vector helpers of ``exact`` (dot, mat_vec, mat_mul, ...)
are not wrapped: a span per call would cost more than the work, so their
time counts to the caller's layer.  ``mat_vec`` is counted, without a span,
where ``soergel`` calls it.  Cache hits and misses come from the
``cache_info()`` of weylkit's ``lru_cache`` functions.  ``soergel.trunc_dim``
adds up the dimensions of every truncated model that
``TruncModule.from_bimodule`` returns.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

LAYERS = ("exact", "rootdata", "affine", "integral", "metaplectic", "hecke", "duality", "soergel")

# public helpers of exact too small for a span
_UNWRAPPED = {"vec_add", "vec_sub", "vec_scale", "dot", "mat_vec", "mat_mul", "transpose", "identity", "mat_eq", "mat_neg"}
# private functions another layer imports, wrapped so their time stays in their layer
_SHARED_PRIVATE = {("rootdata", "_simple_coeffs"), ("integral", "_coset_points_in_box")}
# methods wrapped on their class
_METHODS = (("rootdata", "RootDatum", "is_positive_coroot"), ("rootdata", "RootDatum", "positive_root_indices"))
# names counted without a span, per calling layer
_COUNTED = (("soergel", "mat_vec"),)
_CACHES = (("rootdata", "weyl_elements"), ("integral", "integral_simple_system"), ("integral", "_progressions_cached"))
_ELIM = ("det", "rank", "solve_linear", "mat_inv")


def _is_function(obj):
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self, extra_namespaces=()):
        self.modules = {name: importlib.import_module(f"weylkit.{name}") for name in LAYERS}
        self.namespaces = dict(self.modules)
        for mod in extra_namespaces:
            self.namespaces["bench:" + mod.__name__] = mod
        self.calls = defaultdict(int)  # "layer.function" -> calls
        self.caller_calls = defaultdict(int)  # "calling layer.function" -> calls
        self.func_self = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.trunc_dim = 0
        self.stack = []
        self.cache_base = {}

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(layer, name, function) for every function that gets a span."""
        out = []
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if not _is_function(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and (layer, name) not in _SHARED_PRIVATE:
                    continue
                if layer == "exact" and name in _UNWRAPPED:
                    continue
                out.append((layer, name, obj))
        return out

    def install(self):
        targets = {id(fn): (layer, name) for layer, name, fn in self._targets()}
        for ns_name, mod in self.namespaces.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    layer, name = targets[id(obj)]
                    setattr(mod, attr, self._span(layer, name, obj, ns_name))
        for layer, cls_name, meth in _METHODS:
            cls = getattr(self.modules[layer], cls_name)
            setattr(cls, meth, self._span(layer, meth, getattr(cls, meth), layer))
        for layer, name in _COUNTED:
            mod = self.modules[layer]
            setattr(mod, name, self._counter(layer, name, getattr(mod, name)))
        trunc = self.modules["soergel"].TruncModule
        build = trunc.from_bimodule

        def from_bimodule(*args, **kwargs):
            mod = build(*args, **kwargs)
            self.trunc_dim += sum(mod.dims)
            return mod

        trunc.from_bimodule = staticmethod(from_bimodule)

    def _span(self, layer, name, fn, caller):
        key, caller_key = f"{layer}.{name}", f"{caller}.{name}"
        calls, caller_calls, stack = self.calls, self.caller_calls, self.stack
        func_self, layer_self, clock = self.func_self, self.layer_self, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            caller_calls[caller_key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[0]
                func_self[key] += own
                layer_self[layer] += own
                if stack:
                    stack[-1][0] += duration

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, caller, name, fn):
        key, caller_calls = f"{caller}.{name}", self.caller_calls

        def wrapper(*args, **kwargs):
            caller_calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def _cache_info(self, layer, name):
        fn = getattr(self.modules[layer], name)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        return fn.cache_info()

    def reset(self):
        """Forget what set-up did; the timed scenarios start from here."""
        for d in (self.calls, self.caller_calls, self.func_self, self.layer_self):
            d.clear()
        self.trunc_dim = 0
        self.cache_base = {(layer, name): self._cache_info(layer, name) for layer, name in _CACHES}

    def report(self) -> dict:
        """Counts, self times and cache figures since the last reset."""
        caches = {}
        for layer, name in _CACHES:
            info, base = self._cache_info(layer, name), self.cache_base[layer, name]
            caches[f"{layer}.{name}"] = {
                "hits": info.hits - base.hits,
                "misses": info.misses - base.misses,
                "size": info.currsize,
            }
        return {
            "calls": dict(self.calls),
            "caller_calls": dict(self.caller_calls),
            "func_self_s": dict(self.func_self),
            "layer_self_s": dict(self.layer_self),
            "caches": caches,
            "trunc_dim": self.trunc_dim,
        }


def per_layer_metrics(trace: dict, stats: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass: a dict
    name -> (value, unit).  `stats` holds the sizes read from outputs."""
    calls, caller_calls = trace["calls"], trace["caller_calls"]
    fself, lself, caches = trace["func_self_s"], trace["layer_self_s"], trace["caches"]

    def ratio(cache):
        c = caches[cache]
        total = c["hits"] + c["misses"]
        return c["hits"] / total if total else 0.0

    out = {
        "rootdata.is_positive_coroot.calls": (calls.get("rootdata.is_positive_coroot", 0), "count"),
        "rootdata.positive_root_indices.calls": (calls.get("rootdata.positive_root_indices", 0), "count"),
        "rootdata.weyl_elements.hit_ratio": (ratio("rootdata.weyl_elements"), "ratio"),
        "exact.elim.calls": (sum(calls.get(f"exact.{f}", 0) for f in _ELIM), "count"),
        "exact.elim.self_s": (sum(fself.get(f"exact.{f}", 0.0) for f in _ELIM), "s"),
        "exact.snf.calls": (calls.get("exact.smith_normal_form", 0), "count"),
        "exact.snf.self_s": (fself.get("exact.smith_normal_form", 0.0), "s"),
        "affine.element_length.calls": (calls.get("affine.element_length", 0), "count"),
        "affine.simple_system_from_progressions.calls": (calls.get("affine.simple_system_from_progressions", 0), "count"),
        "affine.component_is_finite.calls": (calls.get("affine.component_is_finite", 0), "count"),
        "integral.integral_simple_system.calls": (calls.get("integral.integral_simple_system", 0), "count"),
        "integral.integral_simple_system.hit_ratio": (ratio("integral.integral_simple_system"), "ratio"),
        "integral.progressions.hit_ratio": (ratio("integral._progressions_cached"), "ratio"),
        "integral.minimal_rep.calls": (calls.get("integral.minimal_rep", 0), "count"),
        "integral.weyl_stabilizer.calls": (calls.get("integral.weyl_stabilizer", 0), "count"),
        "metaplectic.bullet_weyl_compare.calls": (calls.get("metaplectic.bullet_weyl_compare", 0), "count"),
        "hecke.t_multiply.calls": (calls.get("hecke.t_multiply", 0), "count"),
        "hecke.integral_length.calls": (caller_calls.get("hecke.integral_length", 0), "count"),
        "hecke.support_terms": (stats.get("support_terms", 0), "count"),
        "duality.alcove_match.calls": (calls.get("duality.alcove_match", 0), "count"),
        "duality.same_alcove.calls": (calls.get("duality.same_alcove", 0), "count"),
        "duality.level_slice_act.calls": (calls.get("duality.level_slice_act", 0), "count"),
        "soergel.quotient_module.calls": (calls.get("soergel.quotient_module", 0), "count"),
        "soergel.quotient_module.self_s": (fself.get("soergel.quotient_module", 0.0), "s"),
        "soergel.graph_sections.self_s": (fself.get("soergel.graph_sections", 0.0), "s"),
        "soergel.mat_vec.calls": (caller_calls.get("soergel.mat_vec", 0), "count"),
        "soergel.trunc_dim": (trace["trunc_dim"], "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (lself.get(layer, 0.0), "s")
    return out
