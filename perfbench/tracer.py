"""Outside-in span tracer for the hermflow package.

The tracer wraps every function defined at module level in each layer
module (``hermflow.<layer>``) and rebinds every attribute of every loaded
``hermflow.*`` module that holds one of those function objects.  Modules
bind helpers with ``from .x import y``, so patching only the defining module
would miss the copies (``value_function.sample_increment_array`` is the same
object as ``matrix_core.sample_increment_array``).  Imports made inside a
function body read the module attribute at call time and see the wrapper.

A layer span opens only when a call enters a layer from outside it: a call
whose caller is already inside the same layer is folded into the outer span.
The functions in ``TIMED`` also get a span of their own when called from
inside their layer; such a span does not count as an entry into the layer.
Spans are kept in memory; ``summary()`` reduces them to per-layer and
per-function totals after the run.  Nothing here
touches an RNG or the arguments and results of the wrapped functions, so
seeded outputs are unchanged.

Only module-level functions are wrapped.  Methods run inside the span of
their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time

PACKAGE = "hermflow"
LAYERS = ("cli", "matrix_core", "nc_poly", "potentials", "value_function", "laplace", "gibbs")

# Span record fields (a list, so the end time can be filled in place).
NAME, LAYER, PARENT, START, END, ENTRY = range(6)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _probe_increments(args, kwargs, result):
    """Normal draws made by one sample_increment_array call: 2 n^2 m prod(batch)."""
    n = _arg(args, kwargs, 0, "n")
    m = _arg(args, kwargs, 1, "m")
    batch = _arg(args, kwargs, 4, "batch", ())
    return {"normals": 2 * n * n * m * math.prod(batch)}


def _probe_cayley(args, kwargs, result):
    shape = _arg(args, kwargs, 0, "x").shape
    return {"matrices": math.prod(shape[:-2])}


def _probe_drift(args, kwargs, result):
    if result.get("deterministic", False):
        return {}
    draws = _arg(args, kwargs, 4, "draws")
    ess = [float(e) / draws for e in getattr(result["ess"], "flat", [result["ess"]])]
    return {"ess_sum": sum(ess), "ess_count": len(ess), "ess_min": min(ess)}


def _probe_mala(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 1, "steps"), "acceptance": float(result[1]["acceptance"])}


# Per-function probes: they read arguments and results, never modify them.
PROBES = {
    "matrix_core.sample_increment_array": _probe_increments,
    "matrix_core.cayley": _probe_cayley,
    "value_function.drift_core_array": _probe_drift,
    "gibbs.mala_sample": _probe_mala,
}

# Functions timed on every call, also from inside their own layer, with the
# fields the benchmark reports for each.
TIMED = {
    "matrix_core.sample_increment_array": ("calls", "s", "normals"),
    "matrix_core.cayley": ("calls", "s", "matrices"),
    "nc_poly.eval_word_array": ("calls",),
    "potentials.eval_potential_array": ("calls",),
    "potentials.gradient_potential_array": ("calls", "s"),
    "value_function.drift_core_array": ("calls", "s"),
    "value_function.value_h": ("s",),
    "laplace.lhs_log_laplace": ("s",),
    "laplace.rhs_control_cost": ("s",),
    "gibbs.mala_sample": ("s",),
}


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.summary()`` afterwards."""

    def __init__(self, probes=None, timed=None):
        self.probes = PROBES if probes is None else probes
        self.timed = TIMED if timed is None else timed
        self.spans: list = []
        self.passthrough = 0
        self.probe_values: dict = {}
        self.functions: set = set()  # "layer.function" names that were wrapped
        self._patched: list = []  # (module, attribute, original)
        self._local = threading.local()
        self._root_stack: list = []

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        probe = self.probes.get(name)
        timed = name in self.timed
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span is caused by whatever the tracing
            # thread is running (the call that submitted the work).
            parent = stack[-1] if stack else (tracer._root_stack[-1] if tracer._root_stack else None)
            entry = parent is None or parent[LAYER] != layer
            if not (entry or timed):
                tracer.passthrough += 1
                return fn(*args, **kwargs)
            rec = [name, layer, parent, clock(), 0.0, entry]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if probe is not None:
                tracer.probe_values.setdefault(name, []).append(probe(args, kwargs, result))
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for obj in list(vars(mod).values()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(obj, layer))
                    self.functions.add(f"{layer}.{obj.__name__}")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        self._root_stack = self._stack()

    def restore(self) -> list:
        """Put every patched attribute back; return those that did not come back."""
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        left = [
            f"{mod.__name__}.{attr}"
            for mod, attr, original in self._patched
            if getattr(mod, attr, None) is not original
        ]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(PACKAGE):
                continue
            for attr, val in vars(mod).items():
                if hasattr(val, "__wrapped_original__"):
                    left.append(f"{modname}.{attr}")
        return sorted(set(left))

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.not_restored = self.restore()
        return False

    # -- reduction -----------------------------------------------------------

    def calibrate(self, reps: int = 20000) -> dict:
        """Per-call cost of the wrapper on a no-op, for spans and pass-throughs."""

        def noop():
            return None

        probe_tracer = Tracer(probes={}, timed=())
        outer = probe_tracer.wrap(noop, "outer")
        inner = probe_tracer.wrap(noop, "outer")

        def run(fn):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            return (time.perf_counter() - t0) / reps

        bare = run(noop)
        span = run(outer) - bare
        stack = probe_tracer._stack()
        stack.append(["outer.x", "outer", None, 0.0, 0.0, True])
        through = run(inner) - bare
        stack.pop()
        return {"span_s": max(span, 0.0), "passthrough_s": max(through, 0.0)}

    def summary(self, wall_s: float) -> dict:
        """Per-layer and per-function totals over the recorded spans.

        A layer's ``calls`` counts entries into it, a function's counts all
        its spans.  ``s`` of a layer or function is the time covered by its
        outermost spans; ``self_s`` subtracts the part of each span's
        interval that its child spans cover.  Self times of all layers plus
        ``uncovered_s`` add up to ``wall_s``, the traced in-process wall time.
        """
        children: dict = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                children.setdefault(id(rec[PARENT]), []).append(rec)

        def covered(rec) -> float:
            kids = sorted((c[START], c[END]) for c in children.get(id(rec), ()))
            total, cur_s, cur_e = 0.0, None, None
            for s, e in kids:
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        total += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                total += cur_e - cur_s
            return total

        def inside(rec, key: int, value: str) -> bool:
            p = rec[PARENT]
            while p is not None:
                if p[key] == value:
                    return True
                p = p[PARENT]
            return False

        layers = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in LAYERS}
        functions: dict = {}
        self_total = 0.0
        for rec in self.spans:
            dur = rec[END] - rec[START]
            own = dur - covered(rec)
            self_total += own
            lay = layers.setdefault(rec[LAYER], {"calls": 0, "s": 0.0, "self_s": 0.0})
            fun = functions.setdefault(rec[NAME], {"calls": 0, "s": 0.0})
            lay["calls"] += rec[ENTRY]
            fun["calls"] += 1
            lay["self_s"] += own
            if not inside(rec, LAYER, rec[LAYER]):
                lay["s"] += dur
            if not inside(rec, NAME, rec[NAME]):
                fun["s"] += dur
        for name in self.functions:
            functions.setdefault(name, {"calls": 0, "s": 0.0})
        for name, values in self.probe_values.items():
            fun = functions[name]
            for entry in values:
                for key, val in entry.items():
                    if key.endswith("_min"):
                        fun[key] = min(fun.get(key, val), val)
                    else:
                        fun[key] = fun.get(key, 0) + val

        nested = {
            "cayley_in_drift": sum(
                1 for r in self.spans
                if r[NAME] == "matrix_core.cayley" and inside(r, NAME, "value_function.drift_core_array")
            ),
            "potential_calls_in_mala": sum(
                1 for r in self.spans
                if r[LAYER] == "potentials" and r[ENTRY] and inside(r, NAME, "gibbs.mala_sample")
            ),
        }
        cost = self.calibrate()
        return {
            "wall_s": wall_s,
            "layers": layers,
            "functions": functions,
            "nested": nested,
            "spans": len(self.spans),
            "passthrough": self.passthrough,
            "uncovered_s": wall_s - self_total,
            "overhead_s": len(self.spans) * cost["span_s"] + self.passthrough * cost["passthrough_s"],
            "wrapper_cost": cost,
        }
