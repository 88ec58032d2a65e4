"""Span tracer that wraps matpowlab's public functions from outside.

``Tracer.install()`` replaces every public function of the layer modules
(and the three harness entry points) by a wrapper that records a span: name,
start, end, parent span, instance id and self time.  The wrapper is set under
every name that any ``matpowlab`` module bound to the function, so nested
calls such as ``count_Q`` inside ``matrix_element_check`` also get spans.
Spans stay in memory as parallel arrays; ``uninstall()`` puts the original
functions back.

The methods of the classes that ``ffield`` and ``matgrp`` define (field
elements, field contexts, matrices, vectors) are wrapped on their classes as
well, so element and matrix arithmetic is charged to those layers and not to
the caller.  A pass makes millions of these calls, so they are aggregated per
method (calls and self time) instead of being recorded as spans.  Public and
dunder methods, static methods and property getters are wrapped; private
helpers run inside them.

Self time is span time minus the time of its direct children, spans and
aggregated method calls alike, kept on a stack while the calls run.

Work counters are read from the values the wrapped functions return, never
from inside the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("ffield", "matgrp", "counting", "charsums", "curves", "catmap")
# Layers whose class methods are wrapped (aggregated, not recorded as spans).
TYPE_LAYERS = ("ffield", "matgrp")
HARNESS = (("runner", "run_experiment"), ("experiments", "build_instances"),
           ("experiments", "compute_instance"))
# Kernels whose self time is reported on its own.
KERNELS = {
    "counting": ("count_Q", "sumset_cover", "orbit_sum_distribution",
                 "count_product_eq", "sequence_energy"),
    "charsums": ("matrix_exp_sum", "kloosterman_subgroup", "gauss_subgroup",
                 "sum_moment"),
    "curves": ("count_points",),
    "catmap": ("matrix_element_check", "eigenbasis", "cat_unitary", "delta_Nf"),
}
_WALK_SUMS = ("charsums.matrix_exp_sum", "charsums.kloosterman_subgroup",
              "charsums.gauss_subgroup")


def _public_functions(module):
    """Public functions defined in ``module``, lru-cached ones included."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _methods(module):
    """(class, attribute, value) for the wrappable methods of ``module``'s classes."""
    for cls in list(vars(module).values()):
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        for attr, value in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr.startswith("_") and not dunder:
                continue
            if inspect.isfunction(value) or isinstance(value, staticmethod) or (
                    isinstance(value, property) and value.fget is not None):
                yield cls, attr, value


class Tracer:
    """Records nested spans of wrapped calls; single-threaded by design."""

    def __init__(self, budget_error):
        self._budget_error = budget_error
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.own = array("d")
        self.instance_experiment: list[str] = []
        # qualname -> [calls, self seconds] of the aggregated class methods.
        self.methods: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        # Child time of each open call; the bottom slot collects top-level calls.
        self._child: list[float] = [0.0]
        self._current_instance = -1
        self._last_budget_error = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _budget_skip(self, layer, err):
        # Count the cap where it fired, not again in every caller.
        if err is not self._last_budget_error:
            self._last_budget_error = err
            self._count(f"{layer}.budget_skips")

    def _observe(self, qualname, result):
        if qualname in _WALK_SUMS:
            self._count("charsums.walk_terms", result.length)
        elif qualname == "curves.count_points":
            self._count("curves.grid_cells", result.parameters["q"] ** 2)

    def wrap(self, layer: str, name: str, fn):
        """A wrapper of ``fn`` that records one span per call."""
        qualname = f"{layer}.{name}"
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        opens_instance = qualname == "harness.compute_instance"
        tracer, stack, child = self, self._stack, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.own)
            outer_instance = tracer._current_instance
            if opens_instance:
                tracer._current_instance = len(tracer.instance_experiment)
                tracer.instance_experiment.append(args[0].experiment)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.instance.append(tracer._current_instance)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.own.append(0.0)
            stack.append(index)
            child.append(0.0)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer._budget_error as err:
                tracer._budget_skip(layer, err)
                raise
            finally:
                finish = clock()
                stack.pop()
                inner = child.pop()
                child[-1] += finish - begin
                tracer.start[index] = begin
                tracer.end[index] = finish
                tracer.own[index] = finish - begin - inner
                tracer._current_instance = outer_instance
            tracer._observe(qualname, result)
            return result

        traced.__wrapped_by_bench_tracer__ = True
        return traced

    def wrap_method(self, layer: str, name: str, fn):
        """A wrapper of ``fn`` that adds each call to a per-method tally."""
        tally = self.methods.setdefault(f"{layer}.{name}", [0, 0.0])
        tracer, child = self, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            except tracer._budget_error as err:
                tracer._budget_skip(layer, err)
                raise
            finally:
                took = clock() - begin
                inner = child.pop()
                child[-1] += took
                tally[0] += 1
                tally[1] += took - inner

        traced.__wrapped_by_bench_tracer__ = True
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the layer functions under every name matpowlab bound them to."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = []
        for layer in LAYERS:
            module = sys.modules[f"matpowlab.{layer}"]
            targets += [(layer, name, fn) for name, fn in _public_functions(module)]
        for module_name, name in HARNESS:
            module = sys.modules[f"matpowlab.harness.{module_name}"]
            targets.append(("harness", name, getattr(module, name)))
        wrappers = {id(fn): (fn, self.wrap(layer, name, fn))
                    for layer, name, fn in targets}
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer in TYPE_LAYERS:
            for cls, attr, value in _methods(sys.modules[f"matpowlab.{layer}"]):
                name = f"{cls.__name__}.{attr}"
                if isinstance(value, property):
                    wrapped = property(self.wrap_method(layer, name, value.fget),
                                       value.fset, value.fdel, value.__doc__)
                elif isinstance(value, staticmethod):
                    wrapped = staticmethod(self.wrap_method(layer, name, value.__func__))
                else:
                    wrapped = self.wrap_method(layer, name, value)
                self._patched.append((cls, attr, value))
                setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def total_self_s(self) -> float:
        """Self time of every span and every aggregated method call."""
        return sum(self.own) + sum(seconds for _, seconds in self.methods.values())

    def dump(self, path: str):
        """Write the spans as tab-separated name, start, end, self, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tself\tparent\tinstance\n")
            rows = zip(self.name_id, self.start, self.end, self.own, self.parent,
                       self.instance)
            for name_id, start, end, own, parent, instance in rows:
                fh.write(f"{self.names[name_id]}\t{start!r}\t{end!r}\t{own!r}"
                         f"\t{parent}\t{instance}\n")


def _program_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "matpowlab" or name.startswith("matpowlab."))]


def _is_wrapper(value) -> bool:
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, staticmethod):
        value = value.__func__
    return getattr(value, "__wrapped_by_bench_tracer__", False)


def leftover_wrappers() -> list[str]:
    """Names in matpowlab modules and classes still bound to a tracer wrapper."""
    left = []
    for module in _program_modules():
        for attr, value in vars(module).items():
            if _is_wrapper(value):
                left.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                left += [f"{module.__name__}.{value.__name__}.{name}"
                         for name, member in vars(value).items() if _is_wrapper(member)]
    return left


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, experiments) -> dict:
    """Per-layer self times, call counts, work counters and instance times."""
    own_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name_id, value in zip(tracer.name_id, tracer.own):
        name = tracer.names[name_id]
        own_s[name] = own_s.get(name, 0.0) + value
        calls[name] = calls.get(name, 0) + 1
    for name, (count, seconds) in tracer.methods.items():
        own_s[name] = seconds
        calls[name] = count
    metrics = {}
    for layer in LAYERS + ("harness",):
        metrics[f"{layer}.self_s"] = sum((v for k, v in own_s.items()
                                          if k.startswith(layer + ".")), 0.0)
        for kernel in KERNELS.get(layer, ()):
            metrics[f"{layer}.{kernel}.self_s"] = own_s.get(f"{layer}.{kernel}", 0.0)
        if layer != "harness":
            metrics[f"{layer}.budget_skips"] = tracer.counters.get(f"{layer}.budget_skips", 0)
    for layer in TYPE_LAYERS:
        metrics[f"{layer}.calls"] = sum(v for k, v in calls.items()
                                        if k.startswith(layer + "."))
    metrics["charsums.walk_terms"] = tracer.counters.get("charsums.walk_terms", 0)
    metrics["curves.grid_cells"] = tracer.counters.get("curves.grid_cells", 0)
    metrics["harness.emit_s"] = own_s.get("harness.run_experiment", 0.0)

    build_s = 0.0
    per_instance = []
    per_experiment = dict.fromkeys(experiments, 0.0)
    for i, name_id in enumerate(tracer.name_id):
        name = tracer.names[name_id]
        if name == "harness.build_instances":
            build_s += tracer.end[i] - tracer.start[i]
        elif name == "harness.compute_instance":
            took = tracer.end[i] - tracer.start[i]
            per_instance.append(took)
            per_experiment[tracer.instance_experiment[tracer.instance[i]]] += took
    metrics["harness.build_instances_s"] = build_s
    metrics["harness.instance_p50_ms"] = 1e3 * _quantile(per_instance, 0.50)
    metrics["harness.instance_p99_ms"] = 1e3 * _quantile(per_instance, 0.99)
    for name, took in per_experiment.items():
        metrics[f"harness.{name}_s"] = took
    return metrics
