"""Per-layer tracing from outside the program.

The tracer replaces each public function of the hardylab modules (and a
few methods named below) with a wrapper that times and counts the call,
in every module namespace that binds it, so calls between modules and
within a module are both seen. Nothing inside src/ changes, and
uninstall() puts the original functions back.

Each wrapped call is a span. A layer's self time is the duration of its
spans minus the time of the spans they caused. A "time" metric sums the
outermost calls of its functions, so a function that calls itself or a
sibling of the same metric is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "checks", "hardy", "search", "weights", "kernel", "families")

# methods traced as well as the module-level public functions
METHODS = {
    "search": [("_PrefixEngine", "candidate")],
    "weights": [("WeightSeq", name) for name in
                ("term", "partial_sum", "tail_bound", "terms_floats",
                 "partial_sums_floats")],
}


def _exact_first_arg(args, kwargs) -> bool:
    return bool(getattr(args[0], "exact", False)) if args else False


def _closed_form_mode(args, kwargs) -> bool:
    return bool(args) and isinstance(args[0], str)


# function (qualified name within its module) -> (count metrics, time metrics);
# a time metric may carry a predicate on the call's arguments
COUNTS: Dict[str, Tuple[str, ...]] = {
    "cli.main": ("cli.calls",),
    "search.maximize_hardy_ratio": ("search.solves",),
    "search._PrefixEngine.candidate": ("search.evals",),
    "kernel.evaluate": ("kernel.evaluate_calls",),
    "families.power_mean": ("families.mean_calls",),
    "families.quasiarithmetic_mean": ("families.mean_calls",),
    "weights.WeightSeq.term": ("weights.calls",),
    "weights.WeightSeq.partial_sum": ("weights.calls",),
    "weights.WeightSeq.terms_floats": ("weights.calls",),
}
TIMES: Dict[str, Tuple[Tuple[str, Optional[Callable]], ...]] = {
    "search.maximize_hardy_ratio": (("search.solve_s", None),),
    "search._PrefixEngine.candidate": (("search.eval_s", None),),
    "search.hardy_ratio": (("search.check_s", None),),
    "hardy.arithmetic_hardy": (("hardy.exact_sum_s", _exact_first_arg),),
    "hardy.geometric_probe": (("hardy.exact_sum_s", _exact_first_arg),),
    "hardy.kedlaya_estimate": (("hardy.substitution_s", None),),
    "hardy.kedlaya_sequence": (("hardy.substitution_s", None),),
    "hardy.unweighted_limit": (("hardy.substitution_s", None),),
    "checks.equal_sum_rearrangement": (("checks.rearrange_s", None),),
    "checks.verify_cut": (("checks.cut_s", _closed_form_mode),),
    "weights.WeightSeq.terms_floats": (("weights.floats_s", None),),
    "kernel.evaluate": (("kernel.evaluate_s", None),),
    "kernel.check_axioms": (("kernel.axioms_s", None),),
    "families.power_mean": (("families.mean_s", None),),
    "families.quasiarithmetic_mean": (("families.mean_s", None),),
}
# every public function of these layers counts toward <layer>.calls
LAYER_CALLS = ("hardy", "checks")


class Tracer:
    """Wraps the public functions of the given hardylab modules.

    layers maps a layer name to its module; namespaces lists every module
    whose bindings should be rewired (the layers, the package and any
    module that re-exports them). Totals accumulate until reset().
    """

    def __init__(self, layers: Dict[str, object], namespaces: List[object]):
        self.mods = layers
        self.namespaces = namespaces
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object, object]] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.per_function: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])

    def reset(self) -> None:
        self.totals = defaultdict(float)
        self.per_function = defaultdict(lambda: [0, 0.0])

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, key: str, layer: str) -> Callable:
        counts = COUNTS.get(key, ())
        if layer in LAYER_CALLS:
            counts = counts + (f"{layer}.calls",)
        times = TIMES.get(key, ())
        on_result = self._count_updates if key == "search.maximize_hardy_ratio" else None
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = [name for name, pred in times if pred is None or pred(args, kwargs)]
            for name in active:
                depth[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                totals = self.totals
                totals[f"{layer}.self_s"] += dur - frame[0]
                for name in counts:
                    totals[name] += 1
                for name in active:
                    depth[name] -= 1
                    if depth[name] == 0:
                        totals[name] += dur
                rec = self.per_function[key]
                rec[0] += 1
                rec[1] += dur
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_updates(self, result) -> None:
        self.totals["search.updates"] += result.n_updates

    def _targets(self):
        """(owner, attribute, original, key, layer) for every traced callable."""
        for layer, mod in self.mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    yield mod, name, obj, f"{layer}.{name}", layer
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                yield cls, meth, vars(cls)[meth], f"{layer}.{cls_name}.{meth}", layer

    def install(self) -> None:
        if self._patches:
            return
        wrapped = {}
        for owner, attr, orig, key, layer in self._targets():
            new = self._wrap(orig, key, layer)
            wrapped[id(orig)] = new
            if inspect.isclass(owner):
                self._patches.append((owner, attr, orig, new))
        # rebind every module-level name of a traced function, including
        # those imported into other modules (from .x import f)
        for mod in self.namespaces:
            for name, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    self._patches.append((mod, name, obj, new))
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
