"""Per-layer tracing from outside the program.

The layers are the seven modules of noethercheck. Every public function of
a layer is replaced by a wrapper in every module namespace that holds it,
so calls between modules and calls inside one module both go through the
wrapper. Each wrapper adds its call count, inclusive time and self time
(inclusive time minus the time of wrapped calls it made) to an in-memory
table, and a call that crosses from one layer into another, or enters the
program from the benchmark, also gets a span. Spans stay in memory until
the child writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array

LAYERS = ("cli", "galois", "groups", "quadforms", "localfields", "exact", "oracles")


class Tracer:
    def __init__(self) -> None:
        # qualified name -> [calls, inclusive s, self s], raw seconds
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.span_names: list[str] = []
        self.span_name: array = array("i")
        self.span_parent: array = array("i")
        self.span_item: array = array("i")
        self.span_start: array = array("d")
        self.span_end: array = array("d")
        self.item = -1
        # one frame per active wrapped call: [layer, start, child s, span]
        self._stack: list[list] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, layer: str, name: str, fn, post=None):
        key = f"{layer}.{name}"
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        self.span_names.append(key)
        name_id = len(self.span_names) - 1
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1] if stack else None
            boundary = outer is None or outer[0] != layer
            if boundary:
                span = len(self.span_name)
                self.span_name.append(name_id)
                self.span_parent.append(-1 if outer is None else outer[3])
                self.span_item.append(self.item)
                start = perf()
                self.span_start.append(start)
                self.span_end.append(start)
            else:
                span = outer[3]
                start = perf()
            frame = [layer, start, 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[2]
                if outer is not None:
                    outer[2] += dur
                if boundary:
                    self.span_end[span] = end
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every layer of the imported
        package and rebind each one wherever it was imported."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = list(modules.values()) + [package]
        posts = self._counter_hooks(modules)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(layer, name, obj, posts.get(f"{layer}.{name}"))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapped)
        groups = modules["groups"]
        post_init = groups.Subgroup.__post_init__

        def counted_post_init(sub):
            post_init(sub)
            n = len(sub.members)
            if n != sub.group.order:
                self.count("groups.Subgroup.checked_pairs", n * n)

        groups.Subgroup.__post_init__ = counted_post_init

    def _counter_hooks(self, modules) -> dict:
        cap = modules["exact"].FACTORIZATION_CAP

        def trial_bound(args, result):
            n = abs(args[0])
            if 0 < n <= cap:
                self.count("exact.factorize.trial_bound", math.isqrt(n))

        return {
            "groups.build_group": lambda a, r: self.count("groups.build_group.elements", r.order),
            "groups.quotient_by": lambda a, r: self.count("groups.quotient_by.elements", r.order),
            "galois.cyclotomic_galois": lambda a, r: self.count(
                "galois.cyclotomic_galois.residues", 1 << (a[1] - 1)
            ),
            "quadforms.candidate_places": lambda a, r: self.count(
                "quadforms.candidate_places.places", len(r)
            ),
            "exact.factorize": trial_bound,
        }

    def take(self) -> dict[str, list]:
        """Return the per-function table accumulated since the last call
        and start a new one."""
        out = {k: list(v) for k, v in self.stats.items() if v[0]}
        for v in self.stats.values():
            v[0], v[1], v[2] = 0, 0.0, 0.0
        return out

    def spans(self) -> dict:
        return {
            "names": self.span_names,
            "columns": ["name", "parent", "item", "start_s", "end_s"],
            "spans": [
                [self.span_name[i], self.span_parent[i], self.span_item[i],
                 self.span_start[i], self.span_end[i]]
                for i in range(len(self.span_name))
            ],
        }
