"""Outside-in tracer for the finsite layers.

Each public module-level function of a layer module is wrapped once, and the
wrapper is bound in every finsite namespace that holds the same function
object (``all_nat_transformations`` lives in ``fincat`` but is also imported
by name into ``cli``, ``presheaf``, ``models`` and ``eventual``).  A call is a
span; for a generator function every ``next`` is a span, because the work
happens there and not at the call.  A span's self time is its duration minus
the spans it opened.  Spans are folded into per-function totals in memory and
read out when the pass ends; nothing is written while jobs run.

The layers are single-threaded and have no queues, so there is no waiting
time to record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("fincat", "limits", "site", "presheaf", "models", "chase", "lattice",
          "eventual", "fileformat", "cli")

# functions whose result size is counted: key -> size of one result
RESULT_SIZES = {
    "models.enumerate_models": len,
    "site.tree_saturation": lambda result: len(result.families),
}

CALLS, ITEMS, SIZE, SELF = range(4)


class Tracer:
    def __init__(self):
        self.open_children = []   # one child-time accumulator per open span
        self.stats = {}           # "layer.function" -> [calls, items, size, self_s]

    def install(self):
        """Wrap every public function of every layer and rebind it wherever
        a finsite namespace refers to it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"finsite.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "finsite" and not module_name.startswith("finsite."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def _wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0, 0, 0.0])
        open_children = self.open_children
        clock = time.perf_counter
        size_of = RESULT_SIZES.get(key)

        def close(start):
            elapsed = clock() - start
            stats[SELF] += elapsed - open_children.pop()
            if open_children:
                open_children[-1] += elapsed

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                stats[CALLS] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        open_children.append(0.0)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close(start)
                        stats[ITEMS] += 1
                        yield item
                finally:
                    inner.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[CALLS] += 1
            open_children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(start)
            if size_of is not None:
                stats[SIZE] += size_of(result)
            return result
        return traced

    def snapshot(self):
        """Per-function totals: {key: [calls, items, size, self_s]}."""
        return {key: list(value) for key, value in self.stats.items() if value[CALLS]}
