"""Per-layer spans for bulktree, recorded from outside the package.

The tracer replaces selected functions with timing wrappers in every bulktree
module that binds them: modules import with ``from .x import y``, so
``gmm.dijkstra`` is the same function object as ``subroutines.dijkstra`` and
both bindings must be wrapped.  A span's self time is its duration minus the
time covered by wrapped child spans.  ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# Layer functions by defining module.  Only these bound their callers' self
# time, so e.g. gmm.gmm_tree.self_s is forest cutting, consolidation and tree
# extraction, without the Steiner, facility and shortest-path work it calls.
TARGETS = {
    "aggregation": ("route_demands", "atomic_cost"),
    "exact": ("exact_optima", "enumerate_candidate_trees", "exact_lp_optimum",
              "exact_oblivious_ratio"),
    "framework": ("solve_oblivious", "ellipsoid_feasibility", "separation_oracle",
                  "solve_small_primal"),
    "gmm": ("gmm_tree", "oracle_tree"),
    "instance": ("generate_instance",),
    "pipes": ("alpha_to_pipes", "pipes_to_alpha", "thresholds", "is_gamma_regular"),
    "regularize": ("regularize",),
    "simplex": ("solve_min_ge",),
    "subroutines": ("dijkstra", "steiner_tree", "lbfl", "rob_lower_bounds"),
}


PACKAGE = "bulktree"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # outcome counters, keyed by metric name
        self.module_s: Counter = Counter()  # wall time covered by each module's spans
        self.dijkstra_keys: set = set()
        self._stack: list[list] = []  # [module, child time covered] per open span
        self._patched: list[tuple[object, str, object, object]] = []

    def reset(self) -> None:
        for c in (self.calls, self.total_s, self.self_s, self.counts, self.module_s):
            c.clear()
        self.dijkstra_keys.clear()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> float:
        self._stack.append([name.split(".", 1)[0], 0.0])
        return time.perf_counter()

    def _close(self, name: str, t0: float) -> None:
        dur = time.perf_counter() - t0
        module, child = self._stack.pop()
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if all(m != module for m, _ in self._stack):  # outermost span of its module
            self.module_s[module] += dur

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # The body runs on each next(), so time every step, not the call.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, t0)
                    tracer.counts[name + ".items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            t0 = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, t0)
            if observe is not None:
                observe(out, *args, **kwargs)
            return out

        return wrapper

    # -- outcome counters --------------------------------------------------

    def _observe_subroutines_dijkstra(self, out, inst, source, weight=None):
        if weight is None or weight is inst.lengths:
            metric = "lengths"
        else:
            metric = tuple(weight[e] for e in inst.edges)
        self.dijkstra_keys.add((id(inst), source, metric))

    def _observe_framework_separation_oracle(self, res, *args, **kwargs):
        self.counts["framework.separation_oracle.kind." + res.kind] += 1
        self.counts["framework.separation_oracle.attempts"] += res.attempts
        self.counts["framework.separation_oracle.threshold_met"] += int(res.threshold_met)

    def _observe_framework_ellipsoid_feasibility(self, res, *args, **kwargs):
        # res.iterations is not a count: it reads max_iter after a collapse break.
        self.counts["framework.ellipsoid_feasibility.status." + res.status] += 1
        self.counts["framework.harvested_trees"] += len(res.constraint_set.tree_constraints)

    def _observe_simplex_solve_min_ge(self, out, c, A, b):
        self.counts["simplex.solve_min_ge.columns"] += len(c)

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, names in TARGETS.items():
            module = sys.modules[f"{PACKAGE}.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value, hit[1]))

    def bindings(self) -> list[str]:
        """Every module attribute currently replaced by a wrapper."""
        return [f"{module.__name__}.{attr}" for module, attr, _, _ in self._patched]

    def uninstall(self) -> None:
        patched, self._patched = self._patched, []
        for module, attr, original, _ in reversed(patched):
            setattr(module, attr, original)
        wrappers = {id(w) for _, _, _, w in patched}  # alive: `patched` holds them
        leftover = [f"{m.__name__}.{a}" for m in self._modules()
                    for a, v in vars(m).items() if id(v) in wrappers]
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")
