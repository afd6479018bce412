"""Outside-in tracer: wraps the public functions of every plabicflow module.

A function is wrapped once and the wrapper is bound in every module namespace
that holds the original (``charts.enumerate_matchings`` is the ``plabic``
function imported by name, and must be patched too or its calls slip past).
Each span pushes a frame; on exit it adds its duration to its parent's frame,
so self time = span time - time of the child spans.  Calls made by the
package into its private helpers stay in the caller's self time.

Hot leaves only count calls: timing a function called more than 10^5 times a
run costs more than the work it measures.  ``plabic.analyze`` caches its
result on the model, so only the calls that compute are timed.
"""

from __future__ import annotations

import sys
import time
from functools import update_wrapper

# counted, never timed
COUNT_ONLY = frozenset({
    "plabic.boundary_value", "combinat.max_diag", "combinat.young_of",
    "combinat.young_cells", "combinat.format_ksubset", "combinat.check_ksubset",
    "combinat.weakly_separated", "combinat.rectangle_label", "cones.grid_label",
    "laurent.vec_add", "laurent.vec_sub", "laurent.vec_scale",
    "laurent.check_lattice",
})
# caches its result on the model: only calls that compute are timed
CACHED_ON_MODEL = "plabic.analyze"
# not spans of their own: the argparse handlers are the body of ``cli.main``
SKIP = ("cli.cmd_", "cli.build_parser")


def _extras(tracer):
    """Counts taken from return values: name -> f(stat, args, result)."""
    models: dict[int, object] = {}

    def add(st, key, n):
        st.counts[key] = st.counts.get(key, 0) + n

    def matchings(st, args, out):
        add(st, "matchings", len(out))
        models.setdefault(id(args[0]), args[0])  # keep alive: ids stay unique
        tracer.distinct_models = len(models)

    return {
        "plabic.enumerate_matchings": matchings,
        "charts.flow_polynomial": lambda st, a, out: add(st, "terms", len(out.terms)),
        "laurent.lp_mul": lambda st, a, out: add(st, "terms_out", len(out.terms)),
        "superpot.a_mutate_w": lambda st, a, out: add(st, "terms", len(out.poly.terms)),
        "cones.lattice_points": lambda st, a, out: add(st, "points", len(out)),
    }


class Stat:
    __slots__ = ("calls", "self_ns", "counts")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.counts: dict[str, int] = {}


class Tracer:
    """Wraps at construction; ``install``/``uninstall`` only rebind names, so
    the benchmark can step out of the trace around its own checks."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.distinct_models = 0
        self._frames = [0]  # child time of each open span; [0] is outside all
        modules = [m for name, m in sorted(sys.modules.items()) if m is not None
                   and (name == "plabicflow" or name.startswith("plabicflow."))]
        extras = _extras(self)
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or name.startswith(SKIP)):
                    continue
                st = self.stats[name] = Stat()
                wrappers[id(obj)] = self._wrap(name, obj, st, extras.get(name))
        # every binding of a wrapped function, in every module
        self._patches = [(mod, attr, obj, wrappers[id(obj)])
                         for mod in modules for attr, obj in vars(mod).items()
                         if id(obj) in wrappers]

    def install(self) -> None:
        for mod, attr, _orig, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _wrapper in self._patches:
            setattr(mod, attr, orig)

    def _wrap(self, name, fn, st, extra):
        frames = self._frames
        clock = time.perf_counter_ns

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return update_wrapper(counted, fn)

        def span(*args, **kwargs):
            frames.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = frames.pop()
                frames[-1] += dt
                st.calls += 1
                st.self_ns += dt - child
            if extra is not None:
                extra(st, args, out)
            return out

        if name != CACHED_ON_MODEL:
            return update_wrapper(span, fn)

        def computing(model, *args, **kwargs):
            if getattr(model, "_analysis", None) is None:
                return span(model, *args, **kwargs)
            st.calls += 1
            return fn(model, *args, **kwargs)
        return update_wrapper(computing, fn)

    def metric(self, name: str) -> float:
        """``<module>.<function>.<stat>`` or ``<module>.self_s``."""
        if name.count(".") == 1:
            mod, stat = name.split(".")
            if stat != "self_s":
                raise KeyError(name)
            return sum(st.self_ns for n, st in self.stats.items()
                       if n.startswith(mod + ".")) / 1e9
        fn, stat = name.rsplit(".", 1)
        st = self.stats[fn]
        if stat == "calls_per_model":
            return st.calls / self.distinct_models if self.distinct_models else 0.0
        if stat == "calls":
            return st.calls
        if stat == "self_s":
            return st.self_ns / 1e9
        return st.counts.get(stat, 0)
