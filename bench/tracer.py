"""Per-function counters and timers installed from outside the library.

``Tracer.install`` replaces each traced function by a wrapper in every
``codedensity`` module namespace that binds it (``harness.weight`` as well
as ``metrics.weight``), so calls between library modules are seen too.
Counts and times are aggregated in memory per function; no span is kept per
call, because the exhaustive workload yields hundreds of thousands of
subspaces.

For each function the tracer keeps ``calls``, ``time_s`` (wall time inside
its outermost activations), ``self_s`` (time not spent inside another traced
function) and, for generators, ``yielded``.  Time inside a generator is the
time spent producing its items, charged to the generator and not to the loop
that consumes them.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function, is_generator); the module is where the function is defined.
TRACED = (
    ("fields", "build_tower", False),
    ("fields", "enumerate_subspaces", True),
    ("fields", "sample_subspace", False),
    ("fields", "rref", False),
    ("fields", "sample_code_subset", False),
    ("harness", "linear_distance_histogram", False),
    ("harness", "subset_distance_histogram", False),
    ("harness", "estimate_density", False),
    ("harness", "trial_generator", False),
    ("harness", "clopper_pearson", False),
    ("metrics", "weight", False),
    ("metrics", "ball_volume", False),
    ("metrics", "ball_volume_oracle", False),
    ("combinat", "compositions", True),
    ("combinat", "qbinom", False),
    ("bounds", "sublinear_bracket", False),
    ("bounds", "nonlinear_bracket", False),
    ("classifier", "classify", False),
    ("classifier", "ratio_probe", False),
)

# Matrices drawn by the subspace sampler are the rref calls made directly
# inside it; accepted bases are its returns.
SAMPLER = "fields.sample_subspace"
DRAW = "fields.rref"


class _Stat:
    __slots__ = ("calls", "time_s", "self_s", "yielded", "active", "under_sampler")

    def __init__(self) -> None:
        self.calls = 0
        self.time_s = 0.0
        self.self_s = 0.0
        self.yielded = 0
        self.active = 0
        self.under_sampler = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        # one entry per active traced frame: [name, time spent in traced children]
        self._stack: list[list] = []

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, stat: _Stat, frame: list, elapsed: float) -> None:
        self._stack.pop()
        stat.self_s += elapsed - frame[1]
        if stat.active == 0:
            stat.time_s += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap_function(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        enter, leave = self._enter, self._leave
        counts_draws = name == DRAW

        def traced(*args, **kwargs):
            stat.calls += 1
            if counts_draws and stack and stack[-1][0] == SAMPLER:
                stat.under_sampler += 1
            frame = enter(name)
            stat.active += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.active -= 1
                leave(stat, frame, elapsed)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        enter, leave = self._enter, self._leave

        def produce(inner):
            while True:
                frame = enter(name)
                stat.active += 1
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stat.active -= 1
                    leave(stat, frame, elapsed)
                stat.yielded += 1
                yield item

        def traced(*args, **kwargs):
            stat.calls += 1
            frame = enter(name)
            start = perf_counter()
            try:
                inner = fn(*args, **kwargs)
            finally:
                leave(stat, frame, perf_counter() - start)
            return produce(iter(inner))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced function in every codedensity namespace."""
        modules = [m for n, m in sys.modules.items() if n == "codedensity" or n.startswith("codedensity.")]
        for module_name, func_name, is_gen in TRACED:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules[f"codedensity.{module_name}"], func_name)
            wrap = self._wrap_generator if is_gen else self._wrap_function
            wrapper = wrap(name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: calls, time_s and self_s of every traced
        function, yielded for generators, and the sampler's accept ratio."""
        out: dict[str, float] = {}
        for module_name, func_name, is_gen in TRACED:
            name = f"{module_name}.{func_name}"
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.time_s"] = stat.time_s
            out[f"{name}.self_s"] = stat.self_s
            if is_gen:
                out[f"{name}.yielded"] = stat.yielded
        drawn = self.stats[DRAW].under_sampler
        out[f"{SAMPLER}.accept_ratio"] = self.stats[SAMPLER].calls / drawn if drawn else 0.0
        return out
