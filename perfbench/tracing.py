"""Per-layer tracing of krtool from outside, with no change to its source.

``Tracer.install()`` replaces every public function of every ``krtool``
module, and every public method of the classes those modules define, with
a wrapper. A function bound into another module by ``from .x import y``
is replaced in that namespace too, so calls across layers are all seen.

A layer is the defining module (``gf2``, ``graded``, ``a1``, ...). A span
opens when a call enters a layer from another one; calls nested within
the same layer run inside the open span and are not counted twice. A
layer's self time is its spans' time minus the time of their child spans.
Spans are aggregated in memory as (parent layer, layer) edges.

Counters and inclusive timers sit at the same boundaries. An inclusive
timer adds the time of the outermost call of its group only, so
``Subquotient.dims`` calling ``Subquotient.dim`` is timed once.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import pkgutil
from time import perf_counter
from typing import Any, Callable, Optional

OUTSIDE = "bench"    # the layer of calls made by the benchmark itself

# Inclusive timers: qualified function name -> metric.
TIMERS: dict[str, str] = {
    "graded.Subquotient.reps": "graded.subquotient_s",
    "graded.Subquotient.dim": "graded.subquotient_s",
    "graded.Subquotient.dims": "graded.subquotient_s",
    "graded.Subquotient.express": "graded.subquotient_s",
    "graded.hom_space": "graded.hom_space_s",
    "rfun.apply_r": "rfun.apply_r_s",
    "rfun.check_sec_r": "rfun.check_sec_r_s",
    "emod.h01": "emod.h01_s",
    "emod.les_h01": "emod.les_h01_s",
    "emod.rel_ext": "emod.rel_ext_s",
    "a1.reduce": "a1.reduce_s",
    "a1.stable_evidence": "a1.stable_evidence_s",
    "a1.proj_cover_and_loop": "a1.cover_s",
    "kr.assemble_kr": "kr.assemble_s",
    "kr.cross_check_hv": "kr.cross_check_s",
}

# Call counters: qualified function name -> metric.
CALL_COUNTERS: dict[str, str] = {
    "gf2.rref": "gf2.rref_calls",
    "gf2.solve": "gf2.solve_calls",
    "graded.GradedMap.compose": "graded.compose_calls",
    "coeff.CoeffMonomial.parse": "coeff.parse_calls",
    "rfun.apply_r": "rfun.apply_r_calls",
    "a1.reduce": "a1.reduce_calls",
}

# Share of calls whose argument digest was already seen in the run:
# metric -> (digest kind, call counter).
REPEAT_FRACS: dict[str, tuple[str, str]] = {
    "rfun.apply_r_repeat_frac": ("apply_r", "rfun.apply_r_calls"),
    "a1.reduce_repeat_frac": ("reduce", "a1.reduce_calls"),
}

# Self-time metrics reported per layer.
SELF_TIME_LAYERS = ("gf2", "graded", "coeff", "a1", "emod", "rfun", "towers",
                    "closedform", "kr", "cli", "verify")


def a1_module_digest(m: Any) -> str:
    """Content digest of an A1Module, read from its attributes directly so
    that no wrapped method runs."""
    h = hashlib.sha1()
    h.update(repr((m.lo, m.hi, m.complete_lo, m.complete_hi,
                   sorted(m.basis.items()))).encode())
    for ops in (m.sq1, m.sq2):
        h.update(repr(sorted((d, b.ncols, b.rows)
                             for d, b in ops.items())).encode())
    return h.hexdigest()


class _Timer:
    __slots__ = ("metric", "depth")

    def __init__(self, metric: str):
        self.metric = metric
        self.depth = 0


class Tracer:
    """Spans, self times, inclusive timers and counters for one run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = [[OUTSIDE, 0.0, 0.0]]
        self._timers: dict[str, _Timer] = {}
        self._seen: dict[str, set[str]] = {"apply_r": set(), "reduce": set()}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- counters computed from arguments and results -------------------

    def _count(self, metric: str, n: int = 1) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def _repeat(self, kind: str, key: str) -> None:
        seen = self._seen[kind]
        if key in seen:
            self._count(f"{kind}.repeats")
        seen.add(key)

    def _before(self, qual: str) -> Optional[Callable]:
        counter = CALL_COUNTERS.get(qual)
        if qual == "gf2.rref":
            def before(m, *_a, **_k):
                self._count("gf2.rref_calls")
                self._count("gf2.rref_cells", m.nrows * m.ncols)
                if m.nrows == 0 or m.ncols == 0:
                    self._count("gf2.rref_empty")
            return before
        if qual == "rfun.apply_r":
            def before(m, w, *_a, **_k):
                self._count("rfun.apply_r_calls")
                self._repeat("apply_r", a1_module_digest(m) + repr(w))
            return before
        if qual == "a1.reduce":
            def before(m, *_a, **_k):
                self._count("a1.reduce_calls")
                self._repeat("reduce", a1_module_digest(m))
            return before
        if counter is not None:
            def before(*_a, **_k):
                self._count(counter)
            return before
        return None

    def _after(self, qual: str) -> Optional[Callable]:
        if qual == "rfun.apply_r":
            def after(res):
                self._count("rfun.ext_dim", sum(
                    len(v) for v in res.emod.space.basis.values()))
            return after
        if qual == "a1.reduce":
            def after(res):
                self._count("a1.free_summands", len(res.free_gens))
            return after
        if qual == "emod.h01":
            def after(res):
                self._count("emod.h01_degrees", len(res.region))
            return after
        return None

    def _timer_for(self, qual: str) -> Optional[Callable]:
        """Function from the call's arguments to its inclusive timer."""
        if qual == "verify.run_suite":
            def timer(name, *_a, **_k):
                return self._timer(f"verify.{name}_s")
            return timer
        metric = TIMERS.get(qual)
        if metric is None:
            return None
        t = self._timer(metric)
        return lambda *_a, **_k: t

    def _timer(self, metric: str) -> _Timer:
        t = self._timers.get(metric)
        if t is None:
            t = self._timers[metric] = _Timer(metric)
        return t

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, qual: str) -> Callable:
        """Wrapper of ``fn`` that records its layer's span, its counters
        and its inclusive timer, and returns ``fn``'s result unchanged."""
        stack = self._stack
        self_s = self.self_s
        edges = self.edges
        before = self._before(qual)
        after = self._after(qual)
        timer_for = self._timer_for(qual)
        totals = self.totals

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            same_layer = stack[-1][0] == layer
            if same_layer and timer_for is None and after is None:
                return fn(*args, **kwargs)
            timer = timer_for(*args, **kwargs) if timer_for else None
            start = perf_counter()
            if timer is not None:
                timer.depth += 1
            if not same_layer:
                frame = [layer, start, 0.0]
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                if not same_layer:
                    stack.pop()
                    self_s[layer] = self_s.get(layer, 0.0) + dur - frame[2]
                    stack[-1][2] += dur
                    key = (stack[-1][0], layer)
                    e = edges.get(key)
                    if e is None:
                        edges[key] = [1, dur]
                    else:
                        e[0] += 1
                        e[1] += dur
                if timer is not None:
                    timer.depth -= 1
                    if timer.depth == 0:
                        totals[timer.metric] = totals.get(timer.metric, 0.0) + dur
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap krtool's public functions and methods in every namespace."""
        pkg = importlib.import_module("krtool")
        modules = [importlib.import_module(f"krtool.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        wrapped: dict[int, Callable] = {}
        for mod in modules:
            layer = mod.__name__.removeprefix("krtool.")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in [pkg] + modules:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patch(mod, name, w)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(
                    self.wrap(attr.__func__, layer, qual)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(
                    self.wrap(attr.__func__, layer, qual)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self.wrap(attr, layer, qual))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer measures, zero where the run
        never reached it."""
        out: dict[str, float] = {}
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out.update(dict.fromkeys(TIMERS.values(), 0.0))
        out.update(self.totals)
        for metric in list(CALL_COUNTERS.values()) + [
                "gf2.rref_cells", "rfun.ext_dim", "a1.free_summands",
                "emod.h01_degrees"]:
            out[metric] = self.counts.get(metric, 0)
        calls = self.counts.get("gf2.rref_calls", 0)
        out["gf2.empty_frac"] = (self.counts.get("gf2.rref_empty", 0) / calls
                                 if calls else 0.0)
        for metric, (kind, calls_metric) in REPEAT_FRACS.items():
            n = self.counts.get(calls_metric, 0)
            out[metric] = self.counts.get(f"{kind}.repeats", 0) / n if n else 0.0
        return out

    def span_edges(self) -> list[dict]:
        return [{"parent": p, "layer": c, "spans": n, "seconds": s}
                for (p, c), (n, s) in sorted(self.edges.items())]
