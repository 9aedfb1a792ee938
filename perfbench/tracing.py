"""Per-layer spans recorded from outside the hmmar package.

A :class:`Tracer` replaces each public function named in :data:`LAYERS` by a
wrapper, in every loaded ``hmmar`` module that holds it, so calls made
through any import path are seen.  Each call records one span: layer, start,
end, enclosing span, and the repeat index that all spans of one Monte-Carlo
repeat share (-1 for experiment-level spans).  Spans stay in memory until the
run ends.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

#: Tail percentiles tried, as divisors d of percentile 100 * (1 - 1/d).
TAIL_DIVISORS = (2, 10, 100, 1_000, 10_000, 100_000)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Layer:
    """One wrapped function, named ``<module>.<function>`` after its home module."""

    label: str
    #: Spans of this layer belong to the experiment, not to one repeat.
    experiment_level: bool = False
    #: A call of this layer starts the next repeat (the harness simulates first).
    starts_repeat: bool = False
    #: Optional per-call count, ``count(args, kwargs, result)``, summed over calls.
    count: Optional[Callable] = None
    count_name: str = ""
    count_unit: str = "count"
    #: Report the summed count divided by the number of calls.
    count_per_call: bool = False


def _ucv_pairs(args, kwargs, result) -> int:
    n = (args[0] if args else kwargs["sample"]).N
    return n * (n - 1) // 2


def _is_fallback(args, kwargs, result) -> int:
    return int(result.fallback)


def _written_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])


LAYERS = (
    Layer("harness.run_experiment", experiment_level=True),
    Layer("model.simulate", starts_repeat=True),
    Layer("filters.run_filters"),
    Layer("kde.ucv_bandwidth", count=_ucv_pairs, count_name="pairs"),
    Layer("filters.optimal_step"),
    Layer("filters.posterior_update"),
    Layer("filters.nonparametric_step"),
    Layer("filters.emission_mixture_problem"),
    Layer("gaussian.product_integral"),
    Layer("kde.conditional_weights"),
    Layer("kde.embedding_heads"),
    Layer("simplex_qp.solve_kkt", count=_is_fallback, count_name="fallback_frac",
          count_unit="ratio", count_per_call=True),
    Layer("harness.emit_trace", count=_written_bytes, count_name="bytes", count_unit="B"),
    Layer("harness.write_summary", experiment_level=True),
)


class Tracer:
    """Span recorder; :meth:`install` wraps the layers, :meth:`uninstall` restores them."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = tuple(layers)
        self.clock = clock
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.repeat = array("i")
        self.counts = [0] * len(self.layers)
        self._open: list[int] = []
        self._repeat = -1
        self._patched: list = []

    def _wrap(self, i: int, fn):
        layer = self.layers[i]
        clock, open_spans, counts = self.clock, self._open, self.counts
        add_layer, add_parent, add_repeat = self.layer.append, self.parent.append, \
            self.repeat.append
        start, end = self.start, self.end
        count, experiment_level = layer.count, layer.experiment_level

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer.starts_repeat:
                self._repeat += 1
            idx = len(start)
            add_layer(i)
            add_parent(open_spans[-1] if open_spans else -1)
            add_repeat(-1 if experiment_level else self._repeat)
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                counts[i] += count(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "hmmar") -> None:
        """Wrap every layer wherever a loaded module of ``package`` binds it."""
        for i, layer in enumerate(self.layers):
            module_name, fn_name = layer.label.split(".")
            original = getattr(importlib.import_module(f"{package}.{module_name}"), fn_name)
            traced = self._wrap(i, original)
            for name, module in list(sys.modules.items()):
                if (name == package or name.startswith(package + ".")) \
                        and vars(module).get(fn_name) is original:
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, traced)

    def uninstall(self) -> None:
        while self._patched:
            module, fn_name, original = self._patched.pop()
            setattr(module, fn_name, original)

    def write_spans(self, path) -> None:
        """Write every span as CSV: index, layer, start, end, parent, repeat."""
        labels = [layer.label for layer in self.layers]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("span,layer,start,end,parent,repeat\n")
            for k in range(len(self.start)):
                fh.write(f"{k},{labels[self.layer[k]]},{self.start[k]!r},{self.end[k]!r},"
                         f"{self.parent[k]},{self.repeat[k]}\n")

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit).

        For each layer: calls, summed self time, and the per-call duration at
        the median and at the highest tail percentile that keeps
        TAIL_BEYOND calls beyond it (0 when there are too few calls; the
        percentile follows from the call count by :func:`tail_divisor`).
        """
        own = self_times(self.start, self.end, self.parent)
        durations = [[] for _ in self.layers]
        self_s = [0.0] * len(self.layers)
        for k, i in enumerate(self.layer):
            durations[i].append(self.end[k] - self.start[k])
            self_s[i] += own[k]
        out = {}
        for i, layer in enumerate(self.layers):
            d = sorted(durations[i])
            divisor = tail_divisor(len(d))
            out[f"{layer.label}.calls"] = (len(d), "count")
            out[f"{layer.label}.self_s"] = (self_s[i], "s")
            out[f"{layer.label}.p50_us"] = (nearest_rank(d, 2) * 1e6 if d else 0.0, "us")
            out[f"{layer.label}.tail_us"] = (
                nearest_rank(d, divisor) * 1e6 if divisor else 0.0, "us")
            if layer.count is not None:
                value = self.counts[i]
                if layer.count_per_call:
                    value = value / len(d) if d else 0.0
                out[f"{layer.label}.{layer.count_name}"] = (value, layer.count_unit)
        out["trace.spans"] = (len(self.start), "count")
        return out


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so overlapping or
    overhanging children are not counted twice.
    """
    children: dict[int, list[int]] = {}
    for k, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(k)
    out = []
    for k in range(len(start)):
        lo, hi = start[k], end[k]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(k, ()), key=lambda c: start[c]):
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def tail_divisor(n: int) -> Optional[int]:
    """Largest d in TAIL_DIVISORS whose percentile 100(1 - 1/d) of n samples
    has at least TAIL_BEYOND samples beyond it, or None if none does.

    With nearest-rank percentiles n // d samples lie beyond, so the rule is
    n >= TAIL_BEYOND * d.
    """
    fits = [d for d in TAIL_DIVISORS if n >= TAIL_BEYOND * d]
    return fits[-1] if fits else None


def nearest_rank(sorted_values, d: int) -> float:
    """Nearest-rank percentile 100(1 - 1/d) of ascending values (n // d lie beyond)."""
    n = len(sorted_values)
    return sorted_values[n - n // d - 1]
