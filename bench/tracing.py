"""Spans around nrquad's layer boundaries, for the traced run.

A wrapper replaces each public function under the name its calling module
looks it up by (``nrquad.quadrature.evaluate``, ``nrquad.cli.reference_integral``
and so on), so nrquad's own code stays untouched.  Each wrapper records a
span: its layer, the span that called it, and its start and end in ns.
Spans are kept in memory and written out when the run ends.

``evaluate`` is a leaf that a single operation can call tens of thousands
of times.  Its calls are kept as a count and a summed duration on the
calling span, not as a span each, which keeps a run's spans to a few
megabytes.  A span's self time is its duration minus its child spans and
its evaluate calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

FIELDS = 6
LAYER, PARENT, START, END, EVAL_CALLS, EVAL_NS = range(FIELDS)

EVALUATE = "expressions.evaluate"

# (calling module, the name it looks the function up by, layer)
PATCHES = (
    ("nrquad.cli", "parse", "expressions.parse"),
    ("nrquad.cli", "nr_integrate", "quadrature.nr_integrate"),
    ("nrquad.cli", "reference_integral", "baselines.reference_integral"),
    ("nrquad.quadrature", "differentiate", "expressions.differentiate"),
    ("nrquad.quadrature", "simplify", "expressions.simplify"),
    ("nrquad.quadrature", "validate_problem", "quadrature.validate_problem"),
    ("nrquad.quadrature", "newton_iterate", "newton.newton_iterate"),
    ("nrquad.newton", "newton_step", "newton.newton_step"),
)
EVALUATE_CALLERS = ("nrquad.quadrature", "nrquad.newton", "nrquad.baselines")
RULES = ("left_riemann", "right_riemann", "midpoint", "trapezoid", "simpson")


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans = array("q")
        self._stack = [-1]

    def layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, fn: Callable, layer: str) -> Callable:
        layer_id, spans, stack, clock = self.layer_id(layer), self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans) // FIELDS
            spans.extend((layer_id, stack[-1], clock(), 0, 0, 0))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index * FIELDS + END] = clock()

        return traced

    def wrap_evaluate(self, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(e: Any, x: float) -> float:
            start = clock()
            value = fn(e, x)
            elapsed = clock() - start
            base = stack[-1] * FIELDS
            if base >= 0:
                spans[base + EVAL_CALLS] += 1
                spans[base + EVAL_NS] += elapsed
            return value

        return traced

    def install(self) -> list[str]:
        """Wrap nrquad's layer boundaries; returns the lookups nrquad no longer has."""
        missing = []
        for module_name, name, layer in PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, name):
                setattr(module, name, self.wrap(getattr(module, name), layer))
            else:
                missing.append(f"{module_name}.{name}")
        for module_name in EVALUATE_CALLERS:
            module = importlib.import_module(module_name)
            if hasattr(module, "evaluate"):
                module.evaluate = self.wrap_evaluate(module.evaluate)
            else:
                missing.append(f"{module_name}.evaluate")
        # the compare command looks its rules up in this table
        table = getattr(importlib.import_module("nrquad.cli"), "_BASELINES", None)
        if isinstance(table, dict):
            for method, fn in table.items():
                table[method] = self.wrap(fn, f"baselines.{fn.__name__}")
        else:
            missing.append("nrquad.cli._BASELINES")
        return missing

    def take(self) -> array:
        """Move the recorded spans out, leaving the tracer empty."""
        spans = array("q", self.spans)
        del self.spans[:]
        return spans

    def merge(self, layers: list[str], spans: list[int]) -> None:
        """Append spans recorded by another process, as new root trees."""
        offset = len(self.spans) // FIELDS
        ids = [self.layer_id(layer) for layer in layers]
        for i in range(0, len(spans), FIELDS):
            layer, parent, *rest = spans[i : i + FIELDS]
            self.spans.extend((ids[layer], parent + offset if parent >= 0 else -1, *rest))

    def dump(self, path: Path, spans: array | None = None) -> None:
        spans = self.spans if spans is None else spans
        path.write_text(json.dumps({"fields": ["layer", "parent", "start_ns", "end_ns", "evaluate_calls", "evaluate_ns"], "layers": self.layers, "spans": spans.tolist()}))


@dataclass
class Totals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    eval_calls: int = 0  # evaluate calls made directly by spans of this layer


def totals(layers: list[str], spans: array) -> dict[str, Totals]:
    """Per-layer call counts and inclusive and self times; evaluate as its own entry."""
    count = len(spans) // FIELDS
    child_ns = [0] * count
    for i in range(count):
        parent = spans[i * FIELDS + PARENT]
        if parent >= 0:
            child_ns[parent] += spans[i * FIELDS + END] - spans[i * FIELDS + START]
    result: dict[str, Totals] = {EVALUATE: Totals()}
    for i in range(count):
        layer, _, start, end, eval_calls, eval_ns = spans[i * FIELDS : (i + 1) * FIELDS]
        t = result.setdefault(layers[layer], Totals())
        t.calls += 1
        t.total_ns += end - start
        t.self_ns += end - start - child_ns[i] - eval_ns
        t.eval_calls += eval_calls
        leaf = result[EVALUATE]
        leaf.calls += eval_calls
        leaf.total_ns += eval_ns
        leaf.self_ns += eval_ns
    return result


def roots(spans: array) -> list[int]:
    """Indices of the spans nobody traced called: one per top-level call."""
    return [i for i in range(len(spans) // FIELDS) if spans[i * FIELDS + PARENT] < 0]


def duration_ns(spans: array, index: int) -> int:
    return spans[index * FIELDS + END] - spans[index * FIELDS + START]


def subtree_evaluate_calls(spans: array) -> list[int]:
    """Evaluate calls made by each span and everything it called."""
    count = len(spans) // FIELDS
    calls = [spans[i * FIELDS + EVAL_CALLS] for i in range(count)]
    for i in reversed(range(count)):
        parent = spans[i * FIELDS + PARENT]
        if parent >= 0:
            calls[parent] += calls[i]
    return calls


@dataclass
class Source:
    """Spans from one traced stretch: the workload, or the fixed sweep."""

    name: str
    totals: dict[str, Totals]
    ops: int
    total_ns: int  # nrquad's time for those operations

    def get(self, layer: str) -> Totals:
        return self.totals.get(layer, Totals())

    def share(self, ns: int) -> float:
        return 100.0 * _per(ns, self.total_ns)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(work: Source, sweep: Source) -> dict[str, tuple[float, str, str]]:
    """Per-layer figures as name -> (value, unit, source name).

    Each layer's figures come from the workload's spans; a layer the
    workload never reaches is reported from the sweep instead.  Times per
    call are inclusive unless the name says ``self``.
    """
    out: dict[str, tuple[float, str, str]] = {}

    def source(layer: str) -> tuple[Source, Totals]:
        src = work if work.get(layer).calls else sweep
        return src, src.get(layer)

    for layer in ("expressions.parse", "expressions.differentiate", "expressions.simplify",
                  "newton.newton_iterate", "quadrature.validate_problem"):
        src, t = source(layer)
        out[f"{layer}.us_per_call"] = (_per(t.total_ns, t.calls) / 1e3, "us", src.name)
        out[f"{layer}.share"] = (src.share(t.total_ns), "%", src.name)
    src, t = source("expressions.differentiate")
    out["expressions.differentiate.calls_per_op"] = (_per(t.calls, src.ops), "count", src.name)

    src, t = source(EVALUATE)
    out["expressions.evaluate.calls_per_op"] = (_per(t.calls, src.ops), "count", src.name)
    out["expressions.evaluate.ns_per_call"] = (_per(t.total_ns, t.calls), "ns", src.name)
    out["expressions.evaluate.share"] = (src.share(t.total_ns), "%", src.name)

    src, steps = source("newton.newton_step")
    iterate = src.get("newton.newton_iterate")
    out["newton.steps_per_op"] = (_per(steps.calls, src.ops), "count", src.name)
    out["newton.evaluate_calls_per_step"] = (_per(steps.eval_calls + iterate.eval_calls, steps.calls), "count", src.name)

    src, t = source("quadrature.nr_integrate")
    out["quadrature.nr_integrate.self_us"] = (_per(t.self_ns, t.calls) / 1e3, "us", src.name)
    out["quadrature.nr_integrate.self_share"] = (src.share(t.self_ns), "%", src.name)

    for rule in RULES:
        src, t = source(f"baselines.{rule}")
        out[f"baselines.{rule}.ns_per_sample"] = (_per(t.total_ns, t.eval_calls), "ns", src.name)
        out[f"baselines.{rule}.share"] = (src.share(t.total_ns), "%", src.name)

    src, t = source("baselines.reference_integral")
    out["baselines.reference_integral.ms_per_call"] = (_per(t.total_ns, t.calls) / 1e6, "ms", src.name)
    out["baselines.reference_integral.share"] = (src.share(t.total_ns), "%", src.name)
    out["baselines.reference_integral.evals_per_call"] = (_per(t.eval_calls, t.calls), "count", src.name)

    src, t = source("cli.main")
    out["cli.main.self_ms"] = (_per(t.self_ns, t.calls) / 1e6, "ms", src.name)
    out["cli.main.self_share"] = (src.share(t.self_ns), "%", src.name)
    return out
