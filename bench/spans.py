"""Spans around the public functions of the gasloss modules.

Tracer.install() replaces each public function of each module with a
wrapper that records a span (id, parent span id, name, start, end, job
id, outcome, counters) in memory; remove() puts the originals back, so
untraced code runs unwrapped.  Calls between modules, and calls within
a module to its own public functions, go through the module attribute,
so they are seen; private helpers are not, and their time counts as
self time of the nearest wrapped caller.
"""

import inspect
import itertools
import os
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass

# Layers are the package modules; errors does no work to measure.
LAYERS = ("lpcore", "approx", "partition", "factorize", "hist", "model",
          "formats", "cli")
# Public helpers left unwrapped, so their time stays in the caller's self
# time: the verb handlers behind cli.main (argument handling and JSON
# output) and the parser behind formats.load_instance_doc.
UNWRAPPED = ("cli.cmd_", "formats.parse_instance")
PARTITION_SEARCHES = ("partition.optimal_partition_exact",
                      "partition.optimal_partition_greedy",
                      "partition.partition_loss")


@dataclass(slots=True)
class Span:
    span_id: int
    parent: object          # parent span id, or None for a job's root
    name: str               # "<module>.<function>"
    start: float
    end: float
    job: int
    ok: bool                # False when the call raised
    info: dict              # counters taken at the wrapper


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


_NO_INFO = {}


def _probe(name, args, kwargs, result):
    """Counters recorded at a wrapper, from its arguments and result."""
    if name == "lpcore.solve_lp":
        rows, cols = _arg(args, kwargs, 0, "lp").matrix.shape
        return {"cells": rows * cols,
                "status": None if result is None else result.status}
    if name == "formats.load_instance_doc" and result is not None:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    if name == "partition.optimal_partition_exact":
        return {"resources": _arg(args, kwargs, 0, "instance").num_resources}
    return _NO_INFO


class Tracer:
    """Wraps the public functions of `modules` while installed."""

    def __init__(self, modules, clock):
        self.modules = modules
        self.clock = clock
        self.spans = []
        self.job = None
        self._stack = []
        self._ids = itertools.count()
        self._saved = []

    def install(self):
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).copy().items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or name.startswith(UNWRAPPED)):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, fn):
        clock, stack, spans = self.clock, self._stack, self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end,
                                  self.job, ok,
                                  _probe(name, args, kwargs, result)))

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans):
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.span_id] = (s.end - s.start) - covered
    return out


def per_function(spans):
    """calls, total_s and self_s of every wrapped function that ran."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.span_id]
    return dict(sorted(table.items()))


def layer_metrics(spans, overhead_frac):
    """The per-layer metrics of BENCHMARK.json, from one run's spans."""
    by_id = {s.span_id: s for s in spans}
    table = per_function(spans)
    calls = Counter({name: row["calls"] for name, row in table.items()})
    self_s = defaultdict(float, {name: row["self_s"]
                                 for name, row in table.items()})

    def ancestors(s):
        names = set()
        while s.parent is not None:
            s = by_id[s.parent]
            names.add(s.name)
        return names

    lps = [s for s in spans if s.name == "lpcore.solve_lp"]
    lp_ancestors = [ancestors(s) for s in lps]
    lps_under = Counter(name for names in lp_ancestors for name in names)
    lps_per_game = Counter(
        s.parent for s in lps if s.parent is not None
        and by_id[s.parent].name == "lpcore.solve_zero_sum")
    games = [s for s in spans if s.name == "lpcore.solve_zero_sum"]
    groups = [ancestors(s) for s in spans
              if s.name == "approx.approximability"]
    exact = [s for s in spans if s.name == "partition.optimal_partition_exact"]
    subsets = sum(2 ** s.info["resources"] - 1 for s in exact)
    alt_lps = sum(1 for names in lp_ancestors
                  if "factorize.alternating_factorization" in names
                  and not names.intersection(PARTITION_SEARCHES))
    ranges = calls["hist.hist_loss_range"]
    durations = [s.end - s.start for s in lps]

    return {
        "lpcore.solve_lp.calls": len(lps),
        "lpcore.solve_lp.self_s": self_s["lpcore.solve_lp"],
        "lpcore.solve_lp.median_us":
            statistics.median(durations) * 1e6 if durations else 0.0,
        "lpcore.solve_lp.cells": sum(s.info["cells"] for s in lps),
        "lpcore.solve_lp.nonoptimal":
            sum(1 for s in lps if s.info["status"] != "optimal"),
        "lpcore.solve_zero_sum.calls": len(games),
        "lpcore.solve_zero_sum.self_s": self_s["lpcore.solve_zero_sum"],
        "lpcore.solve_zero_sum.extra_lps":
            sum(max(0, lps_per_game[s.span_id] - 1) for s in games),
        "approx.approximability.calls": calls["approx.approximability"],
        "approx.approximability.self_s": self_s["approx.approximability"],
        "approx.approximability.failed": sum(
            1 for s in spans
            if s.name == "approx.approximability" and not s.ok),
        "partition.optimal_partition_exact.self_s":
            self_s["partition.optimal_partition_exact"],
        "partition.group_solves": sum(
            1 for names in groups if names.intersection(PARTITION_SEARCHES)),
        "partition.group_solve_ratio": sum(
            1 for names in groups
            if "partition.optimal_partition_exact" in names) / subsets
            if subsets else 0.0,
        "partition.optimal_partition_greedy.self_s":
            self_s["partition.optimal_partition_greedy"],
        "partition.partition_loss.self_s": self_s["partition.partition_loss"],
        "factorize.alternating_factorization.self_s":
            self_s["factorize.alternating_factorization"],
        "factorize.alternating_factorization.lps": alt_lps,
        "factorize.factor_loss.calls": calls["factorize.factor_loss"],
        "factorize.kdim_represents.lps":
            lps_under["factorize.kdim_represents"],
        "hist.hist_loss_range.self_s": self_s["hist.hist_loss_range"],
        "hist.hist_loss_range.lps_per_call":
            lps_under["hist.hist_loss_range"] / ranges if ranges else 0.0,
        "hist.hist_loss.self_s": self_s["hist.hist_loss"],
        "model.validate_instance.self_s": self_s["model.validate_instance"],
        "model.minimal_gas_measure.calls": calls["model.minimal_gas_measure"],
        "formats.load_instance_doc.self_s":
            self_s["formats.load_instance_doc"],
        "formats.load_instance_doc.bytes": sum(
            s.info["bytes"] for s in spans
            if s.name == "formats.load_instance_doc"),
        "cli.main.self_s": self_s["cli.main"],
        "trace.overhead_frac": overhead_frac,
    }


_UNITS = {"self_s": "s", "median_us": "us", "bytes": "bytes",
          "group_solve_ratio": "ratio", "overhead_frac": "ratio",
          "lps_per_call": "lps/call"}


def unit_of(name):
    """Unit of a per-layer metric; counts unless the suffix says more."""
    return _UNITS.get(name.rsplit(".", 1)[-1], "count")
