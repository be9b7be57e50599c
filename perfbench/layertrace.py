"""Per-layer spans for a traced benchmark run, recorded from outside the package.

``LayerTrace`` rebinds the public functions of each smallweight module (its
layers) to timing wrappers, in every module that holds a reference to them:
``sumset`` is bound in both ``intset`` and ``subsetsum``, ``smawk_compact`` and
the colorings are called through ``weakextend``, ``bellman_solve`` and the
pipeline stages through ``knapsack``.  Leaving the context restores every
binding it made.

A span's self time is its duration minus the time of the traced calls it
made.  Work counts come from the ``Counters`` object the traced solves are
given: a span's share of ``entry_evals`` is its delta minus its children's.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "smallweight"

# (module, attribute, span name, count hook).  A hook maps (args, result) to
# a number added to the span's ``count``.  ``large_b_extend`` runs once per
# extension phase; its span is named by the phase (see LayerTrace._span_name).
SPANS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("instio", "parse_instance", "instio.parse", None),
    ("model", "normalize_knapsack", "model.normalize", None),
    ("knapsack", "solve_01_knapsack", "knapsack.solve", None),
    ("knapsack", "prefer_proximity", "knapsack.prefer_proximity", None),
    ("knapsack", "solve_proximity", "knapsack.solve_proximity", None),
    ("oracles", "bellman_solve", "oracles.bellman",
     lambda args, result: args[0].n * (args[0].t + 1)),
    ("profiles", "build_proximity_instance", "profiles.build", None),
    ("profiles", "break_ties", "profiles.break_ties", None),
    ("profiles", "maximal_prefix", "profiles.prefix", None),
    ("profiles", "prepare_base_solutions", "profiles.base_dp",
     lambda args, result: int(result.int64_mode)),
    ("profiles", "BaseSolutions.supports_all", "profiles.supports", None),
    ("weakextend", "large_b_extend", "weakextend.phase", None),
    ("weakextend", "small_b_extend", "weakextend.small_b", None),
    ("derandom", "isolating_colorings", "derandom.isolating",
     lambda args, result: len(result[0])),
    ("derandom", "balls_and_bins", "derandom.balls_and_bins",
     lambda args, result: 1),
    ("smawk", "smawk_compact", "smawk.compact", None),
    ("subsetsum", "solve_subset_sum", "subsetsum.solve", None),
    ("subsetsum", "reduce_subset_sum", "subsetsum.reduce", None),
    ("subsetsum", "binary_bundle", "subsetsum.bundle",
     lambda args, result: sum(1 for layer in result.layers if layer)),
    ("subsetsum", "fold_bundled_layers", "subsetsum.fold", None),
    ("intset", "all_subset_sums", "intset.all_subset_sums", None),
    ("intset", "difference_set", "intset.difference_set", None),
    ("intset", "sumset", "intset.sumset", None),
    ("intset", "ntt_convolve_01", "intset.ntt", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    self_evals: int = 0  # counters.entry_evals added outside child spans
    count: float = 0  # sum of the span's hook values


class LayerTrace:
    """Context manager that traces every function in ``SPANS``."""

    def __init__(self, counters):
        self.counters = counters
        self.stats: dict[str, SpanStats] = {}
        self.rebound: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # per open span: [child seconds, child evals]
        self._phase = 0

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, span, hook in SPANS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, span, hook)
            if path:  # a method: its class is the only binding
                self._rebind(owner, leaf, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)

    def _rebind(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self.rebound.append((owner, name, original))

    def _restore(self) -> None:
        while self.rebound:
            owner, name, original = self.rebound.pop()
            setattr(owner, name, original)

    def _span_name(self, span: str) -> str:
        # solve_proximity extends along positive keys, then negative keys:
        # the first large_b_extend of a solve is phase 1, the second phase 2.
        if span == "knapsack.solve_proximity":
            self._phase = 0
        elif span == "weakextend.phase":
            self._phase += 1
            return f"weakextend.phase{self._phase}"
        return span

    def _wrap(self, fn, span: str, hook):
        def traced(*args, **kwargs):
            name = self._span_name(span)
            frame = [0.0, 0]
            self._stack.append(frame)
            evals0 = self.counters.entry_evals
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                evals = self.counters.entry_evals - evals0
                self._stack.pop()
                stats = self.stats.setdefault(name, SpanStats())
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                stats.self_evals += evals - frame[1]
                if self._stack:
                    self._stack[-1][0] += elapsed
                    self._stack[-1][1] += evals
            if hook is not None:
                stats.count += hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix)."""
        out: dict[str, float] = {}
        for name, stats in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + stats.self_s
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name: (value, unit)."""
        get = self.stats.get

        def field(span: str, attr: str) -> float:
            stats = get(span)
            return getattr(stats, attr) if stats is not None else 0

        layers = self.layer_self_s()
        base_calls = field("profiles.base_dp", "calls")
        isolating = field("derandom.isolating", "count")
        return {
            "instio.parse_s": (field("instio.parse", "self_s"), "s"),
            "model.normalize_s": (field("model.normalize", "self_s"), "s"),
            "profiles.break_ties_s": (field("profiles.break_ties", "self_s"), "s"),
            "profiles.prefix_s": (field("profiles.prefix", "self_s"), "s"),
            "profiles.build_self_s": (field("profiles.build", "self_s"), "s"),
            "profiles.base_dp_s": (field("profiles.base_dp", "self_s"), "s"),
            "profiles.base_dp_cells": (field("profiles.base_dp", "self_evals"), "count"),
            "profiles.base_dp_int64_share": (
                field("profiles.base_dp", "count") / base_calls if base_calls else 0.0,
                "frac",
            ),
            "profiles.supports_s": (field("profiles.supports", "self_s"), "s"),
            "weakextend.phase1_s": (field("weakextend.phase1", "total_s"), "s"),
            "weakextend.phase2_s": (field("weakextend.phase2", "total_s"), "s"),
            "weakextend.self_s": (layers.get("weakextend", 0.0), "s"),
            "weakextend.small_b_calls": (field("weakextend.small_b", "calls"), "count"),
            "derandom.colorings_s": (layers.get("derandom", 0.0), "s"),
            "derandom.colorings": (
                isolating + field("derandom.balls_and_bins", "count"),
                "count",
            ),
            "smawk.calls": (field("smawk.compact", "calls"), "count"),
            "smawk.s": (field("smawk.compact", "self_s"), "s"),
            "smawk.entry_evals": (field("smawk.compact", "self_evals"), "count"),
            "knapsack.route_bellman": (field("oracles.bellman", "calls"), "count"),
            "knapsack.route_proximity": (
                field("knapsack.solve_proximity", "calls"),
                "count",
            ),
            "knapsack.self_s": (layers.get("knapsack", 0.0), "s"),
            "oracles.bellman_s": (field("oracles.bellman", "self_s"), "s"),
            "oracles.bellman_cells": (field("oracles.bellman", "count"), "count"),
            "subsetsum.reduce_s": (field("subsetsum.reduce", "self_s"), "s"),
            "subsetsum.bundle_s": (field("subsetsum.bundle", "self_s"), "s"),
            "subsetsum.fold_self_s": (field("subsetsum.fold", "self_s"), "s"),
            "subsetsum.layers": (field("subsetsum.bundle", "count"), "count"),
            "intset.all_subset_sums_s": (field("intset.all_subset_sums", "self_s"), "s"),
            "intset.sumset_calls": (field("intset.sumset", "calls"), "count"),
            "intset.sumset_s": (field("intset.sumset", "self_s"), "s"),
            "intset.ntt_calls": (field("intset.ntt", "calls"), "count"),
            "intset.ntt_s": (field("intset.ntt", "self_s"), "s"),
            "intset.conv_output_len": (self.counters.conv_output_len, "count"),
        }
