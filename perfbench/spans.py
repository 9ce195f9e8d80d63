"""Spans around calls into zforce's public functions, kept in memory.

The tracer wraps each target function in every zforce module that binds
it, because modules import names from each other (`search` binds
`induced` and `components`, `bounds` binds `zero_forcing_number`, the
package re-exports everything), so patching the defining module alone
would miss those calls.  A span is (name, start, end, parent span); self
time is a span's duration minus the durations of its direct children.

Calls made inside forked worker processes (the `workers > 1` search pool)
run the wrapper in the child, whose spans are lost when it exits.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

MODULE_TARGETS = (
    ("kernels", "first_forcing_lex"),
    ("kernels", "all_forcing_lex"),
    ("kernels", "closure"),
    ("search", "zero_forcing_number"),
    ("search", "all_minimum_zfs"),
    ("search", "maximum_os_set"),
    ("graph", "induced"),
    ("graph", "components"),
    ("forcing", "derived_set"),
    ("forcing", "is_forcing_set"),
    ("bounds", "path_cover_number"),
    ("bounds", "clique_cover_number"),
    ("bounds", "bounds_report"),
    ("witness", "build_tree_clique_witness"),
    ("witness", "build_h43_witness"),
)
CONSTRUCTOR = "graph.Graph"


def self_times(spans) -> list[float]:
    """Self time of each (name, start, end, parent) span, parent being the
    index of the enclosing span or -1."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def lex_rank(n: int, combo) -> int:
    """Position of a sorted k-subset of 0..n-1 in lexicographic order."""
    k = len(combo)
    rank = 0
    prev = -1
    for i, c in enumerate(combo):
        for x in range(prev + 1, c):
            rank += math.comb(n - x - 1, k - i - 1)
        prev = c
    return rank


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.closures = 0  # closures run by every recorded kernel call
        self.lex_closures = 0  # closures run by first_forcing_lex
        self.lex_subsets = 0  # k-subsets in the lex ranges it scanned

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # kernel counters -----------------------------------------------------

    def _first_forcing(self, args, kwargs, result):
        adj, n, k, rule, *rest = args
        start = rest[0] if rest else kwargs.get("start")
        count = rest[1] if len(rest) > 1 else kwargs.get("count", -1)
        mask, explored = result
        first = 0 if start is None else lex_rank(n, start)
        if mask is not None:
            scanned = lex_rank(n, _members(mask)) - first + 1
        elif count >= 0:
            scanned = min(count, math.comb(n, k) - first)
        else:
            scanned = math.comb(n, k) - first
        self.closures += explored
        self.lex_closures += explored
        self.lex_subsets += scanned

    def _all_forcing(self, args, kwargs, result):
        self.closures += math.comb(args[1], args[2])

    def _closure(self, args, kwargs, result):
        self.closures += 1

    # installation --------------------------------------------------------

    def install(self):
        """Patch zforce in place: every module target and, when
        zforce.reproduce is loaded, every criterion.  Import zforce first."""
        mods = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "zforce" or name.startswith("zforce."))
        }
        hooks = {
            "first_forcing_lex": self._first_forcing,
            "all_forcing_lex": self._all_forcing,
            "closure": self._closure,
        }
        for modname, attr in MODULE_TARGETS:
            orig = getattr(mods[f"zforce.{modname}"], attr)
            hook = hooks.get(attr) if modname == "kernels" else None
            self._replace(mods, orig, self.wrap(f"{modname}.{attr}", orig, hook))
        graph_cls = mods["zforce.graph"].Graph
        graph_cls.__init__ = self.wrap(CONSTRUCTOR, graph_cls.__init__)
        rep = mods.get("zforce.reproduce")
        if rep is not None:
            wrapped = []
            for crit, fn in rep.CRITERIA:
                w = self.wrap(f"reproduce.{crit}", fn)
                self._replace(mods, fn, w)
                wrapped.append((crit, w))
            rep.CRITERIA = tuple(wrapped)

    @staticmethod
    def _replace(mods, orig, wrapper):
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

    # results -------------------------------------------------------------

    def summary(self) -> dict:
        """{name: [calls, self seconds, total seconds]} over recorded spans."""
        out: dict = {}
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += end - start
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[n], s, e, p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
