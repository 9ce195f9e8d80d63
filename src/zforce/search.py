"""Exact search for forcing numbers and ordered-set (OS) machinery.

Z and Z+ add over connected components, so each component is searched on
its own, by k-subsets in lexicographic order from a lower bound up: the
first hit is an optimum and the lexicographically smallest one.  The lower
bounds follow the chain delta <= Z+ <= Z: the psd scan starts at the
minimum degree and the standard scan continues from the Z+ value found.
The OS number is computed by dynamic programming over reachable vertex
subsets and tied to Z+ by the duality OS(G) + Z+(G) = |G|.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from . import kernels
from .forcing import derived_set, is_forcing_set
from .graph import (
    Graph,
    GraphError,
    InvariantViolation,
    SizeLimitError,
    VertexSet,
    _bits,
    component_mask,
    components,
    induced,
)

DEFAULT_SEARCH_LIMIT = 24
DEFAULT_ALL_MIN_LIMIT = 12
DEFAULT_OS_LIMIT = 8

_PARALLEL_MIN_WORK = 4096  # don't fork for tiny subset spaces


@dataclass(frozen=True)
class SearchResult:
    rule: str
    value: int
    sets: tuple[VertexSet, ...]
    nodes_explored: int

    @property
    def best(self) -> VertexSet:
        return self.sets[0]


@dataclass(frozen=True)
class OsSet:
    """Ordered vertex sequence with one outside witness per position."""

    order: tuple[int, ...]
    witnesses: tuple[int, ...]

    def __len__(self):
        return len(self.order)


@dataclass(frozen=True)
class OsCheck:
    ok: bool
    failing_index: int | None = None  # 1-based position k of first violation
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _guard(n: int, limit: int, what: str):
    if n > limit:
        raise SizeLimitError(
            f"{what} refused for n={n} > limit {limit}; raise the limit explicitly"
        )


def min_degree(g: Graph) -> int:
    return min(g.degree(v) for v in range(g.n))


def zero_forcing_number(
    g: Graph,
    rule: str = "standard",
    *,
    limit: int = DEFAULT_SEARCH_LIMIT,
    workers: int = 1,
) -> SearchResult:
    """Exact Z(G) (rule="standard") or Z+(G) (rule="psd") with one optimum set.

    The optimum set is the lexicographically smallest one, assembled from
    the per-component optima.  `workers` must be at least 1 and is capped
    at the CPU count; the value and the set do not depend on it, but
    `nodes_explored` does, because each worker's range starts with an empty
    failed-closure cache.
    """
    if rule not in ("standard", "psd"):
        raise GraphError(f"unknown rule {rule!r}")
    workers = _pool_size(workers, os.cpu_count() if workers > 1 else 1)
    _guard(g.n, limit, f"zero_forcing_number({rule})")
    total = mask = nodes = 0
    # One pool for every component, scan and k; it forks on first use.
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for comp in components(g, VertexSet.full(g.n)):
            sub, idx = (g, range(g.n)) if len(comp) == g.n else induced(g, comp)
            value, submask, explored = _first_k(
                sub, "psd", max(1, min_degree(sub)), workers, pool)
            if rule == "standard":
                value, submask, more = _first_k(sub, rule, value, workers, pool)
                explored += more
            total += value
            nodes += explored
            for v in _bits(submask):
                mask |= 1 << idx[v]
    return SearchResult(rule, total, (VertexSet(g.n, mask),), nodes)


def _pool_size(workers: int, cpu_count: int | None) -> int:
    """Worker processes to use for a requested count: 1 .. cpu_count."""
    if workers < 1:
        raise GraphError(f"workers must be at least 1, got {workers}")
    return min(workers, cpu_count or 1)


def _first_k(sub: Graph, rule: str, lb: int, workers: int, pool):
    """(k, lex-first forcing mask, closures run) for the smallest k >= lb.

    With a pool, subset spaces of at least _PARALLEL_MIN_WORK are split into
    one contiguous lexicographic range per worker.
    """
    n = sub.n
    nodes = 0
    for k in range(lb, n + 1):
        total = math.comb(n, k)
        if pool is None or total < _PARALLEL_MIN_WORK:
            results = [kernels.first_forcing_lex(sub.adj, n, k, rule)]
        else:
            chunk = (total + workers - 1) // workers
            results = list(pool.map(_chunk_worker, [
                (sub.adj, n, k, rule, _unrank(n, k, lo), min(chunk, total - lo))
                for lo in range(0, total, chunk)
            ]))
        nodes += sum(explored for _, explored in results)
        for found, _ in results:  # ranges are in lex order; first hit is lex-min
            if found is not None:
                return k, found, nodes
    raise InvariantViolation("V itself must always be a forcing set")


def _chunk_worker(args):
    adj, n, k, rule, start, count = args
    return kernels.first_forcing_lex(adj, n, k, rule, start, count)


def _unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    """Combination at `rank` in lexicographic order of sorted k-subsets."""
    out = []
    x = 0
    for i in range(k):
        while True:
            c = math.comb(n - x - 1, k - i - 1)
            if rank < c:
                break
            rank -= c
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def all_minimum_zfs(
    g: Graph,
    rule: str = "standard",
    *,
    limit: int = DEFAULT_ALL_MIN_LIMIT,
) -> list[VertexSet]:
    """Every minimum forcing set, in lexicographic order."""
    _guard(g.n, limit, "all_minimum_zfs")
    value = zero_forcing_number(g, rule, limit=limit).value
    masks = kernels.all_forcing_lex(g.adj, g.n, value, rule)
    return [VertexSet(g.n, m) for m in masks]


def min_zfs_intersection(g: Graph, *, limit: int = DEFAULT_ALL_MIN_LIMIT) -> VertexSet:
    """Intersection of all minimum standard zero forcing sets.

    Empty for every connected graph of order at least two.
    """
    sets = all_minimum_zfs(g, "standard", limit=limit)
    mask = (1 << g.n) - 1
    for s in sets:
        mask &= s.mask
    return VertexSet(g.n, mask)


# ---------------------------------------------------------------------------
# OS-sets and the duality with the psd rule
# ---------------------------------------------------------------------------


def os_from_psd_set(g: Graph, x: VertexSet) -> OsSet:
    """OS-set of size n - |x| built from the canonical psd log started at x.

    Forced vertices are emitted in reverse chronological order; the witness
    of each is the vertex that forced it.
    """
    if not is_forcing_set(g, x, "psd"):
        raise GraphError("x is not a psd forcing set")
    log = derived_set(g, x, "psd")
    order = tuple(f.forced for f in reversed(log.forces))
    wits = tuple(f.forcer for f in reversed(log.forces))
    out = OsSet(order, wits)
    check = verify_os_set(g, out)
    if not check:
        raise InvariantViolation(
            f"constructed OS-set failed verification: {check.reason}"
        )
    return out


def verify_os_set(g: Graph, s: OsSet) -> OsCheck:
    """Check the three OS conditions at every position, by direct computation."""
    if len(s.order) != len(s.witnesses):
        return OsCheck(False, None, "order and witness sequences differ in length")
    if any(not 0 <= v < g.n for v in s.order + s.witnesses):
        return OsCheck(False, None, "vertex id out of range")
    if len(set(s.order)) != len(s.order):
        return OsCheck(False, None, "repeated vertex in the order sequence")
    placed = 0
    for k, (v, w) in enumerate(zip(s.order, s.witnesses), start=1):
        placed |= 1 << v
        if (placed >> w) & 1:
            return OsCheck(False, k, f"witness {w} already placed at step {k}")
        if not g.has_edge(w, v):
            return OsCheck(False, k, f"witness {w} not adjacent to {v}")
        h_k = component_mask(g, placed, v)
        if g.adj[w] & (h_k & ~(1 << v)):
            return OsCheck(
                False, k, f"witness {w} has another neighbor in the component of {v}"
            )
    return OsCheck(True)


def os_number_bruteforce(g: Graph, *, limit: int = DEFAULT_OS_LIMIT) -> int:
    """Exact OS number by subset dynamic programming."""
    return len(maximum_os_set(g, limit=limit))


def maximum_os_set(g: Graph, *, limit: int = DEFAULT_OS_LIMIT) -> OsSet:
    """A maximum OS-set (with witnesses), reconstructed from the subset DP.

    A subset S is OS-orderable iff some v in S admits an outside witness
    against the component of v in G[S] and S - v is OS-orderable; that
    criterion depends only on the set, so subsets are processed once.
    """
    _guard(g.n, limit, "os_number_bruteforce")
    n = g.n
    parent: dict[int, tuple[int, int] | None] = {0: None}
    layers = [[] for _ in range(n + 1)]
    for m in range(1 << n):
        layers[m.bit_count()].append(m)
    best = 0
    for size in range(1, n + 1):
        found_any = False
        for s in layers[size]:
            hit = None
            for v in _bits(s):
                if s & ~(1 << v) not in parent:
                    continue
                w = _os_witness(g, s, v)
                if w is not None:
                    hit = (v, w)
                    break
            if hit is not None:
                parent[s] = hit
                found_any = True
                best = size
        if not found_any:
            break
    target = min(m for m in parent if m.bit_count() == best)
    order: list[int] = []
    wits: list[int] = []
    s = target
    while s:
        v, w = parent[s]
        order.append(v)
        wits.append(w)
        s &= ~(1 << v)
    return OsSet(tuple(reversed(order)), tuple(reversed(wits)))


def _os_witness(g: Graph, s: int, v: int):
    """Smallest valid witness for appending v to the set s (v in s), or None."""
    h = component_mask(g, s, v) & ~(1 << v)
    cand = g.adj[v] & ~s
    for w in _bits(cand):
        if g.adj[w] & h == 0:
            return w
    return None


def psd_set_from_os(g: Graph, s: OsSet) -> VertexSet:
    """Complement of an OS-set; always a psd forcing set."""
    check = verify_os_set(g, s)
    if not check:
        raise GraphError(f"invalid OS-set: {check.reason} (position {check.failing_index})")
    result = VertexSet.of(g.n, set(range(g.n)) - set(s.order))
    if not is_forcing_set(g, result, "psd"):
        raise InvariantViolation("complement of a valid OS-set must psd-force")
    return result
