"""Exact search for forcing numbers and ordered-set (OS) machinery.

Z and Z+ add over connected components, so each component is searched on
its own, by k-subsets in lexicographic order from a lower bound up: the
first hit is an optimum and the lexicographically smallest one.  Only a
proper component is induced as a graph of its own; a connected graph is
scanned as it is, so a query on one adds only a component pass to its
scan.  The lower bounds follow the chain delta <= Z+ <= Z: the psd scan
starts at the minimum degree and the standard scan continues from the Z+
value found.
A scan maps a component and a rule to its lex-first forcing mask and the
closures run; the value is the mask's size.  The serial scan runs once per
process: its result is kept in a memo of the last _SCAN_MEMO components,
keyed by component graph and rule, so a psd query followed by a standard
query on the same graph, in either order, reuses the psd scan.  The pooled
scan of `workers=`, for library callers only, runs over a process pool
imported on demand and bypasses the memo.
The OS number is computed by dynamic programming over vertex subsets and
tied to Z+ by the duality OS(G) + Z+(G) = |G|.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from . import kernels
from .forcing import _check_rule, derived_set, is_forcing_set
from .graph import (
    Graph,
    GraphError,
    InvariantViolation,
    SizeLimitError,
    VertexSet,
    _bits,
    component_mask,
    induced,
)

DEFAULT_SEARCH_LIMIT = 24
DEFAULT_ALL_MIN_LIMIT = 12
DEFAULT_OS_LIMIT = 8
OS_CEILING = 20  # the OS DP keeps about 2^n masks, so `limit` cannot lift this

_PARALLEL_MIN_WORK = 4096  # don't fork for tiny subset spaces
_SCAN_MEMO = 256  # serial component scans kept per process


@dataclass(frozen=True)
class SearchResult:
    rule: str
    value: int
    best: VertexSet
    nodes_explored: int


@dataclass(frozen=True)
class OsSet:
    """Ordered vertex sequence with one outside witness per position."""

    order: tuple[int, ...]
    witnesses: tuple[int, ...]

    def __len__(self):
        return len(self.order)


@dataclass(frozen=True)
class OsCheck:
    failing_index: int | None = None  # 1-based position k of first violation
    reason: str | None = None

    def __bool__(self):
        return self.reason is None


def _guard(n: int, limit: int, what: str):
    if not isinstance(limit, int):
        raise GraphError(f"{what}: limit must be an integer, got {limit!r}")
    if n > limit:
        raise SizeLimitError(
            f"{what} refused for n={n} > limit {limit}; raise it with limit= "
            "in the library or --search-limit on the CLI"
        )


def min_degree(g: Graph) -> int:
    return min(map(int.bit_count, g.adj))


def zero_forcing_number(
    g: Graph,
    rule: str = "standard",
    *,
    limit: int = DEFAULT_SEARCH_LIMIT,
    workers: int = 1,
) -> SearchResult:
    """Exact Z(G) (rule="standard") or Z+(G) (rule="psd") with one optimum set.

    The optimum set is the lexicographically smallest one, assembled from
    the per-component optima.  Each component is scanned once per process
    and kept in a memo of _SCAN_MEMO entries; `nodes_explored` reports the
    closures the scans cost, as in a fresh process, either way.

    `workers` (library only; at least 1, capped at the CPU count) splits
    each subset space over a process pool, imported on demand, that
    bypasses the memo.  The value and the set do not depend on it, but
    `nodes_explored` does: each worker's range starts with an empty
    failed-closure cache.
    """
    _check_rule(rule)
    if not isinstance(workers, int) or workers < 1:
        raise GraphError(f"workers must be an integer of at least 1, got {workers!r}")
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    _guard(g.n, limit, f"zero_forcing_number({rule})")
    if workers == 1:
        return _sum_components(g, rule, _serial_scan)
    from concurrent.futures import ProcessPoolExecutor
    # One pool for every component, scan and k; it forks on first use.
    with ProcessPoolExecutor(workers) as pool:
        scan = functools.partial(_scan, workers=workers, pool=pool)
        return _sum_components(g, rule, scan)


def _sum_components(g: Graph, rule: str, scan) -> SearchResult:
    """Add up the scans of g's components, taken in ascending order of their
    smallest vertex; `scan(sub, rule)` gives a component's lex-first mask and
    closure count.  Only a proper component is induced and has its set
    mapped back, so a connected graph is scanned as it is."""
    full = (1 << g.n) - 1
    rest = full
    mask = nodes = 0
    while rest:
        comp = component_mask(g.adj, rest, (rest & -rest).bit_length() - 1)
        rest ^= comp
        sub, idx = (g, None) if comp == full else induced(g, VertexSet(g.n, comp))
        submask, explored = scan(sub, rule)
        nodes += explored
        if idx is None:
            mask |= submask
        else:
            for v in _bits(submask):
                mask |= 1 << idx[v]
    return SearchResult(rule, mask.bit_count(), VertexSet(g.n, mask), nodes)


def _scan(sub: Graph, rule: str, workers: int, pool, psd=None):
    """(lex-first mask, closures run) for one connected component.

    The psd scan starts at the minimum degree; for the standard rule the
    standard scan continues from its set's size, and the closure count
    includes both.  `psd` is the psd scan's result when the caller has it.
    """
    mask, nodes = psd or _first_k(sub, "psd", max(1, min_degree(sub)), workers, pool)
    if rule == "standard":
        mask, more = _first_k(sub, rule, mask.bit_count(), workers, pool)
        nodes += more
    return mask, nodes


@functools.lru_cache(maxsize=_SCAN_MEMO)
def _serial_scan(sub: Graph, rule: str):
    """`_scan` without a pool, memoised; the graph's order fixes the backend.

    The standard scan starts from the memoised psd scan, so a psd query and
    a standard query on one graph share it in either order.
    """
    psd = _serial_scan(sub, "psd") if rule == "standard" else None
    return _scan(sub, rule, 1, None, psd)


def _first_k(sub: Graph, rule: str, lb: int, workers: int, pool):
    """(lex-first forcing k-subset mask, closures run) for the smallest k >= lb.

    With a pool, subset spaces of at least _PARALLEL_MIN_WORK are split into
    one contiguous lexicographic range per worker.
    """
    n = sub.n
    nodes = 0
    for k in range(lb, n + 1):
        if pool is None or (total := math.comb(n, k)) < _PARALLEL_MIN_WORK:
            results = [kernels.first_forcing_lex(sub.adj, n, k, rule)]
        else:
            chunk = (total + workers - 1) // workers
            results = list(pool.map(kernels.first_forcing_lex, *zip(*[
                (sub.adj, n, k, rule, _unrank(n, k, lo), min(chunk, total - lo))
                for lo in range(0, total, chunk)
            ])))
        nodes += sum(explored for _, explored in results)
        for found, _ in results:  # ranges are in lex order; first hit is lex-min
            if found is not None:
                return found, nodes
    raise InvariantViolation("V itself must always be a forcing set")


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


def min_zfs_intersection(g: Graph) -> VertexSet:
    """Intersection of all minimum standard zero forcing sets.

    Empty for every connected graph of order at least two.
    """
    sets = all_minimum_zfs(g, "standard")
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
    log = derived_set(g, x, "psd")
    if not log.is_complete():
        raise GraphError("x is not a psd forcing set")
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
        return OsCheck(None, "order and witness sequences differ in length")
    if any(not 0 <= v < g.n for v in s.order + s.witnesses):
        return OsCheck(None, "vertex id out of range")
    if len(set(s.order)) != len(s.order):
        return OsCheck(None, "repeated vertex in the order sequence")
    placed = 0
    for k, (v, w) in enumerate(zip(s.order, s.witnesses), start=1):
        placed |= 1 << v
        if (placed >> w) & 1:
            return OsCheck(k, f"witness {w} already placed at step {k}")
        if not g.has_edge(w, v):
            return OsCheck(k, f"witness {w} not adjacent to {v}")
        h_k = component_mask(g.adj, placed, v)
        if g.adj[w] & (h_k & ~(1 << v)):
            return OsCheck(k, f"witness {w} has another neighbor in the component of {v}")
    return OsCheck()


def maximum_os_set(g: Graph, *, limit: int = DEFAULT_OS_LIMIT) -> OsSet:
    """A maximum OS-set (with witnesses), from a subset DP over the masks.

    A subset S is OS-orderable iff some v in S admits an outside witness
    against the component of v in G[S] and S - v is OS-orderable; that
    criterion depends only on the set.  The masks run in increasing order,
    so every S - v is settled before S, and each orderable S stores its
    (v, w) steps: those of S - v for the first v, ascending, that works,
    then (v, w).  The answer is the smallest mask of the largest size.
    """
    if g.n > OS_CEILING:
        raise SizeLimitError(
            f"maximum_os_set refused for n={g.n} > ceiling {OS_CEILING}"
        )
    _guard(g.n, limit, "maximum_os_set")
    steps: dict[int, tuple[tuple[int, int], ...]] = {0: ()}
    for s in range(1, 1 << g.n):
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            prev = steps.get(s ^ low)
            if prev is not None:
                v = low.bit_length() - 1
                w = _os_witness(g, s, v)
                if w is not None:
                    steps[s] = prev + ((v, w),)
                    break
    best = steps[max(steps, key=lambda s: (s.bit_count(), -s))]
    return OsSet(tuple(v for v, _ in best), tuple(w for _, w in best))


def _os_witness(g: Graph, s: int, v: int):
    """Smallest valid witness for appending v to the set s (v in s), or None.

    A candidate w outside s is valid iff no neighbour of w in s - v lies in
    the component of v in G[s].  A w with a neighbour of v among those is
    rejected at once, and a w with none of them is accepted at once; only
    the other candidates need the component, found at most once per call.
    """
    adj = g.adj
    inside = s & ~(1 << v)
    comp = None
    cand = adj[v] & ~s
    while cand:
        low = cand & -cand
        cand ^= low
        w = low.bit_length() - 1
        other = adj[w] & inside
        if other & adj[v]:
            continue
        if other:
            if comp is None:
                comp = component_mask(adj, s, v)
            if other & comp:
                continue
        return w
    return None


def psd_set_from_os(g: Graph, s: OsSet) -> VertexSet:
    """Complement of an OS-set; always a psd forcing set."""
    check = verify_os_set(g, s)
    if not check:
        where = "" if check.failing_index is None else f" (position {check.failing_index})"
        raise GraphError(f"invalid OS-set: {check.reason}{where}")
    result = VertexSet.of(g.n, set(range(g.n)) - set(s.order))
    if not is_forcing_set(g, result, "psd"):
        raise InvariantViolation("complement of a valid OS-set must psd-force")
    return result
