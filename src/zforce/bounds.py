"""Exact path cover and edge clique cover numbers, and the nullity sandwich.

These pin down the maximum positive semidefinite nullity M+ between
n - cc(G) from below and Z+(G) from above; neither M+ nor any minimum rank
parameter is computed directly.  Witnesses are returned and re-verified.

The path cover number is a memoised DP over vertex masks whose candidate
paths, per lowest vertex of a mask, are enumerated once per graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache

from .graph import Graph, InvariantViolation, SizeLimitError, _bits
from .search import min_degree, zero_forcing_number

PATH_COVER_LIMIT = 16
CLIQUE_EDGE_LIMIT = 40

# Hermitian psd nullity values taken from the literature for named families;
# recorded as external data, never computed here.
LITERATURE_HERMITIAN_PSD_NULLITY = {
    "ML8": 3,
}


@dataclass(frozen=True)
class PathCover:
    number: int
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CliqueCover:
    number: int
    cliques: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BoundsReport:
    n: int
    delta: int
    path_cover: int
    clique_cover: int
    z: int
    zplus: int
    os: int
    lower_mplus: int
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


def path_cover_number(g: Graph) -> PathCover:
    """Minimum number of vertex-disjoint induced paths covering V, with witness.

    DP over vertex masks s: the lowest vertex v of s lies on a path of
    paths[v] (the induced paths through v in the vertices >= v) inside s.
    solve(s) is the cover itself: the first fitting path, in table order,
    whose rest s - p has the smallest cover, followed by that cover.
    """
    if g.n > PATH_COVER_LIMIT:
        raise SizeLimitError(
            f"path cover refused for n={g.n} > limit {PATH_COVER_LIMIT}"
        )
    paths = [_induced_paths_from(g.adj, v) for v in range(g.n)]

    @lru_cache(maxsize=None)
    def solve(s: int) -> tuple[tuple[int, ...], ...]:
        if s == 0:
            return ()
        best = None
        for pmask, order in paths[(s & -s).bit_length() - 1]:
            if not pmask & ~s:
                rest = solve(s & ~pmask)
                if best is None or len(rest) + 1 < len(best):
                    best = (order,) + rest
        return best

    cover = solve((1 << g.n) - 1)
    # solve reaches itself through its closure, so the memo would otherwise
    # live until the cyclic GC next runs
    solve.cache_clear()
    _check_path_cover(g, cover)
    return PathCover(len(cover), cover)


def _induced_paths_from(adj, v: int):
    """All induced paths through v inside the vertices >= v, as (mask, order)."""
    seen = {1 << v}  # a vertex set fixes an induced path's endpoints
    stack = [(1 << v, (v,))]
    out = []
    above = -(1 << v)
    while stack:
        pmask, order = stack.pop()
        out.append((pmask, order))
        for end, extend_front in ((order[0], True), (order[-1], False)):
            ext = adj[end] & above & ~pmask
            while ext:
                low = ext & -ext
                ext ^= low
                u = low.bit_length() - 1
                if adj[u] & pmask != 1 << end:
                    continue  # chord: extension would not stay induced
                nmask = pmask | low
                norder = (u,) + order if extend_front else order + (u,)
                if nmask not in seen:
                    seen.add(nmask)
                    stack.append((nmask, norder))
    return out


def _check_path_cover(g: Graph, cover):
    seen = 0
    for order in cover:
        for a, b in zip(order, order[1:]):
            if not g.has_edge(a, b):
                raise InvariantViolation("path cover witness has a non-edge step")
        for i, a in enumerate(order):
            for b in order[i + 2:]:
                if g.has_edge(a, b):
                    raise InvariantViolation("path cover witness is not induced")
        pm = 0
        for v in order:
            pm |= 1 << v
        if pm & seen:
            raise InvariantViolation("path cover witness paths overlap")
        seen |= pm
    if seen != (1 << g.n) - 1:
        raise InvariantViolation("path cover witness does not cover V")


def clique_cover_number(g: Graph) -> CliqueCover:
    """Minimum number of cliques covering every edge, with witness.

    Exact set cover over maximal cliques (restriction to maximal cliques
    loses nothing for edge covers).  Edge {u < v} is bit u*n + v of an edge
    mask, so the lowest uncovered bit is the lexicographically first
    uncovered edge.  An edgeless graph stops at the root with 0 cliques.

    The depth-first search takes the lowest uncovered edge, then each
    maximal clique on it in `maximal_cliques` order.  A complete cover
    replaces the witness without a size test, and once the first cover of
    least size is found the prune stops every branch but its siblings, so
    the witness is the last cover in that order with the same parent (all
    cliques but the last) as the first cover of least size.
    """
    n = g.n
    full = _edge_mask(n, g.adj)
    edges = full.bit_count()
    if edges > CLIQUE_EDGE_LIMIT:
        raise SizeLimitError(
            f"clique cover refused for {edges} edges > limit {CLIQUE_EDGE_LIMIT}"
        )
    cliques = maximal_cliques(g)
    edge_sets = []
    for c in cliques:
        cmask = sum(1 << v for v in c)
        edge_sets.append(_edge_mask(n, [cmask if v in c else 0 for v in range(n)]))
    best = None

    def descend(uncovered: int, used: tuple[int, ...]):
        nonlocal best
        if not uncovered:
            best = used
            return
        if best is not None and len(used) + 1 >= len(best):
            return
        e = uncovered & -uncovered
        for ci, es in enumerate(edge_sets):
            if es & e:
                descend(uncovered & ~es, used + (ci,))

    descend(full, ())
    witness = tuple(cliques[i] for i in best)
    _check_clique_cover(g, witness)
    return CliqueCover(len(witness), witness)


def _edge_mask(n: int, rows) -> int:
    """Edges {u < v} with v in rows[u], as bits u*n + v."""
    mask = 0
    for u, row in enumerate(rows):
        mask |= (row >> (u + 1)) << (u * n + u + 1)
    return mask


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Bron-Kerbosch with pivoting; deterministic output order."""
    out = []

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(tuple(_bits(r)))
            return
        pivot, bestdeg = -1, -1
        for u in _bits(p | x):
            d = (g.adj[u] & p).bit_count()
            if d > bestdeg:
                pivot, bestdeg = u, d
        for v in _bits(p & ~g.adj[pivot]):
            bk(r | 1 << v, p & g.adj[v], x & g.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, (1 << g.n) - 1, 0)
    return sorted(out)


def _check_clique_cover(g: Graph, cover):
    covered = set()
    for c in cover:
        for i, u in enumerate(c):
            for v in c[i + 1:]:
                if not g.has_edge(u, v):
                    raise InvariantViolation("clique cover witness is not a clique")
                covered.add((min(u, v), max(u, v)))
    if covered != set(g.edges()):
        raise InvariantViolation("clique cover witness misses an edge")


def bounds_report(g: Graph) -> BoundsReport:
    """Assemble the bound chain n - cc <= Z+ <= Z, P <= Z, delta <= Z+.

    The clique cover (at most 40 edges) and the path cover (n <= 16) run
    first, so their guards refuse an oversized graph with SizeLimitError
    before either exact search starts.  Violations raise InvariantViolation
    (exit code 4 in the CLI) since they would falsify a theorem or reveal a
    bug.
    """
    cc = clique_cover_number(g).number
    pc = path_cover_number(g).number
    delta = min_degree(g)
    z = zero_forcing_number(g, "standard").value
    zplus = zero_forcing_number(g, "psd").value
    lower = g.n - cc
    checks = (
        (lower <= zplus, "n - cc <= Z+"),
        (zplus <= z, "Z+ <= Z"),
        (pc <= z, "P <= Z"),
        (delta <= zplus, "delta <= Z+"),
    )
    for ok, label in checks:
        if not ok:
            raise InvariantViolation(f"bound {label} violated on {g!r}")
    notes = []
    if lower == zplus:
        notes.append(f"M+ pinned exactly: n - cc = Z+ = {zplus}")
    else:
        notes.append(f"M+ only bounded: {lower} <= M+ <= Z+ = {zplus}")
    if pc == z:
        notes.append("P = Z (tight)")
    hmp = LITERATURE_HERMITIAN_PSD_NULLITY.get(g.name)
    if hmp is not None:
        rel = ">" if zplus > hmp else "="
        notes.append(
            f"literature value hM+ = {hmp} (external datum): Z+ {rel} hM+"
        )
    notes.append("M, M+, hM+ and minimum ranks are bounded, not computed")
    return BoundsReport(
        n=g.n,
        delta=delta,
        path_cover=pc,
        clique_cover=cc,
        z=z,
        zplus=zplus,
        os=g.n - zplus,
        lower_mplus=lower,
        notes=tuple(notes),
    )
