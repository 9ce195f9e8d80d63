"""Exact path cover and edge clique cover numbers, and the nullity sandwich.

These pin down the maximum positive semidefinite nullity M+ between
n - cc(G) from below and Z+(G) from above; neither M+ nor any minimum rank
parameter is computed directly.  Witnesses are returned and re-verified.

The path cover number is a memoised DP over vertex masks whose candidate
paths, per lowest vertex of a mask, are enumerated once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .graph import Graph, InvariantViolation, SizeLimitError, _bits
from .search import DEFAULT_SEARCH_LIMIT, min_degree, zero_forcing_number

DEFAULT_PATH_COVER_LIMIT = 16
DEFAULT_CLIQUE_EDGE_LIMIT = 40

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
        return {
            "n": self.n,
            "delta": self.delta,
            "path_cover": self.path_cover,
            "clique_cover": self.clique_cover,
            "z": self.z,
            "zplus": self.zplus,
            "os": self.os,
            "lower_mplus": self.lower_mplus,
            "notes": list(self.notes),
        }


def path_cover_number(g: Graph, *, limit: int = DEFAULT_PATH_COVER_LIMIT) -> PathCover:
    """Minimum number of vertex-disjoint induced paths covering V, with witness.

    DP over vertex masks s: the lowest vertex v of s lies on a path of
    paths[v] (the induced paths through v in the vertices >= v) inside s.
    """
    if g.n > limit:
        raise SizeLimitError(f"path cover refused for n={g.n} > limit {limit}")
    paths = [_induced_paths_from(g.adj, v) for v in range(g.n)]

    @lru_cache(maxsize=None)
    def solve(s: int) -> tuple[int, tuple[int, ...]]:
        """(cover size, first chosen path) for the vertex mask s."""
        if s == 0:
            return 0, ()
        best = None
        for pmask, order in paths[(s & -s).bit_length() - 1]:
            if not pmask & ~s:
                size = solve(s & ~pmask)[0] + 1
                if best is None or size < best[0]:
                    best = (size, order)
        return best

    cover, s = [], (1 << g.n) - 1
    number = solve(s)[0]
    while s:
        _, order = solve(s)
        cover.append(order)
        s &= ~sum(1 << v for v in order)
    if len(cover) != number:
        raise InvariantViolation("path cover witness length differs from optimum")
    _check_path_cover(g, cover)
    return PathCover(number, tuple(cover))


def _induced_paths_from(adj, v: int):
    """All induced paths through v inside the vertices >= v, as (mask, order)."""
    seen = {1 << v}  # a vertex set fixes an induced path's endpoints
    stack = [(1 << v, (v,))]
    out = []
    while stack:
        pmask, order = stack.pop()
        out.append((pmask, order))
        for end, extend_front in ((order[0], True), (order[-1], False)):
            for u in _bits(adj[end] & -(1 << v) & ~pmask):
                if adj[u] & pmask != 1 << end:
                    continue  # chord: extension would not stay induced
                nmask = pmask | 1 << u
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


def clique_cover_number(
    g: Graph, *, edge_limit: int = DEFAULT_CLIQUE_EDGE_LIMIT
) -> CliqueCover:
    """Minimum number of cliques covering every edge, with witness.

    Exact set cover over maximal cliques (restriction to maximal cliques
    loses nothing for edge covers).  The edgeless graph needs 0 cliques.
    """
    edges = g.edges()
    if len(edges) > edge_limit:
        raise SizeLimitError(
            f"clique cover refused for {len(edges)} edges > limit {edge_limit}"
        )
    if not edges:
        return CliqueCover(0, ())
    cliques = maximal_cliques(g)
    edge_sets = []
    for c in cliques:
        es = 0
        for i, u in enumerate(c):
            for v in c[i + 1:]:
                es |= 1 << _edge_index(edges, u, v)
        edge_sets.append(es)
    full = (1 << len(edges)) - 1
    covering = [
        [i for i, es in enumerate(edge_sets) if (es >> e) & 1]
        for e in range(len(edges))
    ]
    best: list = [len(edges) + 1, None]

    def descend(uncovered: int, used: tuple[int, ...]):
        if not uncovered:
            best[0], best[1] = len(used), used
            return
        if len(used) + 1 >= best[0]:
            return
        e = (uncovered & -uncovered).bit_length() - 1
        for ci in covering[e]:
            descend(uncovered & ~edge_sets[ci], used + (ci,))

    descend(full, ())
    witness = tuple(cliques[i] for i in best[1])
    _check_clique_cover(g, witness)
    return CliqueCover(best[0], witness)


def _edge_index(edges, u, v) -> int:
    return edges.index((min(u, v), max(u, v)))


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


def bounds_report(
    g: Graph,
    *,
    search_limit: int = DEFAULT_SEARCH_LIMIT,
    workers: int = 1,
) -> BoundsReport:
    """Assemble the bound chain n - cc <= Z+ <= Z, P <= Z, delta <= Z+.

    Violations raise InvariantViolation (exit code 4 in the CLI) since they
    would falsify a theorem or reveal a bug.
    """
    delta = min_degree(g)
    z = zero_forcing_number(g, "standard", limit=search_limit, workers=workers).value
    zplus = zero_forcing_number(g, "psd", limit=search_limit, workers=workers).value
    pc = path_cover_number(g).number
    cc = clique_cover_number(g).number
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
