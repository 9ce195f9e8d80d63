"""Immutable bitset graphs, graph6 serialization, and named graph families.

Vertices are always 0..n-1 internally; the CLI layer converts to and from
the 1-based labels customary in drawings of the named graphs.  Adjacency rows are Python
ints used as bitmasks, so any order up to MAX_VERTICES works everywhere;
the compiled kernels additionally fast-path n <= 64 (single machine word).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

MAX_VERTICES = 128

GRAPH6_HEADER = ">>graph6<<"


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class ParseError(GraphError):
    """Malformed textual input (graph6 or edge list)."""


class SizeLimitError(RuntimeError):
    """Input exceeds a configured exact-search or representation limit."""


class InvariantViolation(RuntimeError):
    """A proved relationship between computed quantities failed to hold.

    Raised instead of silently reporting, since it means either a bug here
    or a counterexample to a theorem.
    """


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Immutable subset of the vertices 0..n-1, stored as a bitmask."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"vertex set order {self.n} is negative")
        if self.mask < 0 or self.mask >> self.n:
            raise GraphError(f"mask {self.mask:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def of(cls, n: int, vertices) -> "VertexSet":
        m = 0
        for v in vertices:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range 0..{n - 1}")
            m |= 1 << v
        return cls(n, m)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return _bits(self.mask)

    def __contains__(self, v):
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def to_list(self) -> list[int]:
        return list(self)

    def __repr__(self):
        return f"VertexSet({sorted(self)}, n={self.n})"


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency.

    Immutable after construction; safe to share across workers.  Equality
    and hashing ignore `name`.
    """

    n: int
    adj: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        n = self.n
        if not 1 <= n <= MAX_VERTICES:
            raise GraphError(f"order {n} outside supported range 1..{MAX_VERTICES}")
        adj = tuple(self.adj)
        if len(adj) != n:
            raise GraphError("adjacency length differs from n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"adjacency of {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v in range(n):
            for w in _bits(adj[v]):
                if not (adj[w] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {v} and {w}")
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges, name: str = "") -> "Graph":
        if not 1 <= n <= MAX_VERTICES:  # before the rows are allocated
            raise GraphError(f"order {n} outside supported range 1..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, name=name)

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet(self.n, self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v
        ]

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return component_mask(self.adj, full, 0) == full

    def __repr__(self):
        label = self.name or "graph"
        return f"<Graph {label}: n={self.n}, m={self.num_edges()}>"


def _bits(mask: int):
    while mask:
        v = (mask & -mask).bit_length() - 1
        yield v
        mask &= mask - 1


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (the `>>graph6<<` header is optional)."""
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise ParseError("empty graph6 string")
    for off, ch in enumerate(line):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(
                f"non-printable graph6 byte {ord(ch):#x} at offset {off}"
            )
    data = line.encode("ascii")
    n, pos = _read_order(data)
    if n < 1:
        raise ParseError("graph6 order must be at least 1")
    if n > MAX_VERTICES:
        raise SizeLimitError(f"graph6 order {n} exceeds {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < nbytes:
        raise ParseError(
            f"graph6 body too short: need {nbytes} bytes, got {len(body)}"
        )
    if len(body) > nbytes:
        raise ParseError(f"trailing garbage at byte offset {pos + nbytes}")
    bits = "".join(f"{b - 63:06b}" for b in body)
    rows = [0] * n
    for (i, j), bit in zip(_upper_triangle(n), bits):
        if bit == "1":
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    idx = bits.find("1", nbits)  # padding bits must be zero for a canonical string
    if idx >= 0:
        raise ParseError(f"nonzero padding bit at bit index {idx}")
    return Graph(n, rows)


def write_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 string (inverse of parse_graph6)."""
    bits = "".join(str(g.adj[i] >> j & 1) for i, j in _upper_triangle(g.n))
    bits += "0" * (-len(bits) % 6)
    return _write_order(g.n) + "".join(
        chr(63 + int(bits[p:p + 6], 2)) for p in range(0, len(bits), 6))


def _upper_triangle(n: int):
    """graph6's bit order: the upper triangle column by column,
    (0,1), (0,2), (1,2), (0,3), ..."""
    return ((i, j) for j in range(1, n) for i in range(j))


def _read_order(data: bytes) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    start, end = (2, 8) if data[1:2] == b"~" else (1, 4)
    if len(data) < end:
        raise ParseError("truncated graph6 length prefix")
    n = 0
    for b in data[start:end]:
        n = (n << 6) | (b - 63)
    return n, end


def _write_order(n: int) -> str:
    # Graph caps n at MAX_VERTICES, so the 4-byte form always suffices
    if n <= 62:
        return chr(63 + n)
    return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))


def parse_edge_list(text: str) -> Graph:
    """Parse the `u v` per line edge format (1-based labels, as printed).

    The order is taken to be the largest label seen, so isolated vertices
    cannot be expressed in this format; use graph6 for those.
    """
    edges = []
    hi = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"edge list line {ln}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"edge list line {ln}: non-integer label in {raw!r}")
        if u < 1 or v < 1:
            raise ParseError(f"edge list line {ln}: labels are 1-based")
        if u == v:
            raise ParseError(f"edge list line {ln}: self-loop at {u}")
        hi = max(hi, u, v)
        edges.append((u - 1, v - 1))
    if not edges:
        raise ParseError("edge list contains no edges")
    return Graph.from_edges(hi, edges)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------


def _check_order(g: Graph, s: VertexSet):
    if s.n != g.n:
        raise GraphError(f"vertex set of order {s.n} given for a graph of order {g.n}")


def components(g: Graph, within: VertexSet) -> list[VertexSet]:
    """Connected components of the subgraph induced on `within`.

    Returned in ascending order of their smallest vertex.
    """
    _check_order(g, within)
    remaining = within.mask
    comps = []
    while remaining:
        comp = component_mask(g.adj, remaining,
                              (remaining & -remaining).bit_length() - 1)
        comps.append(VertexSet(g.n, comp))
        remaining &= ~comp
    return comps


def component_mask(adj, within: int, v: int) -> int:
    """Mask of the component of v in the subgraph induced on the mask `within`,
    for the bitmask adjacency rows `adj`."""
    comp = 1 << v
    frontier = comp
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def induced(g: Graph, w: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on `w` plus the map new index -> original vertex.

    Vertices are relabeled 0..|w|-1 by ascending original id.
    """
    _check_order(g, w)
    verts = sorted(w)
    if not verts:
        raise GraphError("cannot induce on the empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in _bits(g.adj[v] & w.mask):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(verts), rows), tuple(verts)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product with vertex (i, j) mapped to index i*|H| + j."""
    n = g.n * h.n
    if n > MAX_VERTICES:
        raise SizeLimitError(f"product order {n} exceeds {MAX_VERTICES}")
    edges = [(i * h.n + j, i * h.n + jj) for j, jj in h.edges() for i in range(g.n)]
    edges += [(i * h.n + j, ii * h.n + j) for i, ii in g.edges() for j in range(h.n)]
    name = ""
    if g.name and h.name:
        name = f"{g.name} x {h.name}"
    return Graph.from_edges(n, edges, name=name)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

# The 12-vertex pinwheel: an outerplanar 2-tree (triangulated 12-gon) made of
# a central triangle {4,5,6} and three rotationally equivalent 3-triangle
# blades {1,2,3}, {7,8,9}, {10,11,12} (1-based labels; blade k attaches to
# two central vertices, with its innermost vertex 1/7/10 adjacent to both).
# The triple rotation (1 7 10)(2 8 11)(3 9 12)(4 5 6) is an automorphism.
# Frozen 1-based edge list; Z = 4, Z+ = 3, P = 3, cc = 9 for this labeling.
PINWHEEL12_EDGES = (
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 5),
    (4, 5), (4, 6), (4, 10), (4, 12), (5, 6), (5, 7),
    (6, 7), (6, 9), (6, 10), (7, 8), (7, 9), (8, 9),
    (10, 11), (10, 12), (11, 12),
)


def family(name: str, params=()) -> Graph:
    """Build a named family member; see FAMILY_NAMES for the accepted names.

    Each parameter goes through int(), so the CLI passes its strings as is.
    """
    params = tuple(int(p) for p in params)
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise GraphError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    # no member has a parameter above the order cap; refuse before building edges
    _need(all(p <= MAX_VERTICES for p in params),
          f"family parameters must be at most {MAX_VERTICES}")
    try:
        return builder(*params)
    except TypeError:
        raise GraphError(f"wrong number of parameters for family {name!r}")


def _need(cond: bool, msg: str):
    if not cond:
        raise GraphError(msg)


def path_graph(n: int) -> Graph:
    _need(n >= 1, "path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle_graph(n: int) -> Graph:
    _need(n >= 3, "cycle needs n >= 3")
    return Graph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}"
    )


def complete_graph(n: int) -> Graph:
    _need(n >= 1, "complete needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2), name=f"K{n}")


def complete_bipartite_graph(a: int, b: int) -> Graph:
    _need(a >= 1 and b >= 1, "complete_bipartite needs a, b >= 1")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(a + b, edges, name=f"K{a},{b}")


def star_graph(m: int) -> Graph:
    """K_{1,m} with the center at vertex 0."""
    _need(m >= 1, "star needs m >= 1")
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)], name=f"K1,{m}")


def pinwheel12() -> Graph:
    edges = [(u - 1, v - 1) for u, v in PINWHEEL12_EDGES]
    return Graph.from_edges(12, edges, name="pinwheel12")


def book_graph(m: int, t: int = 4) -> Graph:
    """Generalized book: m copies of a t-cycle glued along one common edge.

    Vertices 0, 1 are the shared edge; page p occupies t-2 consecutive
    internal vertices starting at 2 + p*(t-2).  book(m, 4) is the ordinary
    book, isomorphic to star(m) x path(2).
    """
    _need(m >= 2, "book needs m >= 2 pages")
    _need(t >= 3, "book needs page cycles of length t >= 3")
    edges = [(0, 1)]
    for p in range(m):
        chain = [2 + p * (t - 2) + i for i in range(t - 2)]
        edges.append((0, chain[0]))
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], 1))
    return Graph.from_edges(2 + m * (t - 2), edges, name=f"B{m}^{t}")


def mobius_ladder(n: int) -> Graph:
    """Mobius ladder on n vertices: the n-cycle plus all antipodal chords."""
    _need(n >= 6 and n % 2 == 0, "mobius_ladder needs an even n >= 6")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + n // 2) for i in range(n // 2)]
    return Graph.from_edges(n, edges, name=f"ML{n}")


def four_hub_wheel(k: int) -> Graph:
    """k-wheel with 4 hubs: a 4k-cycle c_0..c_{4k-1} plus hubs h_0..h_3,
    where h_j is adjacent to c_{j+4i} for i = 0..k-1 and nothing else.

    Cycle vertices are 0..4k-1, hub h_j is 4k+j; order 4k+4.
    """
    _need(k >= 3, "four_hub_wheel needs k >= 3")
    n = 4 * k + 4
    edges = [(i, (i + 1) % (4 * k)) for i in range(4 * k)]
    for j in range(4):
        edges += [(4 * k + j, (j + 4 * i) % (4 * k)) for i in range(k)]
    return Graph.from_edges(n, edges, name=f"H4({k})")


def tree_from_pruefer(*seq: int) -> Graph:
    """Decode a Pruefer sequence (entries 0..n-1, length n-2) into a tree."""
    seq = tuple(seq)
    n = len(seq) + 2
    _need(n <= MAX_VERTICES, f"tree order {n} exceeds {MAX_VERTICES}")
    _need(all(0 <= s < n for s in seq), "Pruefer entries must be in 0..n-1")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:  # join the smallest leaf to each entry in turn
        leaf = degree.index(1)
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
    u = degree.index(1)
    edges.append((u, degree.index(1, u + 1)))
    return Graph.from_edges(n, edges, name="tree")


_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite_graph,
    "star": star_graph,
    "pinwheel12": pinwheel12,
    "book": book_graph,
    "mobius_ladder": mobius_ladder,
    "four_hub_wheel": four_hub_wheel,
    "tree_from_pruefer": tree_from_pruefer,
}
FAMILY_NAMES = tuple(_FAMILIES)
