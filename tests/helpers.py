"""References shared by the test modules: graph builders, the induced-path
and component checks, and the two color change rules read off their
definitions with plain Python sets, independently of the bitmask kernels."""

from itertools import combinations

from zforce import Graph


def random_graph(rng, n, p=0.5):
    """G(n, p): keep each edge i < j, in `combinations` order, when rng.random() < p."""
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def disjoint_union(*graphs):
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return Graph.from_edges(off, edges)


def disconnected_graphs(rng, most):
    """Edgeless graphs of orders 1-6, random graphs with isolated vertices
    before or after them, and disjoint unions of two random graphs; none has
    more than `most` vertices."""
    graphs = [Graph(n, [0] * n) for n in range(1, 7)]
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, most - 2), rng.choice([0.4, 0.7]))
        isolated = Graph.from_edges(rng.randint(1, 2), [])
        graphs += [disjoint_union(isolated, g), disjoint_union(g, isolated)]
    for _ in range(10):
        a = rng.randint(1, most - 1)
        graphs.append(disjoint_union(random_graph(rng, a),
                                     random_graph(rng, rng.randint(1, most - a))))
    return graphs


def is_induced_path(g, order):
    """Consecutive vertices of `order` are adjacent and no other pair is."""
    return all(g.has_edge(a, b) == (j == i + 1)
               for (i, a), (j, b) in combinations(enumerate(order), 2))


def set_components(nbrs, verts):
    """Components of the subgraph induced on `verts`, by depth-first search
    on sets; `nbrs[v]` is the set of v's neighbours."""
    parts, left = [], set(verts)
    while left:
        part, todo = set(), [min(left)]
        while todo:
            v = todo.pop()
            if v in left:
                left.remove(v)
                part.add(v)
                todo.extend(nbrs[v])
        parts.append(part)
    return parts


def reference_forces(g, initial, rule):
    """Forces (forcer, forced, component) applied one at a time, read off the
    rule definitions: black u forces w when w is u's only neighbour in a
    white part (psd: a component of the white subgraph; standard: the whole
    white set).  Of all valid forces the smallest (u, w) is applied."""
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    black = set(initial)
    forces = []
    while True:
        white = set(range(g.n)) - black
        parts = set_components(nbrs, white) if rule == "psd" else [white]
        valid = [(u, min(nbrs[u] & part), part)
                 for part in parts for u in black if len(nbrs[u] & part) == 1]
        if not valid:
            return forces
        u, w, part = min(valid, key=lambda f: f[:2])
        forces.append((u, w, part if rule == "psd" else None))
        black.add(w)


def reference_closure(g, initial, rule):
    """The derived set; it does not depend on the order of the forces."""
    return set(initial) | {w for _, w, _ in reference_forces(g, initial, rule)}


def reference_minimum(g, rule):
    """The lexicographically first forcing set of least size, sweeping every
    subset by cardinality."""
    full = set(range(g.n))
    return next(s for k in range(g.n + 1) for s in combinations(range(g.n), k)
                if reference_closure(g, s, rule) == full)
