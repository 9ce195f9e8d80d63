"""Graph builders shared by the test modules."""

from itertools import combinations

from zforce import Graph


def random_graph(rng, n, p=0.5):
    """G(n, p): keep each edge i < j, in `combinations` order, when rng.random() < p."""
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)
