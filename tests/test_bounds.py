"""Path cover, clique cover, and the assembled bound report.

Oracles: path covers are re-derived by brute force over ordered vertex
partitions; clique covers by sweeping all subsets of the maximal cliques.
"""

import random
from itertools import combinations, permutations

import pytest

import zforce.bounds
from zforce import (
    Graph,
    InvariantViolation,
    SizeLimitError,
    bounds_report,
    cartesian_product,
    clique_cover_number,
    family,
    maximal_cliques,
    path_cover_number,
    zero_forcing_number,
)


def random_graph(rng, n, p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def is_induced_path(g, order):
    for a, b in zip(order, order[1:]):
        if not g.has_edge(a, b):
            return False
    for i, a in enumerate(order):
        for b in order[i + 2:]:
            if g.has_edge(a, b):
                return False
    return True


def oracle_path_cover(g):
    """Brute force: try every ordered arrangement into m paths, m ascending."""
    verts = list(range(g.n))
    for m in range(1, g.n + 1):
        for perm in permutations(verts):
            for cuts in combinations(range(1, g.n), m - 1):
                parts = []
                prev = 0
                for c in list(cuts) + [g.n]:
                    parts.append(perm[prev:c])
                    prev = c
                if all(is_induced_path(g, p) for p in parts):
                    return m
    raise AssertionError


def oracle_clique_cover(g):
    cliques = maximal_cliques(g)
    edges = set(g.edges())
    if not edges:
        return 0
    for m in range(1, len(cliques) + 1):
        for chosen in combinations(cliques, m):
            covered = set()
            for c in chosen:
                covered.update(
                    (min(u, v), max(u, v)) for u in c for v in c if u < v
                )
            if covered >= edges:
                return m
    raise AssertionError


class TestPathCover:
    def test_examples(self):
        assert path_cover_number(family("pinwheel12")).number == 3
        assert path_cover_number(family("path", [7])).number == 1
        assert path_cover_number(family("star", [3])).number == 2
        assert path_cover_number(family("cycle", [6])).number == 2

    def test_witness_structure(self):
        res = path_cover_number(family("pinwheel12"))
        seen = []
        for p in res.paths:
            assert is_induced_path(family("pinwheel12"), p)
            seen.extend(p)
        assert sorted(seen) == list(range(12))

    def test_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 6), rng.choice([0.3, 0.6]))
            assert path_cover_number(g).number == oracle_path_cover(g)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            path_cover_number(family("path", [17]))

    def test_pinned_witnesses(self):
        p2 = family("path", [2])
        cases = [
            (family("pinwheel12"), ((11, 3, 0, 1), (6, 4, 2), (10, 9, 5, 8, 7))),
            (family("mobius_ladder", [8]), ((6, 7, 0, 4), (5, 1, 2, 3))),
            (cartesian_product(cartesian_product(p2, p2), p2),
             ((4, 0, 2, 3), (6, 7, 5, 1))),
            (cartesian_product(family("cycle", [4]), family("path", [3])),
             ((9, 0, 3, 4, 5, 8, 11), (6, 7, 10, 1, 2))),
            (family("book", [3, 4]), ((6, 0, 4, 5), (7, 1, 3, 2))),
        ]
        for g, paths in cases:
            res = path_cover_number(g)
            assert (res.number, res.paths) == (len(paths), paths)

    def test_paths_enumerated_once_per_vertex(self, monkeypatch):
        calls = []
        enumerate_paths = zforce.bounds._induced_paths_from

        def counted(adj, v):
            calls.append(v)
            return enumerate_paths(adj, v)

        monkeypatch.setattr(zforce.bounds, "_induced_paths_from", counted)
        for g in (family("pinwheel12"),
                  cartesian_product(family("cycle", [4]), family("path", [3]))):
            calls.clear()
            path_cover_number(g)
            assert len(calls) <= g.n


class TestCliqueCover:
    def test_examples(self):
        assert clique_cover_number(family("pinwheel12")).number == 9
        assert clique_cover_number(family("complete", [6])).number == 1
        assert clique_cover_number(family("cycle", [5])).number == 5

    def test_edgeless_is_zero(self):
        assert clique_cover_number(Graph(3, [0, 0, 0])).number == 0

    def test_triangle_free_needs_all_edges(self):
        g = family("complete_bipartite", [3, 3])
        assert clique_cover_number(g).number == 9

    def test_matches_oracle(self):
        rng = random.Random(5)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 7), rng.choice([0.4, 0.7]))
            assert clique_cover_number(g).number == oracle_clique_cover(g)

    def test_witness_covers_all_edges(self):
        res = clique_cover_number(family("pinwheel12"))
        covered = set()
        g = family("pinwheel12")
        for c in res.cliques:
            for u in c:
                for v in c:
                    if u < v:
                        assert g.has_edge(u, v)
                        covered.add((u, v))
        assert covered == set(g.edges())

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            clique_cover_number(family("complete", [10]))


class TestMaximalCliques:
    def test_pinwheel_is_all_triangles(self):
        cliques = maximal_cliques(family("pinwheel12"))
        assert len(cliques) == 10
        assert all(len(c) == 3 for c in cliques)

    def test_complete(self):
        assert maximal_cliques(family("complete", [5])) == [(0, 1, 2, 3, 4)]


class TestBoundsReport:
    def test_pinwheel_report(self):
        r = bounds_report(family("pinwheel12"))
        assert (r.delta, r.path_cover, r.clique_cover, r.z, r.zplus) == (2, 3, 9, 4, 3)
        assert r.os == 9 and r.lower_mplus == 3
        assert any("pinned" in note for note in r.notes)

    def test_star_pins_nullity_one(self):
        r = bounds_report(family("star", [4]))
        assert r.zplus == 1 and r.lower_mplus == 1
        assert any("pinned" in note for note in r.notes)

    def test_mobius_note_records_literature_gap(self):
        r = bounds_report(family("mobius_ladder", [8]))
        assert r.zplus == 4
        assert any("hM+ = 3" in note and ">" in note for note in r.notes)

    def test_edgeless(self):
        r = bounds_report(Graph(4, [0, 0, 0, 0]))
        assert r.clique_cover == 0 and r.z == 4 and r.zplus == 4
        assert r.path_cover == 4

    def test_report_roundtrips_to_dict(self):
        import json

        d = bounds_report(family("cycle", [5])).to_dict()
        assert json.loads(json.dumps(d)) == d

    def test_sandwich_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6]))
            r = bounds_report(g)  # raises InvariantViolation on any violation
            assert r.lower_mplus <= r.zplus <= r.z
            assert r.path_cover <= r.z
            assert r.delta <= r.zplus


class TestDenseAndDisconnected:
    def test_complete_sixteen_pairs_up(self):
        assert path_cover_number(family("complete", [16])).number == 8

    def test_big_cycle(self):
        assert path_cover_number(family("cycle", [16])).number == 2

    def test_isolated_vertices_are_singleton_paths(self):
        g = Graph.from_edges(5, [(1, 2)])
        assert path_cover_number(g).number == 4
        assert clique_cover_number(g).number == 1

    def test_hypercube(self):
        edges = [(u, u ^ (1 << b)) for u in range(16) for b in range(4)
                 if u < (u ^ (1 << b))]
        q4 = Graph.from_edges(16, edges)
        assert path_cover_number(q4).number == 3

    def test_four_hub_wheel_report(self):
        r = bounds_report(family("four_hub_wheel", [3]))
        # triangle-free, so the cover is one clique per edge
        assert r.clique_cover == 24
        assert r.delta == 3 and r.path_cover == 3
        assert r.zplus == r.z == 6


def test_trees_path_cover_equals_z():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 9)
        t = family("tree_from_pruefer", [rng.randrange(n) for _ in range(n - 2)])
        assert path_cover_number(t).number == zero_forcing_number(t).value
        assert zero_forcing_number(t, "psd").value == 1
