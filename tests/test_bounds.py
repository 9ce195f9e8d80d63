"""Path cover, clique cover, and the assembled bound report.

Oracles: `oracle_path_cover` re-derives the path cover number by brute force
over ordered vertex partitions, and `reference_path_cover` the witness by an
unpruned DP over the reference path tables; `oracle_clique_cover` sweeps all
subsets of the maximal cliques for the number, and `reference_clique_cover`
walks every cover for the witness.
"""

import functools
import gc
import random
import re
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

import zforce.bounds
import zforce.search
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
from zforce.reproduce import connected_graphs_upto
from helpers import disconnected_graphs, is_induced_path, random_graph


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


def reference_clique_cover(g):
    """Unpruned clique cover witness, walking every cover in the library's
    depth-first order: the lowest uncovered edge first, then each maximal
    clique on it in table order.  The library keeps the first cover of
    least size, then each later cover with the same parent (all cliques but
    the last), so the last of those siblings is its witness."""
    cliques = maximal_cliques(g)
    covers = []

    def walk(uncovered, used):
        if not uncovered:
            covers.append(used)
            return
        u, v = min(uncovered)
        for c in cliques:
            if u in c and v in c:
                walk(uncovered - set(combinations(c, 2)), used + (c,))

    walk(set(g.edges()), ())
    least = min(covers, key=len)
    return [c for c in covers if c[:-1] == least[:-1]][-1]


def reference_paths_from(g, v):
    """Induced paths through v in the vertices >= v, as (mask, order), in
    table order: a depth-first stack that extends the front end, then the
    back end, of each popped path by ascending vertex."""
    seen = {1 << v}
    stack = [(1 << v, (v,))]
    out = []
    while stack:
        pmask, order = stack.pop()
        out.append((pmask, order))
        for end, front in ((order[0], True), (order[-1], False)):
            for u in range(v + 1, g.n):
                if (pmask >> u) & 1 or not g.has_edge(end, u):
                    continue
                if any(g.has_edge(u, x) for x in order if x != end):
                    continue
                nmask = pmask | 1 << u
                if nmask not in seen:
                    seen.add(nmask)
                    stack.append((nmask, (u,) + order if front else order + (u,)))
    return out


def reference_path_cover(g):
    """Unpruned path cover DP over the reference path tables.

    Every path of the lowest vertex's table that fits is tried, and the
    first one in table order that reaches the optimum is kept.
    """
    paths = [reference_paths_from(g, v) for v in range(g.n)]
    memo = {0: (0, ())}

    def solve(s):
        if s not in memo:
            best = None
            for pmask, order in paths[(s & -s).bit_length() - 1]:
                if not pmask & ~s:
                    size = solve(s & ~pmask)[0] + 1
                    if best is None or size < best[0]:
                        best = (size, order)
            memo[s] = best
        return memo[s]

    cover, s = [], (1 << g.n) - 1
    while s:
        order = solve(s)[1]
        cover.append(order)
        s &= ~sum(1 << v for v in order)
    return len(cover), tuple(cover)


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

    def test_matches_unpruned_reference(self):
        rng = random.Random(61)
        graphs = connected_graphs_upto(6) + [
            random_graph(rng, rng.randint(7, 11), rng.choice([0.25, 0.4, 0.6]))
            for _ in range(40)
        ] + disconnected_graphs(random.Random(73), 11)
        for g in graphs:
            res = path_cover_number(g)
            assert (res.number, res.paths) == reference_path_cover(g)

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

    def test_memo_is_freed_on_return(self):
        # solve reaches itself through its closure, so a memo left filled
        # would stay alive until the cyclic GC ran
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                path_cover_number(family("pinwheel12"))
            memos = [o for o in gc.get_objects()
                     if isinstance(o, functools._lru_cache_wrapper)
                     and o.__qualname__ == "path_cover_number.<locals>.solve"]
        finally:
            gc.enable()
        assert len(memos) == 3
        assert all(m.cache_info().currsize == 0 for m in memos)

    @pytest.mark.parametrize("name,cover,fault", [
        ("path", ((0, 2), (1,)), "has a non-edge step"),
        ("complete", ((0, 1, 2),), "is not induced"),
        ("path", ((0, 1), (1, 2)), "paths overlap"),
        ("path", ((0, 1),), "does not cover V"),
    ])
    def test_witness_check_names_the_fault(self, name, cover, fault):
        with pytest.raises(InvariantViolation, match=f"path cover witness {fault}"):
            zforce.bounds._check_path_cover(family(name, [3]), cover)


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

    def test_pinned_clique_witnesses(self):
        p2 = family("path", [2])
        cases = [
            (family("pinwheel12"),
             ((0, 1, 2), (0, 3, 4), (0, 2, 4), (3, 5, 9), (3, 9, 11), (4, 5, 6),
              (5, 6, 8), (6, 7, 8), (9, 10, 11))),
            (family("mobius_ladder", [8]),
             ((0, 1), (0, 4), (0, 7), (1, 2), (1, 5), (2, 3), (2, 6), (3, 4),
              (3, 7), (4, 5), (5, 6), (6, 7))),
            (cartesian_product(cartesian_product(p2, p2), p2),
             ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7),
              (4, 5), (4, 6), (5, 7), (6, 7))),
            (family("four_hub_wheel", [3]),
             ((0, 1), (0, 11), (0, 12), (1, 2), (1, 13), (2, 3), (2, 14), (3, 4),
              (3, 15), (4, 5), (4, 12), (5, 6), (5, 13), (6, 7), (6, 14), (7, 8),
              (7, 15), (8, 9), (8, 12), (9, 10), (9, 13), (10, 11), (10, 14),
              (11, 15))),
            (family("book", [3, 4]),
             ((0, 1), (0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (1, 7), (2, 3),
              (4, 5), (6, 7))),
        ]
        for g, cliques in cases:
            res = clique_cover_number(g)
            assert (res.number, res.cliques) == (len(cliques), cliques)

    def test_matches_unpruned_reference_on_the_atlas(self):
        for g in connected_graphs_upto(7):
            res = clique_cover_number(g)
            want = reference_clique_cover(g)
            assert (res.number, res.cliques) == (len(want), want), g

    @pytest.mark.parametrize("cover,fault", [
        (((0, 1, 2),), "is not a clique"),
        (((0, 1),), "misses an edge"),
    ])
    def test_witness_check_names_the_fault(self, cover, fault):
        with pytest.raises(InvariantViolation, match=f"clique cover witness {fault}"):
            zforce.bounds._check_clique_cover(family("path", [3]), cover)


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

    def test_guards_refuse_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            pytest.fail("an exact search ran on a graph the guards refuse")

        monkeypatch.setattr(zforce.search, "zero_forcing_number", no_search)
        monkeypatch.setattr(zforce.bounds, "zero_forcing_number", no_search)
        with pytest.raises(SizeLimitError, match="path cover"):
            bounds_report(family("path", [17]))
        # the edge guard refuses before the path cover enumerates anything
        monkeypatch.setattr(zforce.bounds, "_induced_paths_from", no_search)
        with pytest.raises(SizeLimitError, match="clique cover"):
            bounds_report(family("complete", [10]))

    @pytest.mark.parametrize("name, fake, label", [
        ("clique_cover_number", lambda g: SimpleNamespace(number=8), "n - cc <= Z+"),
        ("zero_forcing_number",
         lambda g, rule: SimpleNamespace(value={"standard": 4, "psd": 5}[rule]),
         "Z+ <= Z"),
        ("path_cover_number", lambda g: SimpleNamespace(number=5), "P <= Z"),
        ("min_degree", lambda g: 4, "delta <= Z+"),
    ], ids=["n-cc<=Z+", "Z+<=Z", "P<=Z", "delta<=Z+"])
    def test_each_planted_violation_raises(self, monkeypatch, name, fake, label):
        # pinwheel12 has n 12, cc 9, Z+ 3, Z 4, P 3 and delta 2: each fake
        # breaks its own check and leaves the other three holding
        monkeypatch.setattr(zforce.bounds, name, fake)
        with pytest.raises(InvariantViolation,
                           match=re.escape(f"bound {label} violated")):
            bounds_report(family("pinwheel12"))

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
