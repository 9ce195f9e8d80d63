"""Graph type, families, and graph operations."""

import random

import pytest

from zforce import (
    Graph,
    GraphError,
    VertexSet,
    cartesian_product,
    components,
    family,
    induced,
)
from zforce.graph import PINWHEEL12_EDGES
from helpers import random_graph


class TestVertexSet:
    def test_basic_ops(self):
        s = VertexSet.of(6, [0, 2, 5])
        assert len(s) == 3
        assert list(s) == [0, 2, 5]
        assert 2 in s and 1 not in s

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            VertexSet.of(3, [3])
        with pytest.raises(GraphError):
            VertexSet(3, 0b1000)

    def test_immutable_and_hashable(self):
        s = VertexSet.of(4, [1])
        with pytest.raises(AttributeError):
            s.mask = 3
        assert len({s, VertexSet.of(4, [1])}) == 1


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop at vertex 0"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, [0b10, 0b00])

    @pytest.mark.parametrize("build,msg", [
        (lambda: Graph(3, (2, 1)), "adjacency length differs from n"),
        (lambda: Graph(2, (2, 9)), "adjacency of 1 has bits outside 0..1"),
        (lambda: Graph.from_edges(3, [(0, 3)]), r"edge \(0,3\) out of range for n=3"),
    ], ids=["short-rows", "row-past-n", "edge-past-n"])
    def test_rejects_malformed_rows(self, build, msg):
        with pytest.raises(GraphError, match=msg):
            build()

    def test_rejects_bad_order(self):
        with pytest.raises(GraphError):
            Graph(0, [])
        with pytest.raises(GraphError):
            Graph.from_edges(129, [])

    def test_immutable_and_hashable_ignoring_name(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], name="P3")
        with pytest.raises(AttributeError):
            g.n = 4
        with pytest.raises(AttributeError):
            g.name = "path"
        h = Graph(3, [0b010, 0b101, 0b010])
        assert isinstance(g.adj, tuple) and h.name == ""
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1

    def test_edges_and_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]


class TestFamilies:
    def test_path_cycle_complete(self):
        assert family("path", [5]).num_edges() == 4
        assert family("cycle", [5]).num_edges() == 5
        assert family("complete", [5]).num_edges() == 10
        assert family("star", [4]).degree(0) == 4
        assert family("complete_bipartite", [2, 3]).num_edges() == 6

    def test_unknown_family_and_bad_params(self):
        with pytest.raises(GraphError):
            family("petersen")
        with pytest.raises(GraphError):
            family("cycle", [2])
        with pytest.raises(GraphError):
            family("book", [1, 4])
        with pytest.raises(GraphError):
            family("four_hub_wheel", [2])
        with pytest.raises(GraphError):
            family("cycle")
        with pytest.raises(GraphError):
            family("cycle", [5, 7])

    def test_huge_parameters_refused_before_building(self, monkeypatch):
        def no_build(*args, **kwargs):
            pytest.fail("family built an edge list for an out-of-range parameter")

        monkeypatch.setattr(Graph, "from_edges", no_build)
        big = 10**6
        cases = [
            ("path", [big]), ("cycle", [big]), ("complete", [big]),
            ("complete_bipartite", [big, 1]), ("complete_bipartite", [1, big]),
            ("star", [big]), ("book", [big, 4]), ("book", [2, big]),
            ("mobius_ladder", [big]), ("four_hub_wheel", [big]),
        ]
        for name, params in cases:
            with pytest.raises(GraphError):
                family(name, params)

    def test_four_hub_wheel_shape(self):
        g = family("four_hub_wheel", [3])
        assert g.n == 16
        assert g.num_edges() == 24  # 4k cycle edges + 4 hubs * k spokes
        # hubs attach to every 4th cycle vertex and nothing else
        for j in range(4):
            assert sorted(g.neighbors(12 + j)) == [j, j + 4, j + 8]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_four_hub_wheel_bipartite(self, k):
        g = family("four_hub_wheel", [k])
        color = {0: 0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                else:
                    assert color[w] != color[v]
        assert len(color) == g.n

    def test_book_is_star_times_path2(self):
        # explicit vertex map: shared edge -> center copies, page p -> leaf p+1
        for m in (2, 3, 4):
            b = family("book", [m, 4])
            prod = cartesian_product(family("star", [m]), family("path", [2]))
            perm = {0: 0, 1: 1}
            for p in range(m):
                perm[2 + 2 * p] = 2 * (p + 1)
                perm[3 + 2 * p] = 2 * (p + 1) + 1
            mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in b.edges()}
            assert mapped == set(prod.edges())

    def test_book_orders(self):
        assert family("book", [2, 4]).n == 6
        assert family("book", [4, 5]).n == 14

    def test_mobius_ladder(self):
        g = family("mobius_ladder", [8])
        assert g.n == 8 and g.num_edges() == 12
        assert all(g.degree(v) == 3 for v in range(8))

    def test_tree_from_pruefer(self):
        t = family("tree_from_pruefer", [0, 0, 0])
        assert sorted(t.edges()) == [(0, 1), (0, 2), (0, 3), (0, 4)]
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(3, 12)
            seq = [rng.randrange(n) for _ in range(n - 2)]
            t = family("tree_from_pruefer", seq)
            assert t.n == n and t.num_edges() == n - 1 and t.is_connected()
            for v in range(n):
                assert t.degree(v) == seq.count(v) + 1


class TestPinwheel:
    def test_frozen_shape(self):
        g = family("pinwheel12")
        assert g.n == 12 and g.num_edges() == 21
        assert sorted(g.degree(v) for v in range(12)) == [2] * 3 + [3] * 3 + [4] * 3 + [5] * 3

    def test_blade_rotation_is_automorphism(self):
        g = family("pinwheel12")
        rho = {0: 6, 1: 7, 2: 8, 6: 9, 7: 10, 8: 11, 9: 0, 10: 1, 11: 2,
               3: 4, 4: 5, 5: 3}
        rotated = {tuple(sorted((rho[u], rho[v]))) for u, v in g.edges()}
        assert rotated == set(g.edges())

    def test_center_removal_gives_three_blades(self):
        g = family("pinwheel12")
        rest = VertexSet.of(12, set(range(12)) - {3, 4, 5})
        comps = components(g, rest)
        assert [sorted(c) for c in comps] == [[0, 1, 2], [6, 7, 8], [9, 10, 11]]

    def test_first_six_induced_subgraph(self):
        # blade {1,2,3} plus the central triangle; 9 edges, and the centers
        # {4,5,6} standard-force it (the per-component step of psd forcing)
        g = family("pinwheel12")
        sub, idx = induced(g, VertexSet.of(12, range(6)))
        assert idx == (0, 1, 2, 3, 4, 5)
        assert sub.num_edges() == 9
        assert set(sub.edges()) == {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                                    (2, 4), (3, 4), (3, 5), (4, 5)}
        from zforce import is_forcing_set

        assert is_forcing_set(sub, VertexSet.of(6, [3, 4, 5]), "standard")


class TestOperations:
    def test_product_square(self):
        prod = cartesian_product(family("path", [2]), family("path", [2]))
        assert set(prod.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_product_prism(self):
        prod = cartesian_product(family("path", [2]), family("complete", [3]))
        assert prod.n == 6 and prod.num_edges() == 9
        assert all(prod.degree(v) == 3 for v in range(6))

    def test_product_identity_factor(self):
        g = family("cycle", [5])
        assert cartesian_product(g, family("complete", [1])).adj == g.adj

    def test_product_degree_sum(self):
        rng = random.Random(5)
        g = random_graph(rng, 4)
        h = random_graph(rng, 5)
        prod = cartesian_product(g, h)
        for i in range(4):
            for j in range(5):
                assert prod.degree(i * 5 + j) == g.degree(i) + h.degree(j)

    def test_components_examples(self):
        p3 = family("path", [3])
        comps = components(p3, VertexSet.of(3, [0, 2]))
        assert [sorted(c) for c in comps] == [[0], [2]]
        g = family("cycle", [6])
        assert components(g, VertexSet.full(6)) == [VertexSet.full(6)]
        assert components(g, VertexSet(6, 0)) == []

    def test_components_partition_property(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 12), 0.3)
            within = VertexSet.of(
                g.n, [v for v in range(g.n) if rng.random() < 0.7]
            )
            comps = components(g, within)
            union = 0
            for c in comps:
                assert union & c.mask == 0
                union |= c.mask
            assert union == within.mask

    def test_induced(self):
        k4 = family("complete", [4])
        sub, idx = induced(k4, VertexSet.of(4, [0, 2, 3]))
        assert sub.num_edges() == 3 and idx == (0, 2, 3)
        p3 = family("path", [3])
        sub, _ = induced(p3, VertexSet.of(3, [1]))
        assert sub.n == 1 and sub.num_edges() == 0
        with pytest.raises(GraphError):
            induced(p3, VertexSet(3, 0))

    def test_pinwheel_edge_constant_matches(self):
        g = family("pinwheel12")
        assert {(u - 1, v - 1) for u, v in PINWHEEL12_EDGES} == set(g.edges())

    def test_product_size_guard(self):
        from zforce import SizeLimitError

        with pytest.raises(SizeLimitError):
            cartesian_product(family("complete", [12]), family("complete", [12]))


class TestTextInputs:
    def test_edge_list_parses_one_based(self):
        from zforce import parse_edge_list

        g = parse_edge_list("1 2\n2 3\n# comment\n\n3 4\n")
        assert g.n == 4 and g.edges() == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("text,msg", [
        ("1 2 3\n", "expected"),
        ("0 2\n", "1-based"),
        ("2 2\n", "self-loop"),
        ("a b\n", "non-integer"),
        ("", "no edges"),
    ])
    def test_edge_list_errors(self, text, msg):
        from zforce import ParseError, parse_edge_list

        with pytest.raises(ParseError, match=msg):
            parse_edge_list(text)

    def test_edge_list_huge_label_refused_before_allocating(self):
        import tracemalloc

        from zforce import parse_edge_list

        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="outside supported range"):
                parse_edge_list("1 1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
