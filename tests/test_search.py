"""Exact Z / Z+ search, minimum-set enumeration, and OS-set machinery.

The search oracle below recomputes forcing numbers by sweeping every
subset with plain Python sets; frozen expected values in the examples were
computed with it.
"""

import random
from itertools import combinations

import pytest

import zforce.search
from zforce import (
    Graph,
    GraphError,
    SizeLimitError,
    VertexSet,
    all_minimum_zfs,
    family,
    is_forcing_set,
    maximum_os_set,
    min_zfs_intersection,
    os_from_psd_set,
    os_number_bruteforce,
    psd_set_from_os,
    verify_os_set,
    zero_forcing_number,
)
from test_kernels import oracle_closure


def random_graph(rng, n, p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def disjoint_union(*graphs):
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return Graph.from_edges(off, edges)


PINNED_GRAPHS = {
    "pinwheel12": family("pinwheel12"),
    "ML12": family("mobius_ladder", [12]),
    "ML8+K1,3+K1": disjoint_union(
        family("mobius_ladder", [8]), family("star", [3]), family("path", [1])),
}


def oracle_forcing_number(g, rule):
    """Independent exact minimum: sweep all subsets by cardinality."""
    full = set(range(g.n))
    for k in range(1, g.n + 1):
        for s in combinations(range(g.n), k):
            if oracle_closure(g, set(s), rule) == full:
                return k, set(s)
    raise AssertionError


class TestZeroForcingNumber:
    def test_pinwheel_values(self):
        g = family("pinwheel12")
        z = zero_forcing_number(g, "standard")
        assert z.value == 4
        assert is_forcing_set(g, z.best)
        assert zero_forcing_number(g, "psd").value == 3

    def test_trees_psd_one(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(2, 11)
            t = family("tree_from_pruefer", [rng.randrange(n) for _ in range(n - 2)])
            assert zero_forcing_number(t, "psd").value == 1

    def test_mobius_ladder_psd(self):
        assert zero_forcing_number(family("mobius_ladder", [8]), "psd").value == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graph(self, n):
        res = zero_forcing_number(family("complete", [n]))
        assert res.value == n - 1
        assert res.best.to_list() == list(range(n - 1))  # lex-min optimum

    def test_path_standard_one(self):
        for n in (1, 2, 5, 9):
            assert zero_forcing_number(family("path", [n])).value == 1

    @pytest.mark.parametrize("rule", ["standard", "psd"])
    def test_matches_oracle_on_random_graphs(self, rule):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 7), rng.choice([0.25, 0.5, 0.8]))
            want, _ = oracle_forcing_number(g, rule)
            res = zero_forcing_number(g, rule)
            assert res.value == want
            assert is_forcing_set(g, res.best, rule)

    @pytest.mark.parametrize("rule", ["standard", "psd"])
    def test_disconnected_additivity(self, rule):
        rng = random.Random(37)
        for _ in range(10):
            a = random_graph(rng, rng.randint(1, 5))
            b = random_graph(rng, rng.randint(1, 5))
            merged = disjoint_union(a, b)
            assert zero_forcing_number(merged, rule).value == \
                zero_forcing_number(a, rule).value + zero_forcing_number(b, rule).value

    def test_reported_set_is_global_lex_min(self):
        # per-component assembly must agree with a whole-graph lex sweep
        rng = random.Random(41)
        for _ in range(10):
            a = random_graph(rng, rng.randint(1, 4))
            b = random_graph(rng, rng.randint(1, 4))
            g = disjoint_union(a, b)
            res = zero_forcing_number(g)
            first = next(
                s for s in combinations(range(g.n), res.value)
                if oracle_closure(g, set(s), "standard") == set(range(g.n))
            )
            assert res.best.to_list() == list(first)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            zero_forcing_number(family("path", [25]))
        assert zero_forcing_number(family("path", [25]), limit=25).value == 1

    def test_workers_deterministic(self, monkeypatch):
        monkeypatch.setattr(zforce.search, "_PARALLEL_MIN_WORK", 1)
        g = family("pinwheel12")
        seq = zero_forcing_number(g, "standard", workers=1)
        par = zero_forcing_number(g, "standard", workers=3)
        assert (seq.value, seq.best) == (par.value, par.best)

    @pytest.mark.parametrize("name,rule,value,best,nodes", [
        # pinwheel12 and ML12 as in perfbench/golden.json
        ("pinwheel12", "psd", 3, [0, 1, 5], 41),
        ("pinwheel12", "standard", 4, [0, 1, 5, 7], 130),
        ("ML12", "psd", 4, [0, 1, 2, 3], 190),
        ("ML12", "standard", 4, [0, 1, 2, 3], 191),
        ("ML8+K1,3+K1", "psd", 6, [0, 1, 2, 3, 8, 12], 35),
        ("ML8+K1,3+K1", "standard", 7, [0, 1, 2, 3, 9, 10, 12], 45),
    ])
    def test_pinned_outputs(self, name, rule, value, best, nodes):
        res = zero_forcing_number(PINNED_GRAPHS[name], rule)
        assert (res.value, res.best.to_list(), res.nodes_explored) == \
            (value, best, nodes)

    def test_one_pool_per_call(self, monkeypatch):
        built = []

        class InProcessPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(zforce.search, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(zforce.search, "_PARALLEL_MIN_WORK", 1)
        monkeypatch.setattr(zforce.search.os, "cpu_count", lambda: 4)
        g = disjoint_union(family("mobius_ladder", [8]), family("star", [3]))
        res = zero_forcing_number(g, "standard", workers=2)
        assert built == [2]
        # a real two-process pool gives this value, set and node count too
        assert (res.value, res.best.to_list(), res.nodes_explored) == \
            (6, [0, 1, 2, 3, 9, 10], 50)
        zero_forcing_number(g, "standard", workers=1)
        assert built == [2]

    def test_workers_bounded_by_cpu_count(self):
        pool_size = zforce.search._pool_size
        assert pool_size(1, 8) == 1
        assert pool_size(10000, 2) == 2
        assert pool_size(3, None) == 1
        for bad in (0, -4):
            with pytest.raises(GraphError):
                pool_size(bad, 8)
            with pytest.raises(GraphError):
                zero_forcing_number(family("path", [3]), workers=bad)

    def test_serial_call_does_not_read_cpu_count(self, monkeypatch):
        def no_cpu_count():
            raise AssertionError("os.cpu_count read for a serial search")

        monkeypatch.setattr(zforce.search.os, "cpu_count", no_cpu_count)
        res = zero_forcing_number(family("pinwheel12"), workers=1)
        assert res.value == 4
        with pytest.raises(GraphError):
            zero_forcing_number(family("path", [3]), workers=0)

    def test_edgeless_needs_everything(self):
        g = Graph(4, [0, 0, 0, 0])
        assert zero_forcing_number(g).value == 4


class TestAllMinimum:
    def test_p3(self):
        sets = all_minimum_zfs(family("path", [3]))
        assert [s.to_list() for s in sets] == [[0], [2]]

    def test_k3_all_pairs(self):
        sets = all_minimum_zfs(family("complete", [3]))
        assert [s.to_list() for s in sets] == [[0, 1], [0, 2], [1, 2]]

    def test_tree_psd_every_singleton(self):
        t = family("star", [3])
        sets = all_minimum_zfs(t, "psd")
        assert [s.to_list() for s in sets] == [[0], [1], [2], [3]]

    def test_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 6))
            k, _ = oracle_forcing_number(g, "standard")
            want = [
                list(s) for s in combinations(range(g.n), k)
                if oracle_closure(g, set(s), "standard") == set(range(g.n))
            ]
            assert [s.to_list() for s in all_minimum_zfs(g)] == want

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            all_minimum_zfs(family("path", [13]))


class TestIntersection:
    def test_k2_empty(self):
        assert len(min_zfs_intersection(family("path", [2]))) == 0

    def test_k1_is_the_vertex(self):
        assert min_zfs_intersection(family("complete", [1])).to_list() == [0]

    def test_pinwheel_empty(self):
        assert len(min_zfs_intersection(family("pinwheel12"))) == 0


class TestOsSets:
    def test_tree_singleton_gives_full_os(self):
        t = family("tree_from_pruefer", [2, 3, 2])
        for v in range(t.n):
            s = os_from_psd_set(t, VertexSet.of(t.n, [v]))
            assert len(s) == t.n - 1
            assert verify_os_set(t, s)

    def test_pinwheel_center(self):
        g = family("pinwheel12")
        s = os_from_psd_set(g, VertexSet.of(12, [3, 4, 5]))
        assert len(s) == 9
        assert verify_os_set(g, s)

    def test_full_set_gives_empty_os(self):
        g = family("cycle", [4])
        assert len(os_from_psd_set(g, VertexSet.full(4))) == 0

    def test_rejects_non_forcing_input(self):
        g = family("cycle", [5])
        with pytest.raises(GraphError):
            os_from_psd_set(g, VertexSet.of(5, [0]))

    def test_verify_rejects_bad_witness(self):
        from zforce import OsSet

        g = family("path", [3])
        ok = verify_os_set(g, OsSet((0,), (1,)))
        assert ok
        bad = verify_os_set(g, OsSet((0,), (2,)))  # 2 not adjacent to 0
        assert not bad and bad.failing_index == 1 and "adjacent" in bad.reason
        dup = verify_os_set(g, OsSet((0, 0), (1, 1)))
        assert not dup
        oob = verify_os_set(g, OsSet((7,), (1,)))
        assert not oob and "range" in oob.reason

    def test_os_number_examples(self):
        assert os_number_bruteforce(family("path", [2])) == 1
        assert os_number_bruteforce(family("mobius_ladder", [8])) == 4

    def test_duality_on_random_graphs(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6]))
            assert os_number_bruteforce(g) + zero_forcing_number(g, "psd").value == g.n

    def test_maximum_os_set_verifies(self):
        g = family("mobius_ladder", [8])
        s = maximum_os_set(g)
        assert len(s) == 4 and verify_os_set(g, s)

    def test_psd_set_from_os(self):
        t = family("star", [4])
        s = os_from_psd_set(t, VertexSet.of(5, [2]))
        assert psd_set_from_os(t, s).to_list() == [2]
        g = family("cycle", [4])
        assert psd_set_from_os(g, os_from_psd_set(g, VertexSet.full(4))) == \
            VertexSet.full(4)
        ml = family("mobius_ladder", [8])
        back = psd_set_from_os(ml, maximum_os_set(ml))
        assert len(back) == 4 and is_forcing_set(ml, back, "psd")

    def test_psd_set_from_os_rejects_invalid(self):
        from zforce import OsSet

        g = family("path", [3])
        with pytest.raises(GraphError):
            psd_set_from_os(g, OsSet((0,), (2,)))

    def test_os_size_guard(self):
        with pytest.raises(SizeLimitError):
            os_number_bruteforce(family("cycle", [9]))
        assert os_number_bruteforce(family("cycle", [9]), limit=9) == 7

    def test_duality_and_construction_on_disconnected_graphs(self):
        rng = random.Random(53)
        for _ in range(10):
            a = random_graph(rng, rng.randint(1, 4))
            b = random_graph(rng, rng.randint(1, 4))
            g = disjoint_union(a, b)
            zp = zero_forcing_number(g, "psd").value
            assert os_number_bruteforce(g) + zp == g.n
            s = os_from_psd_set(g, zero_forcing_number(g, "psd").best)
            assert len(s) == g.n - zp and verify_os_set(g, s)


def test_unrank_matches_itertools():
    import math

    from zforce.search import _unrank

    for n, k in ((6, 3), (8, 1), (8, 8), (10, 4)):
        combos = list(combinations(range(n), k))
        for rank in range(0, math.comb(n, k), max(1, math.comb(n, k) // 17)):
            assert _unrank(n, k, rank) == combos[rank]
