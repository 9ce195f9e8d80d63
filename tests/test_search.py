"""Exact Z / Z+ search, minimum-set enumeration, and OS-set machinery.

The search oracles are `reference_minimum` and `reference_closure` in
tests/helpers.py, which sweep every subset with plain Python sets; frozen
expected values in the examples were computed with them.
"""

import concurrent.futures
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import zforce.search
from zforce import (
    Graph,
    GraphError,
    OsCheck,
    PatternCheck,
    SizeLimitError,
    VertexSet,
    all_minimum_zfs,
    build_tree_clique_witness,
    cartesian_product,
    certificate,
    clique_cover_number,
    derived_set,
    family,
    is_forcing_set,
    is_psd,
    maximum_os_set,
    min_zfs_intersection,
    numeric_rank,
    os_from_psd_set,
    path_cover_number,
    pattern_matches,
    psd_set_from_os,
    support_matches,
    verify_os_set,
    zero_forcing_number,
)
from zforce.reproduce import connected_graphs_upto, random_connected_graphs
from helpers import (
    disconnected_graphs,
    disjoint_union,
    random_graph,
    reference_closure,
    reference_minimum,
    set_components,
)


PINNED_GRAPHS = {
    "pinwheel12": family("pinwheel12"),
    "ML12": family("mobius_ladder", [12]),
    "ML8+K1,3+K1": disjoint_union(
        family("mobius_ladder", [8]), family("star", [3]), family("path", [1])),
}


def reference_os_set(g):
    """Unpruned OS DP: every mask, layer by layer, with a full BFS per probe.

    A mask keeps the first v, ascending, whose smallest outside neighbour w
    has no neighbour in the rest of v's component; the answer is the
    smallest mask of the last non-empty layer.
    """
    n = g.n
    nbrs = [set(g.neighbors(v)) for v in range(n)]

    def component(s, v):
        inside = [x for x in range(n) if (s >> x) & 1]
        return next(part for part in set_components(nbrs, inside) if v in part)

    parent, best = {0: None}, 0
    for size in range(1, n + 1):
        found = False
        for s in range(1 << n):
            if s.bit_count() != size:
                continue
            for v in range(n):
                if not (s >> v) & 1 or s & ~(1 << v) not in parent:
                    continue
                h = component(s, v) - {v}
                w = next((w for w in range(n) if not (s >> w) & 1
                          and g.has_edge(v, w)
                          and not any(g.has_edge(w, u) for u in h)), None)
                if w is not None:
                    parent[s] = (v, w)
                    found, best = True, size
                    break
        if not found:
            break
    s = min(m for m in parent if m.bit_count() == best)
    order, wits = [], []
    while s:
        v, w = parent[s]
        order.insert(0, v)
        wits.insert(0, w)
        s &= ~(1 << v)
    return tuple(order), tuple(wits)


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
            res = zero_forcing_number(g, rule)
            assert res.value == len(reference_minimum(g, rule))
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
            assert res.best.to_list() == list(reference_minimum(g, "standard"))

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "pure-python"])
    @pytest.mark.parametrize("rule", ["standard", "psd"])
    def test_isolated_vertex_adds_its_own_scan(self, kc, monkeypatch, cold_memo,
                                               rule, compiled):
        # a connected graph is scanned whole, a proper component is induced
        # and its set mapped back: both paths must give the same counts
        monkeypatch.setattr(zforce.kernels, "_c", kc if compiled else None)
        k1 = Graph(1, [0])
        lone = zero_forcing_number(k1, rule)
        for g in connected_graphs_upto(6):
            whole = zero_forcing_number(g, rule)
            for union, mask in [(disjoint_union(k1, g), 1 | whole.best.mask << 1),
                                (disjoint_union(g, k1), whole.best.mask | 1 << g.n)]:
                res = zero_forcing_number(union, rule)
                assert (res.value, res.best.mask, res.nodes_explored) == (
                    whole.value + 1, mask, whole.nodes_explored + lone.nodes_explored), g

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            zero_forcing_number(family("path", [25]))
        assert zero_forcing_number(family("path", [25]), limit=25).value == 1

    def test_workers_deterministic(self, monkeypatch):
        # every k >= 5 of C4xC4 has at least _PARALLEL_MIN_WORK subsets, so a
        # real two-process pool splits them; it must give the serial value
        # and set, and the in-process double's node counts, which exceed the
        # serial ones since each chunk starts with an empty cache
        g = cartesian_product(family("cycle", [4]), family("cycle", [4]))
        monkeypatch.setattr(zforce.search.os, "cpu_count", lambda: 2)
        pooled = search_outputs(g, ["psd", "standard"], workers=2)
        use_in_process_pool(monkeypatch)
        assert search_outputs(g, ["psd", "standard"], workers=2) == pooled
        assert [nodes for _, _, nodes in pooled] == [15325, 15327]
        assert [out[:2] for out in pooled] == [
            out[:2] for out in search_outputs(g, ["psd", "standard"])]

    @pytest.mark.parametrize("name,rule,value,best,nodes", [
        # pinwheel12 and ML12 as in perfbench/golden.json
        ("pinwheel12", "psd", 3, [0, 1, 5], 41),
        ("pinwheel12", "standard", 4, [0, 1, 5, 7], 130),
        ("ML12", "psd", 4, [0, 1, 2, 3], 190),
        ("ML12", "standard", 4, [0, 1, 2, 3], 191),
        ("ML8+K1,3+K1", "psd", 6, [0, 1, 2, 3, 8, 12], 35),
        ("ML8+K1,3+K1", "standard", 7, [0, 1, 2, 3, 9, 10, 12], 45),
    ])
    def test_pinned_outputs(self, name, rule, value, best, nodes, cold_memo):
        g = PINNED_GRAPHS[name]
        other = "psd" if rule == "standard" else "standard"
        # on an empty memo, then on one that holds both rules' scans
        for _ in range(2):
            res = zero_forcing_number(g, rule)
            assert (res.value, res.best.to_list(), res.nodes_explored) == \
                (value, best, nodes)
            zero_forcing_number(g, other)

    def test_one_pool_per_call(self, monkeypatch):
        built = use_in_process_pool(monkeypatch)
        monkeypatch.setattr(zforce.search, "_PARALLEL_MIN_WORK", 1)
        g = disjoint_union(family("mobius_ladder", [8]), family("star", [3]))
        res = zero_forcing_number(g, "standard", workers=2)
        assert built == [2]
        # a real two-process pool gives this value, set and node count too
        assert (res.value, res.best.to_list(), res.nodes_explored) == \
            (6, [0, 1, 2, 3, 9, 10], 50)
        zero_forcing_number(g, "standard", workers=1)
        assert built == [2]

    def test_pool_leaves_small_subset_spaces_whole(self, monkeypatch):
        # no subset space of pinwheel12 reaches _PARALLEL_MIN_WORK, so the
        # pooled search scans each k in one piece, at the serial node counts
        built = use_in_process_pool(monkeypatch)
        g = family("pinwheel12")
        for rule, nodes in (("standard", 130), ("psd", 41)):
            res = zero_forcing_number(g, rule, workers=2)
            assert res.nodes_explored == nodes
        assert built == [2, 2]

    def test_workers_bounded_by_cpu_count(self, monkeypatch):
        built = use_in_process_pool(monkeypatch)
        # one worker, or one CPU, searches serially and builds no pool
        for cpus, workers, pools in ((8, 1, []), (2, 10000, [2]), (None, 3, [])):
            monkeypatch.setattr(zforce.search.os, "cpu_count", lambda cpus=cpus: cpus)
            built.clear()
            assert zero_forcing_number(family("pinwheel12"), workers=workers).value == 4
            assert built == pools
        for bad in (0, -4):
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

    @pytest.mark.parametrize("workers", [1.5, 2.0, "2"])
    def test_non_integer_workers_are_rejected(self, workers):
        with pytest.raises(GraphError, match="workers must be an integer"):
            zero_forcing_number(family("path", [3]), workers=workers)

    @pytest.mark.parametrize("search,limit", [
        (zero_forcing_number, "30"), (maximum_os_set, None)])
    def test_non_integer_limit_is_rejected(self, search, limit):
        with pytest.raises(GraphError, match="limit must be an integer"):
            search(family("path", [3]), limit=limit)

    def test_import_leaves_the_process_pool_out(self):
        code = (
            "import sys\n"
            "import zforce, zforce.cli, zforce.reproduce\n"
            "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n"
        )
        src = str(Path(zforce.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_edgeless_needs_everything(self):
        g = Graph(4, [0, 0, 0, 0])
        assert zero_forcing_number(g).value == 4


def use_in_process_pool(monkeypatch) -> list[int]:
    """Serve `workers > 1` searches from an in-process stand-in for the pool
    on a notional 4-CPU host; returns the list of pool sizes built."""
    built = []

    class InProcessPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(zforce.search.os, "cpu_count", lambda: 4)
    return built


def search_outputs(g, rules, workers=1):
    return [
        (r.value, r.best, r.nodes_explored)
        for rule in rules for r in [zero_forcing_number(g, rule, workers=workers)]
    ]


class TestScanMemo:
    def test_cold_and_warm_memo_agree(self, cold_memo):
        rng = random.Random(59)
        graphs = connected_graphs_upto(7) + [
            random_graph(rng, n, rng.choice([0.2, 0.3, 0.45]))
            for n in range(10, 17) for _ in range(3)
        ]
        memo = zforce.search._serial_scan
        for g in graphs:
            cold = {}
            for rule in ("psd", "standard"):
                memo.cache_clear()
                cold[rule] = search_outputs(g, [rule])[0]
            for order in (("psd", "standard"), ("standard", "psd")):
                memo.cache_clear()
                want = [cold[rule] for rule in order]
                assert search_outputs(g, order) == want  # the second one hits
                assert search_outputs(g, order) == want  # both hit

    def test_pool_bypasses_the_memo(self, monkeypatch, cold_memo):
        g = disjoint_union(family("mobius_ladder", [8]), family("star", [3]))
        serial = zero_forcing_number(g, "standard")
        assert serial.nodes_explored == 43
        use_in_process_pool(monkeypatch)
        monkeypatch.setattr(zforce.search, "_PARALLEL_MIN_WORK", 1)
        res = zero_forcing_number(g, "standard", workers=2)
        assert (res.value, res.best.to_list(), res.nodes_explored) == \
            (6, [0, 1, 2, 3, 9, 10], 50)

    def test_memo_stays_bounded(self, cold_memo):
        # a 9-vertex path plus extra edges from the bits of i: each i is a
        # distinct connected graph, so each one adds a memo entry
        size = zforce.search._SCAN_MEMO
        path = [(v, v + 1) for v in range(8)]
        extra = [e for e in combinations(range(9), 2) if e not in path]
        for i in range(size + 20):
            chords = [e for b, e in enumerate(extra) if (i >> b) & 1]
            zero_forcing_number(Graph.from_edges(9, path + chords), "psd")
        info = zforce.search._serial_scan.cache_info()
        assert info.misses == size + 20
        assert info.currsize <= size


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
            k = len(reference_minimum(g, "standard"))
            want = [
                list(s) for s in combinations(range(g.n), k)
                if reference_closure(g, s, "standard") == set(range(g.n))
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
        short = verify_os_set(g, OsSet((0, 1), (1,)))
        assert not short and "differ in length" in short.reason
        placed = verify_os_set(family("path", [4]), OsSet((0, 1), (1, 0)))
        assert not placed and placed.failing_index == 2
        assert "already placed" in placed.reason
        paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        other = verify_os_set(paw, OsSet((0, 1), (2, 2)))
        assert not other and other.failing_index == 2
        assert "another neighbor" in other.reason

    def test_os_number_examples(self):
        assert len(maximum_os_set(family("path", [2]))) == 1
        assert len(maximum_os_set(family("mobius_ladder", [8]))) == 4

    def test_duality_on_random_graphs(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6]))
            assert len(maximum_os_set(g)) + zero_forcing_number(g, "psd").value == g.n

    def test_maximum_os_set_verifies(self):
        g = family("mobius_ladder", [8])
        s = maximum_os_set(g)
        assert len(s) == 4 and verify_os_set(g, s)

    def test_maximum_os_set_matches_unpruned_reference(self):
        rng = random.Random(67)
        graphs = connected_graphs_upto(6) + [
            random_graph(rng, rng.randint(7, 8), rng.choice([0.25, 0.4, 0.6]))
            for _ in range(40)
        ] + disconnected_graphs(random.Random(71), 8)
        for g in graphs:
            s = maximum_os_set(g)
            assert (s.order, s.witnesses) == reference_os_set(g)

    def test_pinned_os_witnesses(self):
        p2 = family("path", [2])
        cases = [
            (family("mobius_ladder", [8]), (3, 2, 0, 1), (2, 1, 1, 5)),
            (cartesian_product(cartesian_product(p2, p2), p2),
             (3, 2, 1, 0), (1, 0, 5, 4)),
            (family("cycle", [7]), (4, 3, 2, 1, 0), (3, 2, 1, 0, 6)),
            (family("complete", [1]), (), ()),
        ]
        for g, order, wits in cases:
            s = maximum_os_set(g)
            assert (s.order, s.witnesses) == (order, wits)

    def test_os_component_searches_bounded(self, monkeypatch):
        calls = []
        component_mask = zforce.search.component_mask

        def counted(g, within, v):
            calls.append(v)
            return component_mask(g, within, v)

        monkeypatch.setattr(zforce.search, "component_mask", counted)
        p2 = family("path", [2])
        for g, most in ((family("mobius_ladder", [8]), 333),
                        (cartesian_product(cartesian_product(p2, p2), p2), 324)):
            calls.clear()
            maximum_os_set(g)
            assert len(calls) <= most

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
        # the message names a position only when the fault has one
        for s, message in ((OsSet((0,), (2,)), "witness 2 not adjacent to 0 (position 1)"),
                           (OsSet((0, 1), (1,)),
                            "order and witness sequences differ in length")):
            with pytest.raises(GraphError) as exc:
                psd_set_from_os(g, s)
            assert str(exc.value) == f"invalid OS-set: {message}"

    def test_os_size_guard(self):
        with pytest.raises(SizeLimitError):
            maximum_os_set(family("cycle", [9]))
        assert len(maximum_os_set(family("cycle", [9]), limit=9)) == 7

    def test_os_ceiling_refuses_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="n=21 > ceiling 20"):
                maximum_os_set(family("path", [21]), limit=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_duality_and_construction_on_disconnected_graphs(self):
        rng = random.Random(53)
        for _ in range(10):
            a = random_graph(rng, rng.randint(1, 4))
            b = random_graph(rng, rng.randint(1, 4))
            g = disjoint_union(a, b)
            zp = zero_forcing_number(g, "psd").value
            assert len(maximum_os_set(g)) + zp == g.n
            s = os_from_psd_set(g, zero_forcing_number(g, "psd").best)
            assert len(s) == g.n - zp and verify_os_set(g, s)


def test_unrank_matches_itertools():
    import math

    from zforce.search import _unrank

    for n, k in ((6, 3), (8, 1), (8, 8), (10, 4)):
        combos = list(combinations(range(n), k))
        for rank in range(0, math.comb(n, k), max(1, math.comb(n, k) // 17)):
            assert _unrank(n, k, rank) == combos[rank]


P3 = family("path", [3])
REMOVED_PARAMETERS = [
    (path_cover_number, (P3,), "limit"),
    (clique_cover_number, (P3,), "edge_limit"),
    (pattern_matches, (np.eye(3), P3), "tol"),
    (support_matches, (np.eye(2), np.eye(2)), "tol"),
    (is_psd, (np.eye(2),), "tol"),
    (PatternCheck, (), "tol"),
    (build_tree_clique_witness, (family("path", [2]), 2), "alpha_schedule"),
    (certificate, (derived_set(P3, VertexSet.of(3, [0])),), "one_based"),
    (min_zfs_intersection, (P3,), "limit"),
    (numeric_rank, (np.eye(2),), "tol"),
    (random_connected_graphs, (1, [3]), "seed"),
]


@pytest.mark.parametrize("fn,args,keyword", [
    pytest.param(*case, id=f"{case[0].__name__}-{case[2]}")
    for case in REMOVED_PARAMETERS
])
def test_removed_parameters_are_rejected(fn, args, keyword):
    with pytest.raises(TypeError, match=keyword):
        fn(*args, **{keyword: 1})


def test_removed_names_are_gone():
    import dataclasses

    import zforce
    from zforce import Force, Graph, chains, forcing, graph, kernels

    for owner, name in ((forcing, "ChainDecomposition"), (graph, "read_graph6_file"),
                        (kernels, "HAVE_COMPILED"), (Graph, "complement"),
                        (forcing, "derived_mask"), (zforce.search, "_pool_size"),
                        (zforce.search, "_chunk_worker")):
        assert not hasattr(owner, name) and not hasattr(zforce, name), name
    assert [f.name for f in dataclasses.fields(Force)] == ["forcer", "forced", "component"]
    # a verdict stores only its fault; bool() says whether there is one
    assert [f.name for f in dataclasses.fields(PatternCheck)] == ["first_mismatch"]
    assert [f.name for f in dataclasses.fields(OsCheck)] == ["failing_index", "reason"]
    log = derived_set(P3, VertexSet.of(3, [0]))
    assert chains(log) == ((0, 1, 2),)
