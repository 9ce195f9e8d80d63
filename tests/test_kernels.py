"""Compiled and pure kernels agree; closures satisfy the rule definitions.

The oracle is `reference_closure` in tests/helpers.py, which recomputes
derived sets with plain Python sets straight from the two rule definitions,
one force at a time, independently of the batched bitmask kernels.  The
compiled twin comes from the `kc` fixture (tests/conftest.py), which always
builds it from the current `_kernels.c`.
"""

import math
import random

import pytest

from zforce import Graph, cartesian_product, family, kernels, search, zero_forcing_number
from zforce import _kernels_py as kpy
from zforce.search import _unrank
from helpers import random_graph, reference_closure, reference_forces

CLOSURES = {"standard": kpy.closure_standard, "psd": kpy.closure_psd}


@pytest.mark.parametrize("rule", ["standard", "psd"])
def test_pure_kernel_matches_oracle(rule):
    rng = random.Random(17)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7]))
        black = {v for v in range(g.n) if rng.random() < 0.3}
        got = CLOSURES[rule](g.adj, g.n, sum(1 << v for v in black))
        assert got == sum(1 << v for v in reference_closure(g, black, rule))


class TestCompiledTwin:
    def test_closures_agree(self, kc):
        rng = random.Random(23)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 64), rng.random())
            mask = rng.randrange(1 << g.n)
            assert kc.closure_standard(g.adj, g.n, mask) == \
                kpy.closure_standard(g.adj, g.n, mask)
            assert kc.closure_psd(g.adj, g.n, mask) == \
                kpy.closure_psd(g.adj, g.n, mask)

    def test_search_agrees_including_node_counts(self, kc):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), rng.random())
            k = rng.randint(1, g.n)
            for psd in (False, True):
                assert kc.first_forcing_lex(g.adj, g.n, k, psd) == \
                    kpy.first_forcing_lex(g.adj, g.n, k, psd)
                assert kc.all_forcing_lex(g.adj, g.n, k, psd) == \
                    kpy.all_forcing_lex(g.adj, g.n, k, psd)

    def test_chunked_search_agrees(self, kc):
        rng = random.Random(31)
        g = random_graph(rng, 9, 0.4)
        for start in ((0, 1, 2), (2, 4, 8), (0, 5, 6)):
            for count in (1, 7, 50):
                assert kc.first_forcing_lex(g.adj, g.n, 3, False, start, count) \
                    == kpy.first_forcing_lex(g.adj, g.n, 3, False, start, count)

    @pytest.mark.parametrize("g, k", [
        (cartesian_product(family("cycle", [4]), family("cycle", [5])), 7),
        (random_graph(random.Random(2), 18, 0.35), 6),
    ], ids=["C4xC5", "G18"])
    def test_search_agrees_where_the_cache_ring_wraps(self, kc, g, k):
        # psd level Z+ - 1: every subset fails, so tens of thousands of
        # failed closures pass through the 64-entry ring
        full = kpy.first_forcing_lex(g.adj, g.n, k, True)
        assert full[0] is None and full[1] > 10_000
        assert kc.first_forcing_lex(g.adj, g.n, k, True) == full
        total = math.comb(g.n, k)
        chunk = total // 3 + 1
        for lo in range(0, total, chunk):
            start = _unrank(g.n, k, lo)
            assert kc.first_forcing_lex(g.adj, g.n, k, True, start, chunk) == \
                kpy.first_forcing_lex(g.adj, g.n, k, True, start, chunk)

    def test_ring_overwrites_slot_zero_first(self, kc):
        # a chunk of G18's psd level 6 whose closure count moves when the
        # full ring is overwritten from slot 1 instead of slot 0
        g = random_graph(random.Random(2), 18, 0.35)
        for mod in (kc, kpy):
            assert mod.first_forcing_lex(
                g.adj, g.n, 6, True, (0, 1, 9, 13, 15, 16), 581) == (None, 493)

    def test_compiled_rejects_oversized(self, kc):
        with pytest.raises(ValueError):
            kc.closure_standard([0] * 65, 65, 0)

    @pytest.mark.parametrize("n, adj", [
        (0, []),
        (3, [0b110, 0b101]),  # fewer than n rows
        (3, [0b110, 0b101, 0b1011]),  # a row past n bits
        (3, [0b110, 0b101, -1]),
    ])
    def test_compiled_rejects_bad_graphs(self, kc, n, adj):
        for call in (lambda: kc.closure_standard(adj, n, 0),
                     lambda: kc.closure_psd(adj, n, 0),
                     lambda: kc.first_forcing_lex(adj, n, 1, False),
                     lambda: kc.all_forcing_lex(adj, n, 1, True)):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("n, black", [(3, 0b1000), (3, -1), (64, 1 << 64)])
    def test_compiled_rejects_masks_past_n_bits(self, kc, n, black):
        adj = family("path", [n]).adj
        for closure in (kc.closure_standard, kc.closure_psd):
            with pytest.raises(ValueError):
                closure(adj, n, black)


@pytest.mark.parametrize("start", [(0, 0, 1), (2, 1, 3), (0, 1, 9), (0, 1), (0, 1, 2, 3),
                                   (-1, 1, 2), (0, 1, 1 << 70), (0.0, 1.0)])
def test_both_twins_reject_bad_start(kc, start):
    g = random_graph(random.Random(31), 9, 0.4)
    for mod in (kpy, kc):
        with pytest.raises(ValueError):
            mod.first_forcing_lex(g.adj, g.n, 3, False, start, 5)


@pytest.mark.parametrize("start", [(0.0, 1.0, 2.0), (2.0, 1.0, 3.0), (5, 1, 2.0)])
def test_both_twins_reject_non_integer_start(kc, start):
    g = random_graph(random.Random(31), 9, 0.4)
    for mod in (kpy, kc):
        with pytest.raises(TypeError):
            mod.first_forcing_lex(g.adj, g.n, 3, False, start, 5)


@pytest.mark.parametrize("count", [2.0, -1.0])
def test_both_twins_reject_non_integer_count(kc, count):
    g = random_graph(random.Random(31), 9, 0.4)
    for mod in (kpy, kc):
        with pytest.raises(TypeError):
            mod.first_forcing_lex(g.adj, g.n, 3, False, (0, 1, 2), count)


@pytest.mark.parametrize("scan,k", [("first_forcing_lex", 0), ("all_forcing_lex", 10)])
def test_both_twins_reject_k_outside_1_to_n(kc, scan, k):
    g = random_graph(random.Random(31), 9, 0.4)
    for mod in (kpy, kc):
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            getattr(mod, scan)(g.adj, g.n, k, False)


@pytest.mark.parametrize("fn, args, message", [
    ("closure_standard", ((2, 5, 2), 3, -1), "mask does not fit in n bits"),
    ("closure_standard", ((2, 5, 2), 3, 32), "mask does not fit in n bits"),
    ("closure_psd", ((2, 5, 2), 3, 8), "mask does not fit in n bits"),
    ("closure_standard", ((2, 5), 3, 1), "adj has fewer than n rows"),
    ("closure_psd", ((2, 5), 3, 1), "adj has fewer than n rows"),
    ("first_forcing_lex", ((2, 5, 10), 3, 1, False), "mask does not fit in n bits"),
    ("all_forcing_lex", ((2, 5, 10), 3, 1, False), "mask does not fit in n bits"),
    ("all_forcing_lex", ((2, -5, 2), 3, 1, True), "mask does not fit in n bits"),
    ("first_forcing_lex", ((2, 5), 3, 1, True), "adj has fewer than n rows"),
    ("all_forcing_lex", ((2, 5), 3, 4, False), "need 1 <= k <= n"),
])
@pytest.mark.parametrize("twin", ["kc", "kpy"])
def test_both_twins_reject_malformed_input_alike(request, twin, fn, args, message):
    """k first, then the row count, each of the first n rows, the black mask."""
    mod = request.getfixturevalue("kc") if twin == "kc" else kpy
    with pytest.raises(ValueError) as exc:
        getattr(mod, fn)(*args)
    assert str(exc.value) == message


def test_both_backends_give_the_same_search_end_to_end(kc, monkeypatch, cold_memo):
    graphs = [family("pinwheel12"), family("mobius_ladder", [12]),
              random_graph(random.Random(12), 12, 0.4)]
    calls = []
    lex = kernels.first_forcing_lex

    def counted(adj, n, *args):
        calls.append(kernels.backend_name(n))
        return lex(adj, n, *args)

    monkeypatch.setattr(kernels, "first_forcing_lex", counted)
    runs = {}
    for backend in (kc, None):
        monkeypatch.setattr(kernels, "_c", backend)
        search._serial_scan.cache_clear()
        name = kernels.backend_name(12)
        runs[name] = [
            (r.value, r.best, r.nodes_explored)
            for g in graphs for rule in ("standard", "psd")
            for r in [zero_forcing_number(g, rule)]
        ]
    assert set(runs) == {"compiled", "pure-python"}
    assert runs["compiled"] == runs["pure-python"]
    # the memo was cleared between backends, so each backend ran its own scans
    assert calls.count("compiled") == calls.count("pure-python") > 0


def test_large_orders_use_python_ints():
    # n > 64 falls back to the pure path transparently
    g = family("path", [70])
    res = zero_forcing_number(g, "standard", limit=70)
    assert res.value == 1 and res.best.to_list() == [0]


def test_single_word_boundary_order_64(kc):
    g = family("path", [64])
    full = (1 << 64) - 1
    assert kc.closure_standard(g.adj, 64, 1 << 63) == full
    assert kc.closure_standard(g.adj, 64, 1 << 63) == \
        kpy.closure_standard(g.adj, 64, 1 << 63)
    c = family("cycle", [64])
    assert kc.closure_psd(c.adj, 64, 0b11) == kpy.closure_psd(c.adj, 64, 0b11) == full
    # vertices 1..62 each fail and 63 (the top bit) forces the path
    for mod in (kc, kpy):
        assert mod.first_forcing_lex(g.adj, 64, 1, False, (1,)) == (1 << 63, 63)
        assert mod.all_forcing_lex(g.adj, 64, 1, False) == [1, 1 << 63]
        assert mod.first_forcing_lex(c.adj, 64, 2, True, (62, 63)) == (3 << 62, 1)


@pytest.mark.parametrize("rule", ["standard", "psd"])
def test_monotonicity(rule):
    closure = CLOSURES[rule]
    rng = random.Random(37)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), 0.35)
        s = rng.randrange(1 << g.n)
        extra = rng.randrange(1 << g.n)
        assert closure(g.adj, g.n, s) & ~closure(g.adj, g.n, s | extra) == 0


def test_standard_closure_within_psd_closure():
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), 0.35)
        s = rng.randrange(1 << g.n)
        assert kpy.closure_standard(g.adj, g.n, s) & \
            ~kpy.closure_psd(g.adj, g.n, s) == 0


def test_monotonicity_and_dominance_on_every_small_graph():
    # every isomorphism class up to order 7, a few nested pairs each
    from networkx.generators.atlas import graph_atlas_g

    rng = random.Random(53)
    for nxg in graph_atlas_g():
        if not 1 <= nxg.number_of_nodes() <= 7:
            continue
        # atlas graphs are labelled 0..n-1
        g = Graph.from_edges(nxg.number_of_nodes(), nxg.edges())
        for _ in range(3):
            s = rng.randrange(1 << g.n)
            t = s | rng.randrange(1 << g.n)
            for clo in CLOSURES.values():
                assert clo(g.adj, g.n, s) & ~clo(g.adj, g.n, t) == 0
            assert kpy.closure_standard(g.adj, g.n, s) & \
                ~kpy.closure_psd(g.adj, g.n, s) == 0


@pytest.mark.parametrize("rule", ["standard", "psd"])
def test_fixpoint_soundness(rule):
    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        s = rng.randrange(1 << g.n)
        derived = CLOSURES[rule](g.adj, g.n, s)
        black = {v for v in range(g.n) if (derived >> v) & 1}
        assert reference_forces(g, black, rule) == []
