"""Canonical force logs, chains, reversals, certificates."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import zforce
from zforce import (
    Force,
    ForceLog,
    GraphError,
    VertexSet,
    all_minimum_zfs,
    certificate,
    chains,
    components,
    derived_set,
    family,
    induced,
    is_forcing_set,
    kernels,
    os_from_psd_set,
    reversal,
)
from zforce.reproduce import connected_graphs_upto
from helpers import is_induced_path, random_graph, reference_forces


class TestDerivedSet:
    def test_path_canonical_log(self):
        g = family("path", [4])
        log = derived_set(g, VertexSet.of(4, [0]), "standard")
        assert [(f.forcer, f.forced) for f in log.forces] == [(0, 1), (1, 2), (2, 3)]
        assert log.derived == VertexSet.full(4)

    def test_psd_any_tree_singleton_forces(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(2, 10)
            t = family("tree_from_pruefer", [rng.randrange(n) for _ in range(n - 2)])
            for v in range(n):
                log = derived_set(t, VertexSet.of(n, [v]), "psd")
                assert log.derived == VertexSet.full(n)

    def test_pinwheel_published_sets(self):
        g = family("pinwheel12")
        assert is_forcing_set(g, VertexSet.of(12, [0, 1, 5, 9]), "standard")
        assert is_forcing_set(g, VertexSet.of(12, [3, 4, 5]), "psd")
        # three-vertex standard sets never suffice on the pinwheel
        for s in combinations(range(12), 3):
            assert not is_forcing_set(g, VertexSet.of(12, s), "standard")

    def test_full_set_is_forcing(self):
        g = family("cycle", [5])
        assert is_forcing_set(g, VertexSet.full(5), "standard")

    def test_log_matches_batched_kernel(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), 0.4)
            init = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.4])
            for rule in ("standard", "psd"):
                log = derived_set(g, init, rule)
                assert log.derived.mask == kernels.closure(g.adj, g.n, init.mask, rule)

    def test_log_invariants(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 10), 0.4)
            init = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.3])
            for rule in ("standard", "psd"):
                log = derived_set(g, init, rule)
                forced = [f.forced for f in log.forces]
                assert len(set(forced)) == len(forced)
                assert not any(v in init for v in forced)
                assert log.derived.mask == init.mask | sum(1 << v for v in forced)
                for f in log.forces:
                    assert g.has_edge(f.forcer, f.forced)
                if rule == "standard":
                    forcers = [f.forcer for f in log.forces]
                    assert len(set(forcers)) == len(forcers)

    @pytest.mark.parametrize("call", [derived_set, is_forcing_set])
    def test_unknown_rule_is_rejected(self, call):
        with pytest.raises(GraphError, match="unknown rule 'bogus'"):
            call(family("path", [3]), VertexSet.of(3, [0]), "bogus")

    @pytest.mark.parametrize("rule", ["standard", "psd"])
    def test_log_matches_rule_definitions(self, rule):
        for g in connected_graphs_upto(6):
            for k in range(3):
                for init in combinations(range(g.n), k):
                    log = derived_set(g, VertexSet.of(g.n, init), rule)
                    got = [(f.forcer, f.forced,
                            None if f.component is None else set(f.component))
                           for f in log.forces]
                    assert got == reference_forces(g, init, rule), (g, init)


class TestChains:
    def test_path_single_chain(self):
        g = family("path", [5])
        log = derived_set(g, VertexSet.of(5, [0]))
        assert chains(log) == ((0, 1, 2, 3, 4),)

    def test_all_black_gives_singletons(self):
        g = family("cycle", [4])
        log = derived_set(g, VertexSet.full(4))
        assert chains(log) == ((0,), (1,), (2,), (3,))

    def test_pinwheel_four_chains(self):
        g = family("pinwheel12")
        log = derived_set(g, VertexSet.of(12, [0, 1, 5, 9]))
        cs = chains(log)
        assert len(cs) == 4
        assert sorted(v for c in cs for v in c) == list(range(12))

    def test_chains_partition_and_induce_paths(self):
        rng = random.Random(13)
        found = 0
        while found < 25:
            g = random_graph(rng, rng.randint(2, 9), 0.45)
            init = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.5])
            if not is_forcing_set(g, init):
                continue
            found += 1
            log = derived_set(g, init)
            cs = chains(log)
            for c in cs:  # a forcing chain induces a path
                assert is_induced_path(g, c), c
            assert sorted(v for c in cs for v in c) == list(range(g.n))
            assert {c[0] for c in cs} == set(init)

    def test_rejects_psd_and_incomplete_logs(self):
        g = family("path", [4])
        with pytest.raises(GraphError):
            chains(derived_set(g, VertexSet.of(4, [0]), "psd"))
        with pytest.raises(GraphError):
            chains(derived_set(g, VertexSet.of(4, [1])))  # stalls, not complete
        twice = ForceLog(VertexSet.of(3, [0]), "standard",
                         (Force(0, 1), Force(0, 2)), VertexSet.full(3))
        with pytest.raises(GraphError, match="corrupt log: a vertex forces twice"):
            chains(twice)

    def test_rejects_a_vertex_forced_twice(self):
        overlap = ForceLog(VertexSet.of(3, [0, 1]), "standard",
                           (Force(0, 2), Force(1, 2)), VertexSet.full(3))
        for fn in (chains, reversal):
            with pytest.raises(GraphError,
                               match="corrupt log: vertex 2 is initial or forced twice"):
                fn(overlap)

    @pytest.mark.parametrize("initial,forces,message", [
        ([0], [(5, 1), (1, 2)], "force 5 -> 1 leaves 0..2"),
        ([0], [(0, 1), (1, 3)], "force 1 -> 3 leaves 0..2"),
        ([0], [(0, -1), (0, 1)], "force 0 -> -1 leaves 0..2"),
    ], ids=["forcer", "forced", "negative"])
    def test_rejects_a_vertex_out_of_range(self, initial, forces, message):
        log = ForceLog(VertexSet.of(3, initial), "standard",
                       tuple(Force(u, w) for u, w in forces), VertexSet.full(3))
        for fn in (chains, reversal):
            with pytest.raises(GraphError, match=f"corrupt log: {message}"):
                fn(log)

    def test_rejects_an_initial_vertex_out_of_range(self):
        log = ForceLog(VertexSet.of(4, [0, 3]), "standard",
                       (Force(0, 1), Force(1, 2)), VertexSet.full(3))
        for fn in (chains, reversal):
            with pytest.raises(GraphError,
                               match="corrupt log: initial vertex 3 leaves 0..2"):
                fn(log)

    def test_rejects_a_forcer_that_is_still_white(self):
        log = ForceLog(VertexSet.of(3, [0]), "standard",
                       (Force(0, 1), Force(2, 2)), VertexSet.full(3))
        for fn in (chains, reversal):
            with pytest.raises(GraphError,
                               match="corrupt log: vertex 2 forces before it is black"):
                fn(log)

    def test_rejects_a_vertex_never_reached(self):
        log = ForceLog(VertexSet.of(3, [0]), "standard",
                       (Force(0, 1),), VertexSet.full(3))
        for fn in (chains, reversal):
            with pytest.raises(GraphError,
                               match="corrupt log: vertex 2 is neither initial nor forced"):
                fn(log)

    def test_rejects_a_cyclic_log_without_walking_it(self):
        # the walk along 0 -> 1 -> 0 -> ... never ends, so it runs in a child
        # whose address space is capped: a regression fails with MemoryError
        # or the timeout instead of hanging the suite
        code = (
            "import resource\n"
            "from zforce import Force, ForceLog, GraphError, VertexSet, chains\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, hard))\n"
            "log = ForceLog(VertexSet.of(2, [0]), 'standard',\n"
            "               (Force(0, 1), Force(1, 0)), VertexSet.full(2))\n"
            "try:\n"
            "    chains(log)\n"
            "except GraphError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(zforce.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "corrupt log: vertex 0 is initial or forced twice\n"


class TestReversal:
    def test_path_reversal_is_other_end(self):
        g = family("path", [6])
        log = derived_set(g, VertexSet.of(6, [0]))
        assert reversal(log).to_list() == [5]

    def test_all_black(self):
        g = family("complete", [3])
        log = derived_set(g, VertexSet.full(3))
        assert reversal(log) == VertexSet.full(3)

    def test_reversal_theorem_on_random_forcing_sets(self):
        rng = random.Random(19)
        found = 0
        while found < 40:
            g = random_graph(rng, rng.randint(2, 9), 0.45)
            init = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.5])
            if not is_forcing_set(g, init):
                continue
            found += 1
            log = derived_set(g, init)
            rev = reversal(log)
            assert len(rev) == len(init)
            assert is_forcing_set(g, rev)

    def test_ends_of_the_minimum_set_logs(self):
        # the logs of reproduce's reversal criterion
        logs = [derived_set(g, s) for g in connected_graphs_upto(7)
                for s in all_minimum_zfs(g, "standard")]
        assert len(logs) == 12322
        rng = random.Random(23)
        while len(logs) < 12322 + 200:
            g = random_graph(rng, rng.randint(2, 30), rng.choice([0.1, 0.2, 0.4]))
            init = VertexSet.of(g.n, [v for v in range(g.n) if rng.random() < 0.4])
            if is_forcing_set(g, init):
                logs.append(derived_set(g, init))
        for log in logs:
            ends = VertexSet.of(log.initial.n, (c[-1] for c in chains(log)))
            assert reversal(log) == ends, log
            assert len(reversal(log)) == len(log.initial), log

    def test_pinwheel_reversal_forces(self):
        g = family("pinwheel12")
        log = derived_set(g, VertexSet.of(12, [0, 1, 5, 9]))
        assert is_forcing_set(g, reversal(log))


class TestCertificate:
    def test_standard_text(self):
        g = family("path", [3])
        log = derived_set(g, VertexSet.of(3, [0]))
        assert certificate(log) == "rule standard\ninitial 1\n1 1 -> 2\n2 2 -> 3"

    def test_psd_text_carries_components(self):
        g = family("path", [3])
        log = derived_set(g, VertexSet.of(3, [1]), "psd")
        text = certificate(log)
        lines = text.splitlines()
        assert lines[0] == "rule psd"
        assert lines[1] == "initial 2"
        assert lines[2] == "1 2 -> 1 [1]"
        assert lines[3] == "2 2 -> 3 [3]"


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "pure-python"])
def test_vertex_set_of_another_order_is_rejected(kc, monkeypatch, compiled):
    monkeypatch.setattr(kernels, "_c", kc if compiled else None)
    g = family("path", [3])
    s = VertexSet(5, 0b11000)
    calls = [lambda: components(g, s), lambda: induced(g, s),
             lambda: os_from_psd_set(g, s)]
    for rule in ("standard", "psd"):
        calls += [lambda r=rule: derived_set(g, s, r),
                  lambda r=rule: is_forcing_set(g, s, r)]
    for call in calls:
        with pytest.raises(GraphError, match="order 5 given for a graph of order 3"):
            call()
    with pytest.raises(GraphError, match="negative"):
        VertexSet(-1, 0)
