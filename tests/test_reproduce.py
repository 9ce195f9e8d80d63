"""Graph enumeration helpers behind the reproduce criteria."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from zforce import Graph, InvariantViolation, VertexSet, reproduce

SRC = Path(__file__).resolve().parents[1] / "src"


def _from_networkx(nxg) -> Graph:
    # the converter the panels were recorded with
    nodes = sorted(nxg.nodes())
    pos = {v: i for i, v in enumerate(nodes)}
    return Graph.from_edges(
        len(nodes), [(pos[u], pos[v]) for u, v in nxg.edges()]
    )


def test_tables_match_networkx():
    atlas = (_from_networkx(nxg) for nxg in graph_atlas_g() if nxg.number_of_nodes())
    connected = [g for g in atlas if g.is_connected()]
    upto6 = reproduce.connected_graphs_upto(6)
    upto7 = reproduce.connected_graphs_upto(7)
    assert upto7 == connected
    # connected classes of order 1..6, then the 853 of order 7
    assert (len(upto6), len(upto7)) == (143, 996)
    assert upto7[:len(upto6)] == upto6
    assert all(g.is_connected() and 1 <= g.n <= 6 for g in upto6)

    trees = [_from_networkx(t) for n in range(3, 11) for t in nx.nonisomorphic_trees(n)]
    assert len(trees) == 199
    assert reproduce.all_trees_upto(10)[2:] == trees


def test_tables_parsed_once(monkeypatch):
    calls = []
    parse = reproduce.parse_graph6

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(reproduce, "parse_graph6", counted)
    reproduce._connected_atlas.cache_clear()
    reproduce.connected_graphs_upto(6)
    assert len(calls) == 996
    reproduce.connected_graphs_upto(7)
    assert len(calls) == 996


def test_reproduce_does_not_import_networkx():
    code = (
        "import sys\n"
        "from zforce import cli\n"
        "rc = cli.main(['reproduce'])\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        "sys.exit(rc)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_atlas_order_cap():
    with pytest.raises(ValueError):
        reproduce.connected_graphs_upto(8)


def test_tree_order_cap():
    with pytest.raises(ValueError):
        reproduce.all_trees_upto(11)


def test_trees_honour_small_max_n():
    assert reproduce.all_trees_upto(0) == []
    assert [t.n for t in reproduce.all_trees_upto(1)] == [1]
    assert [t.n for t in reproduce.all_trees_upto(2)] == [1, 2]
    result = reproduce.criterion_trees(max_n=1)
    assert result.passed and "all 1 trees (n <= 1)" in result.summary()


@pytest.mark.parametrize("max_n", [0, -3])
def test_run_suite_rejects_max_n_below_one(max_n):
    with pytest.raises(ValueError):
        reproduce.run_suite(max_n=max_n)


def _raise_violation(g):
    raise InvariantViolation("planted")


# (criterion, name patched in zforce.reproduce, replacement given the
# original, the failing check's message): each replacement breaks exactly
# the relationship its criterion counts violations of
PLANTED_VIOLATIONS = [
    ("trees", "zero_forcing_number",
     lambda zfn: lambda g, rule: SimpleNamespace(value=zfn(g, rule).value + (rule == "psd")),
     "Z+ = 1 on all 24 trees (n <= 4); 24 violations"),
    ("trees", "path_cover_number",
     lambda pcn: lambda g: SimpleNamespace(number=pcn(g).number + 1),
     "P = Z on all 24 trees; 24 violations"),
    ("duality", "maximum_os_set", lambda os_set: lambda g: range(g.n),
     "OS + Z+ = n on 10 connected classes (n <= 4) and 0 random graphs; 10 violations"),
    ("reversal", "is_forcing_set", lambda is_forcing: lambda g, s, rule: False,
     "reversal of 30 minimum-set logs (n <= 4) is again forcing; 30 failures"),
    ("intersection", "min_zfs_intersection", lambda mzi: lambda g: VertexSet.full(g.n),
     "empty minimum-set intersection on all 9 connected classes, 2 <= n <= 4; "
     "9 violations"),
    ("intersection", "all_minimum_zfs",
     lambda amz: lambda g, rule: [VertexSet.full(g.n)],
     "every minimum-set vertex keeps an outside neighbor; 32 violations"),
    ("sandwich", "bounds_report", lambda report: _raise_violation,
     "delta <= Z+ <= Z, P <= Z, n - cc <= Z+ on 10 graphs; 10 violations"),
]


@pytest.mark.parametrize("criterion,target,replace,message", PLANTED_VIOLATIONS,
                         ids=[f"{c[0]}-{c[1]}" for c in PLANTED_VIOLATIONS])
def test_criterion_counts_planted_violations(monkeypatch, criterion, target,
                                             replace, message):
    monkeypatch.setattr(reproduce, target, replace(getattr(reproduce, target)))
    fn = dict(reproduce.CRITERIA)[criterion]
    result = fn(max_n=4)
    assert not result.passed
    assert message in result.lines
