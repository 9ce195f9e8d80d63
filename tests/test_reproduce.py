"""Graph enumeration helpers behind the reproduce criteria."""

import networkx.generators.atlas as atlas
import pytest

from zforce import reproduce


def test_atlas_read_once(monkeypatch):
    calls = []
    read_atlas = atlas.graph_atlas_g

    def counted():
        calls.append(1)
        return read_atlas()

    monkeypatch.setattr(atlas, "graph_atlas_g", counted)
    reproduce._connected_atlas.cache_clear()
    upto6 = reproduce.connected_graphs_upto(6)
    upto7 = reproduce.connected_graphs_upto(7)
    assert len(calls) == 1
    # connected classes of order 1..6, then the 853 of order 7
    assert (len(upto6), len(upto7)) == (143, 996)
    assert upto7[:len(upto6)] == upto6
    assert all(g.is_connected() and 1 <= g.n <= 6 for g in upto6)


def test_atlas_order_cap():
    with pytest.raises(ValueError):
        reproduce.connected_graphs_upto(8)


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
