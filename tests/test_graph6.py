"""graph6 serialization against hand-decoded strings, round trips, and networkx."""

import random

import networkx as nx
import pytest

from zforce import Graph, ParseError, SizeLimitError, family, parse_graph6, write_graph6
from helpers import random_graph


def test_hand_decoded_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]
    assert write_graph6(g) == "A_"


def test_hand_decoded_edgeless_5():
    g = parse_graph6("D??")
    assert g.n == 5 and g.num_edges() == 0


def test_single_vertex():
    assert parse_graph6("@").n == 1
    assert write_graph6(Graph(1, [0])) == "@"


def test_header_is_optional():
    assert parse_graph6(">>graph6<<A_").edges() == [(0, 1)]


def test_p3_roundtrip_fixed_point():
    s = write_graph6(family("path", [3]))
    assert write_graph6(parse_graph6(s)) == s


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_random(seed):
    rng = random.Random(seed)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 70))
        assert parse_graph6(write_graph6(g)) == g


def test_matches_networkx_encoding():
    rng = random.Random(99)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 30))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert write_graph6(g) == expected
        assert parse_graph6(expected) == g


def test_error_nonprintable_byte_names_offset():
    with pytest.raises(ParseError, match="offset 1"):
        parse_graph6("A\x07")


def test_error_non_ascii_rejected():
    with pytest.raises(ParseError, match="offset 1"):
        parse_graph6("Aé")


def test_error_truncated_body():
    with pytest.raises(ParseError, match="too short"):
        parse_graph6("D")


def test_error_trailing_garbage_names_offset():
    with pytest.raises(ParseError, match="offset 2"):
        parse_graph6("A__")


def test_error_bad_padding():
    # K2 body with a stray low bit set in the padding region
    bad = "A" + chr(63 + 0b100001)
    with pytest.raises(ParseError, match="padding"):
        parse_graph6(bad)


def test_error_empty():
    with pytest.raises(ParseError):
        parse_graph6("   ")


def test_error_order_zero():
    with pytest.raises(ParseError, match="order must be at least 1"):
        parse_graph6("?")


def test_eight_byte_order_prefix():
    assert parse_graph6("~~?????@").n == 1


@pytest.mark.parametrize("text", ["~~?", "~?"])
def test_error_truncated_order_prefix(text):
    with pytest.raises(ParseError, match="truncated"):
        parse_graph6(text)


def test_order_past_the_vertex_cap_is_a_size_error():
    with pytest.raises(SizeLimitError, match="graph6 order 192 exceeds 128"):
        parse_graph6("~?B" + "?" * 10)
