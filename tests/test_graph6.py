from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4free import graph6
from c4free.enumeration import enumerate_c4free_by_edges, enumerate_c4free_by_order
from c4free.graph import Graph, GraphError, make_snk, make_star
from conftest import random_graph


def reference_encode(g: Graph) -> str:
    """graph6 one bit at a time: the upper triangle column by column, cut
    into 6-bit groups, the first bit of each most significant."""
    bits = []
    for v in range(g.n):
        for u in range(v):
            bits.append(g.rows[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return graph6._encode_n(g.n) + "".join(chars)


def test_known_encodings():
    # nauty's documented examples
    assert graph6.encode(Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])) == "DQc"
    assert graph6.decode("DQc").m == 4


def test_roundtrip_special_graphs():
    for g in [make_star(1), make_star(10), make_snk(9, 1), Graph.empty(4)]:
        assert graph6.decode(graph6.encode(g)) == g


def test_header_stripped():
    g = make_star(4)
    assert graph6.decode(">>graph6<<" + graph6.encode(g)) == g


def test_matches_networkx(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 0.9))
        s = graph6.encode(g)
        G = nx.from_graph6_bytes(s.encode())
        assert sorted(G.edges()) == sorted(g.edges())
        # and the reverse direction against networkx's encoder
        s2 = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert graph6.decode(s2) == g


def test_bad_input():
    with pytest.raises(GraphError):
        graph6.decode("")
    with pytest.raises(GraphError):
        graph6.decode("D")  # truncated body
    # "B`" is "B_" with a padding bit set: one graph, one string
    assert graph6.decode("B_") == Graph.from_edges(3, [(0, 1)])
    with pytest.raises(GraphError, match="padding"):
        graph6.decode("B`")


@pytest.mark.parametrize("s", ["~", "~?", "~??", "~~", "~~?", "~~?????"])
def test_truncated_size_header(s):
    # a long-form size header needs all of its 3 or 6 digits
    with pytest.raises(GraphError, match="truncated graph6 size header"):
        graph6.decode(s)


@pytest.mark.parametrize("s", ["!", "~?!?", "~~?????!"])
def test_size_header_out_of_range(s):
    with pytest.raises(GraphError, match="invalid graph6 character"):
        graph6.decode(s)


@pytest.mark.parametrize("n", [63, 100])
def test_roundtrip_long_form(n):
    g = Graph.from_edges(n, [(0, n - 1), (1, 2), (5, 62)])
    s = graph6.encode(g)
    assert s.startswith("~") and not s.startswith("~~")
    assert graph6.decode(s) == g
    assert sorted(nx.from_graph6_bytes(s.encode()).edges()) == sorted(g.edges())


def test_decode_n_six_digit_header():
    # n = 258048 is the first order that needs the "~~" form
    assert graph6._encode_n(258048) == "~~???~??"
    assert graph6._decode_n("~~???~??rest") == (258048, "rest")
    assert graph6._decode_n("~~??????") == (0, "")


@given(st.integers(0, 14), st.integers(0, 2**105 - 1))
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(n, mask):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    g = Graph.from_edges(n, edges)
    assert graph6.decode(graph6.encode(g)) == g


def _assert_encodes_as_reference(graphs):
    for g in graphs:
        s = graph6.encode(g)
        assert s == reference_encode(g), g
        assert graph6.decode(s) == g


def test_encode_matches_reference_on_enumerated_graphs():
    graphs = list(enumerate_c4free_by_edges(10)) + list(enumerate_c4free_by_order(8))
    assert len(graphs) == 2345 + 351
    _assert_encodes_as_reference(graphs)


def test_encode_matches_reference_on_random_graphs(rng):
    _assert_encodes_as_reference(random_graph(rng, rng.randint(0, 40), rng.uniform(0.0, 0.9)) for _ in range(300))


@pytest.mark.parametrize("n", [0, 1, 62, 63, 64])
def test_encode_matches_reference_around_the_long_header(n, rng):
    # 62 is the last order of the one-character header, 63 the first of "~"
    graphs = [Graph.empty(n), random_graph(rng, n, 0.5)]
    if n:
        graphs += [make_star(n), Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])]
    _assert_encodes_as_reference(graphs)
