"""Cayley graphs, connection sets, and the cocktail party target graph."""

import random

import pytest

from helpers import complete_graph, degree, full_connection, one_factor
from hwpreg.cayley import CayleyGraph, cocktail_party_graph, edge
from hwpreg.groups import GROUP_IDS, GroupError, build_group


def test_edge_orders_endpoints():
    assert edge(5, 2) == (2, 5) == edge(2, 5)
    with pytest.raises(GroupError):
        edge(3, 3)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_graph_sizes(gid):
    G = build_group(gid)
    v = len(G)
    assert len(complete_graph(G).edges) == v * (v - 1) // 2
    assert len(cocktail_party_graph(G).edges) == v * (v - 2) // 2
    assert cocktail_party_graph(G) is cocktail_party_graph(G)  # once per group
    assert cocktail_party_graph(G).connection == frozenset(range(v)) - {
        G.identity,
        G.unique_involution(),
    }
    assert len(one_factor(G).edges) == v // 2
    assert len(full_connection(G)) == v - 1


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_cocktail_party_is_complete_minus_matching(gid):
    G = build_group(gid)
    assert cocktail_party_graph(G).edges | one_factor(G).edges == complete_graph(G).edges
    assert cocktail_party_graph(G).edges & one_factor(G).edges == frozenset()


def test_cocktail_party_degrees():
    G = build_group("Q24")
    graph = cocktail_party_graph(G)
    assert all(degree(graph, x) == 22 for x in range(len(G)))


def test_cayley_edges_use_right_translation():
    # edges are {g, s*g}: for Q24 and s=b, vertex a meets b*a = a^11*b,
    # not the left-translation neighbours a*b or a*b^-1
    G = build_group("Q24")
    b = G.parse("b")
    graph = CayleyGraph(G, frozenset({b, G.inv(b)}))
    g = G.parse("a")
    assert edge(g, G.parse("a11b")) in graph.edges
    assert edge(g, G.parse("a5b")) in graph.edges
    assert edge(g, G.parse("ab")) not in graph.edges
    assert edge(g, G.parse("a7b")) not in graph.edges


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_difference_is_right_translation_invariant(gid):
    G = build_group(gid)
    rng = random.Random(7)
    n = len(G)
    for _ in range(200):
        u, v, x = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        d = G.mul(v, G.inv(u))
        ux, vx = G.mul(u, x), G.mul(v, x)
        assert G.mul(vx, G.inv(ux)) == d


def test_connection_graph_is_regular_of_matching_degree():
    G = build_group("SL23")
    graph = cocktail_party_graph(G)
    assert degree(graph, 0) == len(graph.connection)
