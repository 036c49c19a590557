"""Cayley graphs under the right-translation action.

A connection set S is an inverse-closed subset of G not containing the
identity, held as a frozenset of element indices.  Cay[G:S] has vertex
set G and edges {g, s*g}; the difference of an edge {g, h} is h*g^-1
(together with its inverse), so translating an edge on the right by any
x preserves its difference.  The complete graph on G is Cay[G:G\\{1}],
and removing the perfect matching I induced by the unique involution
leaves the cocktail party graph Cay[G:G\\{1, inv}].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .groups import FiniteGroup, GroupError

Edge = tuple[int, int]  # vertex indices, ordered min first


def edge(u: int, v: int) -> Edge:
    if u == v:
        raise GroupError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class CayleyGraph:
    group: FiniteGroup
    connection: frozenset[int]

    @cached_property
    def edges(self) -> frozenset[Edge]:
        G = self.group
        out: set[Edge] = set()
        for g in range(len(G)):
            for s in self.connection:
                out.add(edge(g, G.mul(s, g)))
        return frozenset(out)


@lru_cache(maxsize=None)
def cocktail_party_graph(group: FiniteGroup) -> CayleyGraph:
    """K_v minus the involution matching; the graph all solutions decompose.

    Cached per group, so its edge set is built once per group."""
    drop = {group.identity, group.unique_involution()}
    return CayleyGraph(group, frozenset(range(len(group))) - drop)
