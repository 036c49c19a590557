"""Cayley graphs under the right-translation action.

A connection set S is an inverse-closed subset of G not containing the
identity.  Cay[G:S] has vertex set G and edges {g, s*g}; the difference
of an edge {g, h} is h*g^-1 (together with its inverse), so translating
an edge on the right by any x preserves its difference.  The complete
graph on G is Cay[G:G\\{1}], and removing the perfect matching I induced
by the unique involution leaves the cocktail party graph
Cay[G:G\\{1, inv}].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .groups import FiniteGroup, GroupError

Edge = tuple[int, int]  # vertex indices, ordered min first


def edge(u: int, v: int) -> Edge:
    if u == v:
        raise GroupError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ConnectionSet:
    """Inverse-closed, identity-free subset of a group."""

    group: FiniteGroup
    members: frozenset[int]

    def __post_init__(self) -> None:
        G = self.group
        if G.identity in self.members:
            raise GroupError("connection set contains the identity")
        for s in self.members:
            if G.inv(s) not in self.members:
                raise GroupError(
                    f"connection set not inverse-closed at {G.format(s)}"
                )

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in self.members

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def inverse_pairs(self) -> list[tuple[int, ...]]:
        """Members grouped as {s, s^-1} pairs ({s} when s is an involution)."""
        seen: set[int] = set()
        pairs = []
        for s in self.sorted_members():
            if s in seen:
                continue
            t = self.group.inv(s)
            seen.update((s, t))
            pairs.append((s,) if s == t else (s, t))
        return pairs


def connection_set(group: FiniteGroup, members: Iterable[int]) -> ConnectionSet:
    return ConnectionSet(group, frozenset(members))


def cocktail_party_connection(group: FiniteGroup) -> ConnectionSet:
    """G minus the identity and its involution: generates K_v minus I."""
    drop = {group.identity, group.unique_involution()}
    return connection_set(group, (x for x in range(len(group)) if x not in drop))


@dataclass(frozen=True)
class CayleyGraph:
    group: FiniteGroup
    connection: ConnectionSet

    @cached_property
    def edges(self) -> frozenset[Edge]:
        G = self.group
        out: set[Edge] = set()
        for g in range(len(G)):
            for s in self.connection.members:
                out.add(edge(g, G.mul(s, g)))
        return frozenset(out)

    def edge_count(self) -> int:
        return len(self.edges)


def cayley_graph(group: FiniteGroup, connection: ConnectionSet) -> CayleyGraph:
    if connection.group is not group:
        raise GroupError("connection set belongs to a different group")
    return CayleyGraph(group, connection)


@lru_cache(maxsize=None)
def cocktail_party_graph(group: FiniteGroup) -> CayleyGraph:
    """K_v minus the involution matching; the graph all solutions decompose.

    Cached per group, so its edge set is built once per group."""
    return CayleyGraph(group, cocktail_party_connection(group))
