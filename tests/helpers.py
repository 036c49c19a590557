"""Graph and verification helpers that only the tests use; the library
does not export them."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from hwpreg.cayley import CayleyGraph
from hwpreg.cycles import Cycle, cycle_orbit, partial_differences
from hwpreg.factors import Certificate
from hwpreg.groups import FiniteGroup
from hwpreg.solutions import load_solution, verify_solution


def full_connection(group: FiniteGroup) -> frozenset[int]:
    """G minus the identity: generates the complete graph."""
    return frozenset(range(len(group))) - {group.identity}


def one_factor(group: FiniteGroup) -> CayleyGraph:
    """The perfect matching I induced by the unique involution."""
    return CayleyGraph(group, frozenset({group.unique_involution()}))


def complete_graph(group: FiniteGroup) -> CayleyGraph:
    return CayleyGraph(group, full_connection(group))


def degree(graph: CayleyGraph, v: int) -> int:
    return sum(1 for e in graph.edges if v in e)


def verify_solution_by_id(sid: str) -> Certificate:
    return verify_solution(load_solution(sid))


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of checking that Orb_G(C) decomposes Cay[G:Omega(C)]."""

    ok: bool
    omega: frozenset[int]
    orbit_length: int
    edges_expected: int
    edges_seen: int
    witness: Optional[tuple[int, int]]  # an edge covered != once, if any
    message: str


def verify_orbit_decomposition(c: Cycle) -> DecompositionReport:
    """Check the full-group orbit of c covers every Cay[G:Omega] edge once."""
    G = c.group
    omega = partial_differences(c)
    orbit = cycle_orbit(c, G.whole_subgroup())
    counts: Counter[tuple[int, int]] = Counter()
    for cc in orbit.cycles:
        counts.update(cc.edges())
    target = CayleyGraph(G, omega).edges
    for e, n in counts.items():
        if n > 1:
            return DecompositionReport(
                False, omega, len(orbit), len(target), sum(counts.values()), e,
                "edge covered more than once by the cycle orbit",
            )
        if e not in target:
            return DecompositionReport(
                False, omega, len(orbit), len(target), sum(counts.values()), e,
                "orbit edge outside the Cayley graph of the differences",
            )
    missing = target - counts.keys()
    if missing:
        e = min(missing)
        return DecompositionReport(
            False, omega, len(orbit), len(target), sum(counts.values()), e,
            "Cayley graph edge not covered by the cycle orbit",
        )
    return DecompositionReport(
        True, omega, len(orbit), len(target), sum(counts.values()), None, "ok"
    )
