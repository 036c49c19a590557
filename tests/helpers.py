"""Group, cycle, graph and verification helpers that only the tests use;
the library does not export them."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from hwpreg.cayley import CayleyGraph, edge
from hwpreg.cycles import Cycle, cycle, cycle_orbit, partial_differences
from hwpreg.factors import Certificate
from hwpreg.groups import FiniteGroup, Quat, build_group
from hwpreg.solutions import load_solution, verify_solution


def power(group: FiniteGroup, a: int, n: int) -> int:
    """a^n for n >= 0, by repeated multiplication."""
    acc = group.identity
    for _ in range(n):
        acc = group.mul(acc, a)
    return acc


def element_order(group: FiniteGroup, a: int) -> int:
    """The least n >= 1 with a^n = 1."""
    acc, n = a, 1
    while acc != group.identity:
        acc, n = group.mul(acc, a), n + 1
    return n


def quat_conj(x: Quat) -> Quat:
    """Conjugate; equals the inverse for unit quaternions."""
    a, b, c, d = x
    return a, (-b[0], -b[1]), (-c[0], -c[1]), (-d[0], -d[1])


def quat_norm2_times4(x: Quat) -> tuple[int, int]:
    """4 * |x|^2 as (rational, sqrt2-multiple) numerators."""
    p4 = sum(p * p + 2 * q * q for p, q in x)
    q4 = sum(2 * p * q for p, q in x)
    return p4, q4


def all_pairs_table(elements: Sequence, mul) -> tuple[tuple[int, ...], ...]:
    """The multiplication table from all n^2 products, each looked up in
    the element list: how FiniteGroup built it before it multiplied by
    generators alone."""
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)


def cycle_from_texts(group: FiniteGroup, texts: Sequence[str]) -> Cycle:
    return cycle(group, [group.parse(t) for t in texts])


def orbit_overlap_document(forbidden: bool = False) -> dict:
    """A Q24 document whose factors all assemble and whose base cycles'
    difference sets partition G minus {1, a6}, but whose F1 = Orb[H](C1) +
    Orb[H](C2), H = <b>, is not a factor of a solution: C1 = (1, a2, a4,
    a11) steps by a2 twice, so F1 has 8 differences for orbit length 6
    and its orbit covers the edge {1, a2} twice.  Every other factor is
    the right cosets of <x> for one x of order 3 or 4.  With forbidden,
    F4 = Orb[<a>]((1, a6, a6b, b)) replaces the cosets of <b>: its
    I-edges put a6 among the differences, with none doubled or missing."""
    G = build_group("Q24")

    def coset(x: str) -> list[str]:  # the cycle (1, x, x^2, ...) on <x>
        y = G.parse(x)
        powers = [G.identity]
        while G.mul(powers[-1], y) != G.identity:
            powers.append(G.mul(powers[-1], y))
        return [G.format(g) for g in powers]

    cycles = {"C1": ["1", "a2", "a4", "a11"], "C2": ["a", "a3b", "a7", "a9b"]}
    factors = [{"cycles": ["C1", "C2"], "subgroup": "H"}]
    for n, x in enumerate(["a3", "a4", "b", "ab", "a2b", "a3b", "a5b"], start=3):
        cycles[f"C{n}"] = coset(x)
        factors.append({"cycles": [f"C{n}"], "subgroup": "G"})
    subgroups = {"H": ["b"]}
    if forbidden:
        cycles["C5"] = ["1", "a6", "a6b", "b"]
        subgroups["A"] = ["a"]
        factors[3]["subgroup"] = "A"
    return {
        "id": "orbit-overlap",
        "group": "Q24",
        "subgroups": subgroups,
        "cycles": cycles,
        "factors": factors,
        "expected": {"v": 24, "r": 1, "s": 10},
    }


def cycle_edges(c: Cycle) -> list[tuple[int, int]]:
    """The edges of c in cycle order, each ordered min first."""
    v = c.verts
    return [edge(v[t], v[(t + 1) % len(v)]) for t in range(len(v))]


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
        counts.update(cycle_edges(cc))
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
