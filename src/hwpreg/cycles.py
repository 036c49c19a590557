"""Cycles on group elements, their translates, orbits and differences.

A cycle is stored in canonical form: the lexicographically least among
all rotations of both orientations, so equality means equality as a
subgraph.  The group acts on cycles by right translation, which keeps
the difference a * v^-1 of every edge {v, a}.  So a stabilizer is read
off vertex sequences: x fixes a set of cycles exactly when every vertex
v*x has the same pair of neighbour differences as v, one comparison of
a per-vertex code tuple with its image under the precomputed column
v -> v*x of the multiplication table.  The searcher uses this on plain
paths; only the orbit functions pick a transversal and build canonical
cycles, one per distinct translate.
The list of partial differences of a cycle C = (c_1, ..., c_l) is the
inverse-closed set collecting c_{t+1} * c_t^-1 for every consecutive
pair (indices mod l); when the orbit of C under the full group tiles
Cay[G:Omega] exactly, those orbits are the building blocks of a
2-factorization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import AbstractSet, Collection, Iterable, Sequence

from .groups import FiniteGroup, GroupError, Subgroup


class CycleError(ValueError):
    """Vertex sequence that does not describe a cycle."""


def _canonical_rotation(verts: tuple[int, ...]) -> tuple[int, ...]:
    # the vertices are distinct: start at the least, then go the smaller way
    i = verts.index(min(verts))
    forward = verts[i:] + verts[:i]
    return min(forward, forward[:1] + forward[:0:-1])


@dataclass(frozen=True)
class Cycle:
    """A simple cycle on group elements, canonical under rotation/reflection."""

    group: FiniteGroup
    verts: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.verts)

    def format(self) -> str:
        inner = ", ".join(self.group.format(v) for v in self.verts)
        return f"({inner})"


def cycle(group: FiniteGroup, verts: Sequence[int]) -> Cycle:
    """Validate and canonicalize a vertex sequence into a Cycle."""
    vt = tuple(verts)
    if len(vt) < 3:
        raise CycleError(f"cycle needs at least 3 vertices, got {len(vt)}")
    for v in vt:
        if not 0 <= v < len(group):
            raise CycleError(f"vertex index {v} out of range for {group.id}")
    if len(set(vt)) != len(vt):
        dup = [v for v, c in Counter(vt).items() if c > 1][0]
        raise CycleError(
            f"repeated vertex {group.format(dup)} in cycle"
        )
    return Cycle(group, _canonical_rotation(vt))


def translate_cycle(c: Cycle, x: int) -> Cycle:
    """Right-translate every vertex by x and re-canonicalize."""
    G = c.group
    return Cycle(G, _canonical_rotation(tuple(G.mul(v, x) for v in c.verts)))


def _stabilizer(
    group: FiniteGroup, paths: Iterable[Sequence[int]], what: str
) -> set[int]:
    """Elements of G whose right translation fixes vertex-disjoint cycles,
    each given as a vertex sequence in cycle order.

    Right translation keeps a * v^-1 for every edge {v, a}, as
    (a*x) * (v*x)^-1 = a * v^-1.  So each vertex v of the cycles gets a
    code, the unordered pair {a*v^-1, b*v^-1} for its neighbours a and b,
    and every other vertex gets -1.  x fixes the cycles exactly when the
    codes are invariant under v -> v*x: then the neighbours of v*x are
    a*x and b*x, so x maps edges onto edges.  Such an x sends min(V) to a
    vertex w with the same code, so the only candidates are min(V)^-1 * w
    for those w; w = min(V) gives the identity.
    """
    T, inv, n = group.table, group.inv_table, len(group)
    code = [-1] * n
    base = n
    for vs in paths:
        a, v = vs[-2], vs[-1]
        for b in vs:
            vi = inv[v]
            da, db = T[a][vi], T[b][vi]
            code[v] = da * n + db if da < db else db * n + da
            a, v = v, b
        base = min(base, *vs)
    c0 = code[base]
    found = {group.identity}
    others = code.count(c0) - 1
    if others:
        codes = tuple(code)
        translations = group.right_translations
        row = T[inv[base]]
        w = base
        for _ in range(others):
            w = code.index(c0, w + 1)
            x = row[w]
            if translations[x](codes) == codes:
                found.add(x)
    if len(found) > 1:  # {1} is closed
        pick = itemgetter(*found)
        for a in found:
            if not found.issuperset(pick(T[a])):
                raise GroupError(f"{what} stabilizer is not closed")
    return found


def _transversal(
    group: FiniteGroup, stabilizer: Collection[int], members: Sequence[int]
) -> list[int]:
    """The first x in members of each right coset Stab*x (Stab in members)."""
    T = group.table
    transversal: list[int] = []
    covered: set[int] = set()
    for x in members:
        if x not in covered:
            transversal.append(x)
            covered.update(T[s][x] for s in stabilizer)
    return transversal


def cycle_stabilizer(c: Cycle) -> Subgroup:
    """Set-wise stabilizer of c under right translation (checked subgroup)."""
    members = tuple(sorted(_stabilizer(c.group, (c.verts,), "cycle")))
    return Subgroup(c.group, members, members)


@dataclass(frozen=True)
class CycleOrbit:
    """Orbit of a base cycle under a subgroup acting by right translation."""

    base: Cycle
    subgroup: Subgroup
    cycles: tuple[Cycle, ...]
    stabilizer: Subgroup  # stabilizer of base inside the acting subgroup

    def __len__(self) -> int:
        return len(self.cycles)


def cycle_orbit(c: Cycle, sub: Subgroup) -> CycleOrbit:
    """Distinct translates of c under sub, with the orbit-stabilizer check."""
    G = c.group
    found = cycle_stabilizer(c).member_set
    stab_members = tuple(x for x in sub.members if x in found)
    stab = Subgroup(G, stab_members, stab_members)
    transversal = _transversal(G, stab_members, sub.members)
    translates = {translate_cycle(c, x) for x in transversal}
    orbit = tuple(sorted(translates, key=lambda cc: cc.verts))
    if len(orbit) * stab.order != sub.order:
        raise GroupError(
            f"orbit-stabilizer mismatch: {len(orbit)} * {stab.order} != {sub.order}"
        )
    return CycleOrbit(c, sub, orbit, stab)


def forward_differences(c: Cycle) -> list[int]:
    """Consecutive differences c_{t+1} * c_t^-1 in cycle order (with repeats)."""
    G = c.group
    v = c.verts
    return [
        G.mul(v[(t + 1) % len(v)], G.inv(v[t])) for t in range(len(v))
    ]


def partial_differences(c: Cycle) -> frozenset[int]:
    """Inverse-closed set of the differences realized by edges of c."""
    inv = c.group.inv
    return frozenset(x for d in forward_differences(c) for x in (d, inv(d)))


def omega_representatives(c: Cycle) -> list[int]:
    """One member per inverse pair of partial_differences(c), in the order
    the pairs are first realized walking the cycle."""
    G = c.group
    reps: list[int] = []
    seen: set[int] = set()
    for d in forward_differences(c):
        if d in seen:
            continue
        seen.update((d, G.inv(d)))
        reps.append(d)
    return reps


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of checking difference sets partition G minus {1, involution}."""

    ok: bool
    union_size: int
    expected_size: int
    overlaps: tuple[tuple[int, int], ...]  # (element, multiplicity > 1)
    missing: tuple[int, ...]
    forbidden: tuple[int, ...]  # identity or involution showing up


def verify_partition(
    group: FiniteGroup, omegas: Iterable[AbstractSet[int]]
) -> PartitionReport:
    counts: Counter[int] = Counter()
    for om in omegas:
        counts.update(om)
    excluded = {group.identity, group.unique_involution()}
    universe = set(range(len(group))) - excluded
    overlaps = tuple(
        (x, n) for x, n in sorted(counts.items()) if n > 1
    )
    missing = tuple(sorted(universe - counts.keys()))
    forbidden = tuple(sorted(set(counts) & excluded))
    ok = not overlaps and not missing and not forbidden
    return PartitionReport(
        ok, len(set(counts)), len(universe), overlaps, missing, forbidden
    )
