"""Cycles on group elements, their translates, orbits and differences.

A cycle is stored in canonical form: the lexicographically least among
all rotations of both orientations, so equality means equality as a
subgraph.  The group acts on cycles by right translation, which keeps
the difference a * v^-1 of every edge {v, a}.  So a stabilizer is read
off a map of vertex codes, each vertex's pair of neighbour differences:
x fixes cycles exactly when every v*x has v's code, as then the
neighbours of v*x are those of v times x.  One kernel, _stabilizer,
takes the cycles of a cycle or a factor alike and builds their codes;
it tests only the x that send the first vertex to one with its code,
one per right coset of a subgroup known to fix them.  One helper,
_rows, lists translates: per vertex, its table row over one x per
coset of the stabilizer, so each column is one translate.  An orbit,
here or in factors.py, reads its translates off those columns.
The list of partial differences of a cycle C = (c_1, ..., c_l) is the
inverse-closed set Omega collecting c_{t+1} * c_t^-1 for every consecutive
pair (indices mod l); when the orbit of C under the full group tiles
Cay[G:Omega] exactly, those orbits are the building blocks of a
2-factorization.  Verify keeps each base cycle's Omega as an int mask,
bits d and d^-1 for each edge, computed once per cycle in one walk, and
tests the partition of G minus {1, i} with OR and AND.  A
``FactorRecipe`` names the base cycles of one factor and the subgroup
acting on them.  The document reader builds recipes, so the type lives
here; factors.py assembles and certifies them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Collection, Iterable, Optional, Sequence

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

    @cached_property
    def _omega(self) -> int:  # for verify: each cycle's Omega once, as a mask
        T, inv, v, mask = self.group.table, self.group.inv_table, self.verts, 0
        for a, b in zip(v, v[1:] + v[:1]):
            d = T[b][inv[a]]
            mask |= 1 << d | 1 << inv[d]
        return mask


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
    group: FiniteGroup, paths: Iterable[Sequence[int]], what: str, sub: Optional[Subgroup] = None,
) -> set[int]:
    """Elements of G whose right translation fixes vertex-disjoint cycles,
    given in cycle order: the x with code(v*x) = code(v) for every v on
    them, where v's code is its neighbours a and b's differences
    {a*v^-1, b*v^-1} as min*n + max.  Such an x sends the first vertex
    base to a vertex w with the same code, so the only candidates are
    base^-1 * w.

    A subgroup sub said to fix the cycles lies in the stabilizer, which
    is then a union of right cosets sub*x, as s*x fixes the cycles when x
    does: one x per coset is tested.  sub is the closure of its
    generators, so it fixes the cycles when each generator does;
    GroupError when one does not.
    """
    T, inv, n, codes = group.table, group.inv_table, len(group), {}
    for vs in paths:
        for a, v, b in zip((vs[-1], *vs[:-1]), vs, (*vs[1:], vs[0])):
            da, db = T[a][inv[v]], T[b][inv[v]]
            codes[v] = da * n + db if da < db else db * n + da
    items = codes.items()
    base, c0 = next(iter(items))
    known, gens = ((group.identity,), ()) if sub is None else (sub.members, sub.generators)
    for g in gens:
        if any(codes.get(T[v][g]) != cv for v, cv in items):
            raise GroupError(f"{what} is not fixed by its acting subgroup")
    found, tested, row = set(known), set(known), T[inv[base]]
    for w, cw in items:
        if cw == c0 and (x := row[w]) not in tested:
            coset = [T[s][x] for s in known]
            tested.update(coset)
            if all(codes.get(T[v][x]) == cv for v, cv in items):
                found.update(coset)
    if len(found) > len(known):  # sub (or {1}) is closed
        pick = itemgetter(*found)
        for a in found:
            if not found.issuperset(pick(T[a])):
                raise GroupError(f"{what} stabilizer is not closed")
    return found


def _rows(
    group: FiniteGroup, verts: Iterable[int], stab: Collection[int], members: Sequence[int]
) -> list[tuple[int, ...]]:
    """Per vertex u of verts, in order, the row u*x over the first x in
    members of each right coset Stab*x (Stab in members).  Read column by
    column, with Stab the stabilizer of the cycle verts in members, the
    rows are its distinct translates under members.  Stab*x is the set of
    inverses of the left coset x^-1*Stab, one row of the table."""
    T, xs = group.table, members
    if len(stab) > 1:
        inv, left = group.inv_table, itemgetter(*stab)
        covered, xs = set(), []
        for x in members:
            if inv[x] not in covered:
                xs.append(x)
                covered.update(left(T[inv[x]]))
    pick = itemgetter(*xs) if len(xs) > 1 else lambda row: (row[xs[0]],)
    return [pick(T[u]) for u in verts]


def cycle_stabilizer(c: Cycle) -> Subgroup:
    """Set-wise stabilizer of c under right translation, as a Subgroup."""
    G = c.group
    return Subgroup(G, tuple(sorted(_stabilizer(G, [c.verts], "cycle"))))


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
    """Distinct translates of c under sub, read off its _rows over its
    stabilizer in sub, with the orbit-stabilizer check."""
    G = c.group
    stab = _stabilizer(G, [c.verts], "cycle") & sub.member_set
    orbit = sorted({_canonical_rotation(t) for t in zip(*_rows(G, c.verts, stab, sub.members))})
    if len(orbit) * len(stab) != sub.order:
        raise GroupError(f"orbit-stabilizer mismatch: {len(orbit)} * {len(stab)} != {sub.order}")
    cycles = tuple(Cycle(G, t) for t in orbit)
    return CycleOrbit(c, sub, cycles, Subgroup(G, tuple(sorted(stab))))


@dataclass(frozen=True)
class FactorRecipe:
    """One factor: the orbits of its named base cycles under one subgroup."""

    label: str
    cycles: tuple[tuple[str, Cycle], ...]  # (cycle name, base cycle)
    subgroup_name: str
    subgroup: Subgroup


def partial_differences(c: Cycle) -> frozenset[int]:
    """Inverse-closed set of the differences realized by edges of c."""
    om = c._omega
    return frozenset(x for x in range(len(c.group)) if om >> x & 1)


def omega_representatives(c: Cycle) -> list[int]:
    """One member per inverse pair of partial_differences(c), in the order
    the pairs are first realized walking the cycle."""
    T, inv, v = c.group.table, c.group.inv_table, c.verts
    reps, seen = [], 0
    for a, b in zip(v, v[1:] + v[:1]):
        if not seen >> (d := T[b][inv[a]]) & 1:
            seen |= 1 << d | 1 << inv[d]
            reps.append(d)
    return reps


def verify_partition(group: FiniteGroup, omegas: Iterable[int]) -> tuple[int, Optional[dict]]:
    """The number of elements the difference masks omegas cover, and a witness
    that they do not partition G minus the identity and the involution, or
    None when they do: the least element used twice, with its count; else
    the least element missing; else the identity or the involution."""
    masks, union, twice = list(omegas), 0, 0
    for om in masks:
        union, twice = union | om, twice | union & om
    excluded = 1 << group.identity | 1 << group.unique_involution()
    missing, forbidden = ~union & ~excluded & (1 << len(group)) - 1, union & excluded
    witness = None
    if bad := twice or missing or forbidden:
        x = (bad & -bad).bit_length() - 1
        kind = "overlap" if twice else "missing" if missing else "forbidden"
        witness = {"kind": f"difference-{kind}", "element": group.format(x)}
        if twice:
            witness["count"] = sum(om >> x & 1 for om in masks)
    return union.bit_count(), witness
