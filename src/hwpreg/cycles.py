"""Cycles on group elements, their translates, orbits and differences.

A cycle is stored in canonical form: the lexicographically least among
all rotations of both orientations, so equality means equality as a
subgraph.  The group acts on cycles by right translation, which keeps
the difference a * v^-1 of every edge {v, a}.  So a stabilizer is read
off vertex codes, each vertex's pair of neighbour differences: x fixes
cycles exactly when every v*x has v's code, as then the neighbours of
v*x are those of v times x.  A cycle's stabilizer tests the at most l
x that send its first vertex to one with its code; a family's compares
a length-v code tuple with its image under the table column v -> v*x.
An orbit reads each translate off the table rows, one per coset of the
stabilizer, and canonicalises it.
The list of partial differences of a cycle C = (c_1, ..., c_l) is the
inverse-closed set Omega collecting c_{t+1} * c_t^-1 for every consecutive
pair (indices mod l); when the orbit of C under the full group tiles
Cay[G:Omega] exactly, those orbits are the building blocks of a
2-factorization.  Verify keeps each base cycle's Omega as an int mask,
bits d and d^-1 for each edge, computed once per cycle, and tests the
partition of G minus {1, i} with OR and AND.  A ``FactorRecipe`` names
the base cycles of one factor and the subgroup acting on them.  The
document reader builds recipes, so the type lives here; factors.py
assembles and certifies them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Collection, Container, Iterable, Optional, Sequence

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
        for a, b in zip(v, v[1:] + v[:1]):  # forward_differences, inlined
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


def _codes(group: FiniteGroup, vs: Sequence[int]) -> dict[int, int]:
    """Per vertex v of a cycle given in cycle order, in that order, its
    neighbours a and b's differences {a*v^-1, b*v^-1} as min*n + max."""
    T, inv, n, out = group.table, group.inv_table, len(group), {}
    for a, v, b in zip((vs[-1], *vs[:-1]), vs, (*vs[1:], vs[0])):
        da, db = T[a][inv[v]], T[b][inv[v]]
        out[v] = da * n + db if da < db else db * n + da
    return out


def _vertex_codes(group: FiniteGroup, paths: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """The _codes of cycles given in cycle order, per vertex; -1 off them."""
    code = dict.fromkeys(range(len(group)), -1)
    for vs in paths:
        code.update(_codes(group, vs))
    return tuple(code.values())


def _stabilizer(
    group: FiniteGroup, codes: tuple[int, ...], what: str, sub: Optional[Subgroup] = None,
) -> set[int]:
    """Elements of G whose right translation fixes vertex-disjoint cycles,
    given by their _vertex_codes: the x under which the codes are invariant
    (v -> v*x).  Such an x sends the least vertex base on the cycles to a
    vertex w with the same code, so the only candidates are base^-1 * w.

    A subgroup sub said to fix the cycles lies in the stabilizer, which
    is then a union of right cosets sub*x, as s*x fixes the cycles when x
    does: one x per coset is tested.  sub is the closure of its
    generators, so it fixes the cycles when each generator does;
    GroupError when one does not.
    """
    T, inv = group.table, group.inv_table
    base = next(v for v, cv in enumerate(codes) if cv >= 0)
    known, gens = ((group.identity,), ()) if sub is None else (sub.members, sub.generators)
    found = set(known)
    c0, translations = codes[base], group.right_translations
    candidates = codes.count(c0)
    for g in gens:
        if translations[g](codes) != codes:
            raise GroupError(f"{what} is not fixed by its acting subgroup")
    if candidates > len(known):
        tested, row, w = set(found), T[inv[base]], base
        for _ in range(candidates - 1):
            w = codes.index(c0, w + 1)
            x = row[w]
            if x not in tested:
                coset = [T[s][x] for s in known]
                tested.update(coset)
                if translations[x](codes) == codes:
                    found.update(coset)
    if len(found) > len(known):  # sub (or {1}) is closed
        pick = itemgetter(*found)
        for a in found:
            if not found.issuperset(pick(T[a])):
                raise GroupError(f"{what} stabilizer is not closed")
    return found


def _transversal_getter(
    group: FiniteGroup, stabilizer: Collection[int], members: Sequence[int]
) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A getter that reads row[x], for the first x in members of each right
    coset Stab*x (Stab in members), as one tuple.  Stab*x is the set of
    inverses of the left coset x^-1*Stab, one row of the table."""
    xs = members
    if len(stabilizer) > 1:
        T, inv, left = group.table, group.inv_table, itemgetter(*stabilizer)
        covered, xs = set(), []
        for x in members:
            if inv[x] not in covered:
                xs.append(x)
                covered.update(left(T[inv[x]]))
    return itemgetter(*xs) if len(xs) > 1 else lambda row: (row[xs[0]],)


def _cycle_stabilizer(group: FiniteGroup, codes: dict, within: Container[int]) -> set[int]:
    """The x in within whose right translation fixes a cycle, given by its
    _codes.  As in _stabilizer, x fixes it exactly when each v*x lies on it
    with v's code, and then its first vertex u goes to a vertex w with u's
    code: x is one of at most l candidates u^-1 * w, w = u giving 1."""
    T, u = group.table, next(iter(codes))
    row, cu = T[group.inv_table[u]], codes[u]
    return {
        x for w, cw in codes.items() if cw == cu and (x := row[w]) in within
        and (w == u or all(codes.get(T[v][x]) == cv for v, cv in codes.items()))
    }


def _sub_orbit(group: FiniteGroup, verts: Sequence[int], sub: Subgroup) -> tuple[set, list]:
    """One base cycle's step of a group action: its stabilizer in sub, and
    per vertex u, in cycle order, the row u*x over a transversal x of that
    stabilizer in sub.  Read column by column, the rows are the cycle's
    distinct translates under sub."""
    stab = _cycle_stabilizer(group, _codes(group, verts), sub.member_set)
    pick, T = _transversal_getter(group, stab, sub.members), group.table
    return stab, [pick(T[u]) for u in verts]


def cycle_stabilizer(c: Cycle) -> Subgroup:
    """Set-wise stabilizer of c under right translation, as a Subgroup."""
    G = c.group
    return Subgroup(G, tuple(sorted(_cycle_stabilizer(G, _codes(G, c.verts), range(len(G))))))


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
    """Distinct translates of c under sub, read off the rows of _sub_orbit,
    with the orbit-stabilizer check."""
    stab, rows = _sub_orbit(c.group, c.verts, sub)
    orbit = sorted({_canonical_rotation(t) for t in zip(*rows)})
    if len(orbit) * len(stab) != sub.order:
        raise GroupError(f"orbit-stabilizer mismatch: {len(orbit)} * {len(stab)} != {sub.order}")
    cycles = tuple(Cycle(c.group, t) for t in orbit)
    return CycleOrbit(c, sub, cycles, Subgroup(c.group, tuple(sorted(stab))))


@dataclass(frozen=True)
class FactorRecipe:
    """One factor: the orbits of its named base cycles under one subgroup."""

    label: str
    cycles: tuple[tuple[str, Cycle], ...]  # (cycle name, base cycle)
    subgroup_name: str
    subgroup: Subgroup


def forward_differences(c: Cycle) -> list[int]:
    """Consecutive differences c_{t+1} * c_t^-1 in cycle order (with repeats)."""
    T, inv, v = c.group.table, c.group.inv_table, c.verts
    return [T[b][inv[a]] for a, b in zip(v, v[1:] + v[:1])]


def partial_differences(c: Cycle) -> frozenset[int]:
    """Inverse-closed set of the differences realized by edges of c."""
    inv = c.group.inv_table
    return frozenset(x for d in forward_differences(c) for x in (d, inv[d]))


def omega_representatives(c: Cycle) -> list[int]:
    """One member per inverse pair of partial_differences(c), in the order
    the pairs are first realized walking the cycle."""
    inv = c.group.inv_table
    reps: list[int] = []
    seen: set[int] = set()
    for d in forward_differences(c):
        if d in seen:
            continue
        seen.update((d, inv[d]))
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
