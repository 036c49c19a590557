"""Cycles on group elements, their translates, orbits and differences.

A cycle is stored in canonical form: the lexicographically least among
all rotations of both orientations, so equality means equality as a
subgraph.  The group acts on cycles by right translation, which keeps
the difference a * v^-1 of every edge {v, a}.  So a stabilizer is read
off vertex sequences: x fixes a set of cycles exactly when every vertex
v*x has the same pair of neighbour differences as v, one comparison of
a per-vertex code tuple with its image under the precomputed column
v -> v*x of the multiplication table.  The searcher uses this on plain
paths.  An orbit reads each translate of a vertex tuple off the table
rows, one per coset of the stabilizer, and canonicalises it.
The list of partial differences of a cycle C = (c_1, ..., c_l) is the
inverse-closed set collecting c_{t+1} * c_t^-1 for every consecutive
pair (indices mod l); when the orbit of C under the full group tiles
Cay[G:Omega] exactly, those orbits are the building blocks of a
2-factorization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import AbstractSet, Callable, Collection, Iterable, Optional, Sequence

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
    def _omega(self) -> frozenset[int]:  # for verify: each cycle's Omega once
        return partial_differences(self)


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


def _vertex_codes(group: FiniteGroup, paths: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Per vertex v of cycles given in cycle order, its neighbours a and b's
    differences {a*v^-1, b*v^-1} as min*n + max; -1 off the cycles."""
    T, inv, n = group.table, group.inv_table, len(group)
    code = [-1] * n
    for vs in paths:
        a, v = vs[-2], vs[-1]
        for b in vs:
            vi = inv[v]
            da, db = T[a][vi], T[b][vi]
            code[v] = da * n + db if da < db else db * n + da
            a, v = v, b
    return tuple(code)


def _stabilizer(
    group: FiniteGroup, paths: Sequence[Sequence[int]], what: str,
    sub: Optional[Subgroup] = None,
) -> set[int]:
    """Elements of G whose right translation fixes vertex-disjoint cycles,
    each given as a vertex sequence in cycle order.

    Right translation keeps a * v^-1 for every edge {v, a}, as
    (a*x) * (v*x)^-1 = a * v^-1.  So x fixes the cycles exactly when their
    _vertex_codes are invariant under v -> v*x: then the neighbours of
    v*x are a*x and b*x, so x maps edges onto edges.  Such an x sends
    min(V) to a vertex w with the same code, so the only candidates are
    min(V)^-1 * w for those w; w = min(V) gives the identity.

    A subgroup sub said to fix the cycles lies in the stabilizer, which
    is then a union of right cosets sub*x, as s*x fixes the cycles when x
    does: one x per coset is tested.  GroupError unless sub's generators
    generate its members and each fixes the cycles.
    """
    T, inv = group.table, group.inv_table
    codes, base = _vertex_codes(group, paths), min(map(min, paths))
    known, gens = ((group.identity,), ()) if sub is None else (sub.members, sub.generators)
    found = set(known)
    c0, translations = codes[base], group.right_translations
    candidates = codes.count(c0)
    if sub is not None and not sub.generated:
        raise GroupError(f"{what}: acting subgroup is not generated by its generators")
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
    coset Stab*x (Stab in members), as one tuple."""
    xs = list(members)
    if len(stabilizer) > 1:
        T, covered, xs = group.table, set(), []
        for x in members:
            if x not in covered:
                xs.append(x)
                covered.update(T[s][x] for s in stabilizer)
    return itemgetter(*xs) if len(xs) > 1 else lambda row: (row[xs[0]],)


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


def _sub_orbit(c: Cycle, sub: Subgroup) -> tuple[list[tuple[int, ...]], Subgroup]:
    """The sorted canonical translates of c's vertex tuple over a transversal
    of Stab_sub(c) in sub, read off the table rows of c; and Stab_sub(c)."""
    fixed = cycle_stabilizer(c).member_set
    stab = tuple(x for x in sub.members if x in fixed)
    pick, T = _transversal_getter(c.group, stab, sub.members), c.group.table
    orbit = sorted({_canonical_rotation(t) for t in zip(*(pick(T[u]) for u in c.verts))})
    if len(orbit) * len(stab) != sub.order:
        raise GroupError(f"orbit-stabilizer mismatch: {len(orbit)} * {len(stab)} != {sub.order}")
    return orbit, Subgroup(c.group, stab, stab)


def cycle_orbit(c: Cycle, sub: Subgroup) -> CycleOrbit:
    """Distinct translates of c under sub, with the orbit-stabilizer check."""
    orbit, stab = _sub_orbit(c, sub)
    return CycleOrbit(c, sub, tuple(Cycle(c.group, t) for t in orbit), stab)


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


def verify_partition(
    group: FiniteGroup, omegas: Iterable[AbstractSet[int]]
) -> tuple[int, Optional[dict]]:
    """The number of elements the difference sets omegas cover, and a witness
    that they do not partition G minus the identity and the involution, or
    None when they do: the least element used twice, with its count; else
    the least element missing; else the identity or the involution."""
    counts: Counter[int] = Counter()
    for om in omegas:
        counts.update(om)
    excluded = {group.identity, group.unique_involution()}
    twice = [x for x, k in counts.items() if k > 1]
    missing = set(range(len(group))) - excluded - counts.keys()
    forbidden = excluded & counts.keys()
    witness = None
    if twice:
        x = min(twice)
        witness = {"kind": "difference-overlap", "element": group.format(x), "count": counts[x]}
    elif missing or forbidden:
        x = min(missing or forbidden)
        kind = "missing" if missing else "forbidden"
        witness = {"kind": f"difference-{kind}", "element": group.format(x)}
    return len(counts), witness
