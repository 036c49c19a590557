"""Slow reference for the right-translation action on cycles and factors.

This is the translate, stabilizer and orbit code hwpreg used before it
computed them from the multiplication table: every translate by every
group element is re-canonicalised by trying all rotations of both
orientations.  Tests compare the library against it, and compare the
searcher, which works on vertex paths and bit masks, against
`closed_path`, the same questions answered through canonical cycles.
`neighbour_map_stabilizer` is the table-driven stabilizer hwpreg used
before it compared neighbour-difference codes: each candidate is checked
vertex by vertex against a map of neighbours.  `forward_differences`
lists a cycle's differences edge by edge, with repeats, as hwpreg did
before it walked each cycle once into an Omega mask.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from hwpreg.cycles import Cycle, CycleOrbit, cycle
from hwpreg.factors import TwoFactor
from hwpreg.groups import FiniteGroup, GroupError, Subgroup


def canonical_rotation(verts: tuple[int, ...]) -> tuple[int, ...]:
    n = len(verts)
    return min(seq[r:] + seq[:r] for seq in (verts, verts[::-1]) for r in range(n))


def neighbour_map_stabilizer(
    group: FiniteGroup, paths: Iterable[Sequence[int]], what: str
) -> set[int]:
    """Elements of G whose right translation fixes vertex-disjoint cycles,
    each given as a vertex sequence in cycle order.

    x fixes the cycles exactly when it maps the neighbours of every vertex
    v onto the neighbours of v*x.  Such an x sends min(V) into V, so the
    only candidates are min(V)^-1 * w for w in V.
    """
    T = group.table
    nbr: dict[int, tuple[int, int]] = {}
    for vs in paths:
        for t, v in enumerate(vs):
            nbr[v] = (vs[t - 1], vs[(t + 1) % len(vs)])
    base_inv = group.inv_table[min(nbr)]
    found: set[int] = set()
    for w in nbr:
        x = T[base_inv][w]
        for v, (a, b) in nbr.items():
            image = nbr.get(T[v][x])
            ax, bx = T[a][x], T[b][x]
            if image != (ax, bx) and image != (bx, ax):
                break
        else:
            found.add(x)
    for a in found:
        for b in found:
            if T[a][b] not in found:
                raise GroupError(f"{what} stabilizer is not closed")
    return found


def forward_differences(c: Cycle) -> list[int]:
    """Consecutive differences c_{t+1} * c_t^-1 in cycle order (with repeats)."""
    T, inv, v = c.group.table, c.group.inv_table, c.verts
    return [T[b][inv[a]] for a, b in zip(v, v[1:] + v[:1])]


def translate_cycle(c: Cycle, x: int) -> Cycle:
    G = c.group
    return Cycle(G, canonical_rotation(tuple(G.mul(v, x) for v in c.verts)))


def _checked_subgroup(G, members: tuple[int, ...], what: str) -> Subgroup:
    mset = set(members)
    for a in members:
        for b in members:
            if G.mul(a, b) not in mset:
                raise GroupError(f"{what} stabilizer is not closed")
    return Subgroup(G, members)


def cycle_stabilizer(c: Cycle) -> Subgroup:
    G = c.group
    members = tuple(x for x in range(len(G)) if translate_cycle(c, x) == c)
    return _checked_subgroup(G, members, "cycle")


def cycle_orbit(c: Cycle, sub: Subgroup) -> CycleOrbit:
    seen: dict[Cycle, None] = {}
    for x in sub.members:
        seen.setdefault(translate_cycle(c, x), None)
    stab_members = tuple(x for x in sub.members if translate_cycle(c, x) == c)
    stab = Subgroup(c.group, stab_members)
    orbit = tuple(sorted(seen, key=lambda cc: cc.verts))
    if len(orbit) * stab.order != sub.order:
        raise GroupError(
            f"orbit-stabilizer mismatch: {len(orbit)} * {stab.order} != {sub.order}"
        )
    return CycleOrbit(c, sub, orbit, stab)


def translate_factor(f: TwoFactor, x: int) -> TwoFactor:
    cycles = sorted((translate_cycle(c, x) for c in f.cycles), key=lambda c: c.verts)
    return TwoFactor(f.group, tuple(cycles))


def factor_stabilizer(f: TwoFactor) -> Subgroup:
    G = f.group
    members = tuple(x for x in range(len(G)) if translate_factor(f, x) == f)
    return _checked_subgroup(G, members, "factor")


def factor_orbit(f: TwoFactor) -> tuple[TwoFactor, ...]:
    seen: dict[tuple, TwoFactor] = {}
    for x in range(len(f.group)):
        t = translate_factor(f, x)
        seen.setdefault(t.key(), t)
    return tuple(seen[k] for k in sorted(seen))


def translation_permutes_factors(
    factors: Sequence[TwoFactor], elements: Optional[Iterable[int]] = None
) -> bool:
    """True when right translation maps the factor list onto itself."""
    if not factors:
        return True
    G = factors[0].group
    keys = {f.key() for f in factors}
    for x in elements if elements is not None else range(len(G)):
        for f in factors:
            if translate_factor(f, x).key() not in keys:
                return False
    return True


def closed_path(G, path: Sequence[int], sub: Subgroup) -> tuple[int, int, int, int, bool]:
    """What the searcher asks of a closed path, by way of canonical cycles:
    the Omega mask (both members of every difference pair), |Stab_G(c)|,
    |Stab_G(c) & sub|, the vertex mask of the sub-orbit of c under sub,
    and whether the cycles of that sub-orbit are pairwise vertex-disjoint.
    """
    c = cycle(G, path)
    omega = 0
    for d in forward_differences(c):
        omega |= (1 << d) | (1 << G.inv(d))
    orb = cycle_orbit(c, sub)
    vmask = 0
    for cc in orb.cycles:
        for v in cc.verts:
            vmask |= 1 << v
    disjoint = vmask.bit_count() == len(orb) * c.length
    return omega, cycle_stabilizer(c).order, orb.stabilizer.order, vmask, disjoint
