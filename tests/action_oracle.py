"""Slow reference for the right-translation action on cycles and factors.

This is the translate, stabilizer and orbit code hwpreg used before it
computed them from the multiplication table: every translate by every
group element is re-canonicalised by trying all rotations of both
orientations.  Tests compare the library against it, and compare the
searcher, which works on vertex paths and bit masks, against
`closed_path`, the same questions answered through canonical cycles.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from hwpreg.cycles import Cycle, CycleOrbit, cycle, forward_differences
from hwpreg.factors import TwoFactor
from hwpreg.groups import GroupError, Subgroup


def canonical_rotation(verts: tuple[int, ...]) -> tuple[int, ...]:
    n = len(verts)
    return min(seq[r:] + seq[:r] for seq in (verts, verts[::-1]) for r in range(n))


def translate_cycle(c: Cycle, x: int) -> Cycle:
    G = c.group
    return Cycle(G, canonical_rotation(tuple(G.mul(v, x) for v in c.verts)))


def _checked_subgroup(G, members: tuple[int, ...], what: str) -> Subgroup:
    mset = set(members)
    for a in members:
        for b in members:
            if G.mul(a, b) not in mset:
                raise GroupError(f"{what} stabilizer is not closed")
    return Subgroup(G, members, members)


def cycle_stabilizer(c: Cycle) -> Subgroup:
    G = c.group
    members = tuple(x for x in range(len(G)) if translate_cycle(c, x) == c)
    return _checked_subgroup(G, members, "cycle")


def cycle_orbit(c: Cycle, sub: Subgroup) -> CycleOrbit:
    seen: dict[Cycle, None] = {}
    for x in sub.members:
        seen.setdefault(translate_cycle(c, x), None)
    stab_members = tuple(x for x in sub.members if translate_cycle(c, x) == c)
    stab = Subgroup(c.group, stab_members, stab_members)
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
