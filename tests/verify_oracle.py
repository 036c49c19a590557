"""Slow reference for `verify_factorization`.

This is the certification hwpreg used before it read orbits off the
multiplication table.  Each sub-orbit of a recipe is built as canonical
`Cycle` objects with `cycle_orbit` and `translate_cycle`, a factor's
stabilizer is the full difference-code kernel over every candidate, and
every factor's orbit is expanded with `factor_orbit` into canonical
cycles while the factors are still being assembled.  Every edge is
counted as a (min, max) tuple, and the checksum is taken over the
covered edges on every pass.  `verify_solution` then checks that the
base cycles' difference sets, each taken with `FiniteGroup.mul` and
`FiniteGroup.inv`, partition G minus the identity and the involution,
and overrides a pass when they do not.  Those sets are frozensets: the
partition test counts them with a Counter, as the library did before it
kept each Omega as an int mask, and the omega reports take their match
and one-sided listings from set differences (`omega_diffs`), not from
the library's `omega_reports`.  The lockstep tests compare the
library's verdicts and certificates against it.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, replace
from typing import AbstractSet, Collection, Iterable, Optional, Sequence

from helpers import cycle_edges
from hwpreg.cayley import cocktail_party_graph
from hwpreg.cycles import (
    Cycle,
    CycleOrbit,
    _stabilizer,
    cycle_stabilizer,
    translate_cycle,
)
from hwpreg.factors import (
    Certificate,
    FactorRecipe,
    FactorReport,
    OmegaReport,
    RecipeError,
    TwoFactor,
    hwp_feasibility,
)
from hwpreg.groups import FiniteGroup, GroupError, Subgroup
from hwpreg.solutions import SolutionSpec


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


def cycle_orbit(c: Cycle, sub: Subgroup) -> CycleOrbit:
    """Distinct translates of c under sub, with the orbit-stabilizer check."""
    G = c.group
    found = cycle_stabilizer(c).member_set
    stab_members = tuple(x for x in sub.members if x in found)
    stab = Subgroup(G, stab_members)
    transversal = _transversal(G, stab_members, sub.members)
    translates = {translate_cycle(c, x) for x in transversal}
    orbit = tuple(sorted(translates, key=lambda cc: cc.verts))
    if len(orbit) * stab.order != sub.order:
        raise GroupError(
            f"orbit-stabilizer mismatch: {len(orbit)} * {stab.order} != {sub.order}"
        )
    return CycleOrbit(c, sub, orbit, stab)


def _sorted_cycles(cycles: Iterable[Cycle]) -> tuple[Cycle, ...]:
    return tuple(sorted(cycles, key=lambda c: c.verts))


def assemble_factor(group: FiniteGroup, recipe: FactorRecipe) -> TwoFactor:
    """Expand the recipe's sub-orbits and check they tile the group."""
    if not recipe.cycles:
        raise RecipeError(f"{recipe.label}: empty recipe")
    if recipe.subgroup.group is not group:
        raise RecipeError(f"{recipe.label}: subgroup bound to a different group")
    covered: dict[int, str] = {}
    cycles: list[Cycle] = []
    for name, base in recipe.cycles:
        if base.group is not group:
            raise RecipeError(f"{recipe.label}: cycle bound to a different group")
        for c in cycle_orbit(base, recipe.subgroup).cycles:
            for v in c.verts:
                if v in covered:
                    raise RecipeError(
                        f"{recipe.label}: vertex {group.format(v)} covered twice",
                        {
                            "kind": "overlap",
                            "vertex": group.format(v),
                            "parts": [covered[v], name],
                        },
                    )
                covered[v] = name
            cycles.append(c)
    if len(covered) != len(group):
        gap = min(v for v in range(len(group)) if v not in covered)
        raise RecipeError(
            f"{recipe.label}: vertex {group.format(gap)} not covered",
            {"kind": "gap", "vertex": group.format(gap)},
        )
    return TwoFactor(group, _sorted_cycles(cycles))


def factor_stabilizer(f: TwoFactor) -> Subgroup:
    """Set-wise stabilizer of the whole factor under right translation."""
    members = tuple(sorted(_stabilizer(f.group, f.key(), "factor")))
    return Subgroup(f.group, members)


def factor_orbit(f: TwoFactor) -> tuple[TwoFactor, ...]:
    """Distinct right translates of f under the full group, sorted."""
    G = f.group
    stab = factor_stabilizer(f).members
    seen: dict[tuple, TwoFactor] = {}
    for x in _transversal(G, stab, range(len(G))):
        t = TwoFactor(G, _sorted_cycles(translate_cycle(c, x) for c in f.cycles))
        seen.setdefault(t.key(), t)
    if len(seen) * len(stab) != len(G):
        raise GroupError("factor orbit-stabilizer mismatch")
    return tuple(seen[k] for k in sorted(seen))


def _edge_checksum(group: FiniteGroup, edges: Iterable[tuple[int, int]]) -> str:
    lines = sorted(f"{group.format(u)}|{group.format(v)}" for u, v in edges)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def verify_factorization(
    group: FiniteGroup,
    recipes: Sequence[FactorRecipe],
    expected: Optional[tuple[int, int, int]] = None,
) -> Certificate:
    """Expand every recipe's orbit into canonical cycles and certify exact
    edge coverage of K_v - I by counting (min, max) edge tuples."""
    v = len(group)
    base = dict(
        group_id=group.id,
        v=v,
        ok=False,
        r=None,
        s=None,
        expected=expected,
        factors=(),
        edges_sha256=None,
    )

    reports: list[FactorReport] = []
    expanded: list[TwoFactor] = []
    try:
        for recipe in recipes:
            f = assemble_factor(group, recipe)
            # factor_orbit has checked |orbit| * |stabilizer| == |G|
            orbit = factor_orbit(f)
            reports.append(
                FactorReport(
                    recipe.label,
                    tuple((cn, recipe.subgroup_name) for cn, _ in recipe.cycles),
                    f.cycle_length,
                    len(f.cycles),
                    v // len(orbit),
                    len(orbit),
                )
            )
            expanded.extend(orbit)
    except RecipeError as err:
        return Certificate(
            **{**base, "factors": tuple(reports)},
            failure=str(err),
            witness=err.witness or None,
        )

    base["factors"] = tuple(reports)
    bad_length = [fr for fr in reports if fr.cycle_length not in (3, 4)]
    if bad_length:
        return Certificate(
            **base,
            failure=f"{bad_length[0].label}: factor cycle length must be uniformly 3 or 4",
            witness={"kind": "cycle-length", "factor": bad_length[0].label},
        )

    counts: Counter[tuple[int, int]] = Counter()
    for f in expanded:
        for c in f.cycles:
            counts.update(cycle_edges(c))
    target = cocktail_party_graph(group).edges

    duplicates = sorted(e for e, n in counts.items() if n > 1)
    foreign = sorted(e for e in counts if e not in target)
    missing = sorted(target - counts.keys())

    def fmt_edge(e: tuple[int, int]) -> list[str]:
        return [group.format(e[0]), group.format(e[1])]

    if duplicates:
        e = duplicates[0]
        return Certificate(
            **base,
            failure="an edge is covered by more than one factor",
            witness={"kind": "duplicate-edge", "edge": fmt_edge(e), "count": counts[e]},
        )
    if foreign:
        e = foreign[0]
        return Certificate(
            **base,
            failure="a factor uses an edge outside K_v minus I",
            witness={"kind": "foreign-edge", "edge": fmt_edge(e)},
        )
    if missing:
        e = missing[0]
        return Certificate(
            **base,
            failure="an edge of K_v minus I is not covered",
            witness={"kind": "missing-edge", "edge": fmt_edge(e)},
        )

    # each factor is spanning with C3 or C4 cycles, so it has v edges, and
    # together they cover the v(v-2)/2 edges once: r + s = v/2 - 1 here
    r = sum(fr.orbit_length for fr in reports if fr.cycle_length == 3)
    s = sum(fr.orbit_length for fr in reports if fr.cycle_length == 4)
    base.update(r=r, s=s, edges_sha256=_edge_checksum(group, counts))

    if expected is not None and (v, r, s) != expected:
        return Certificate(
            **base,
            failure=f"computed (v,r,s)=({v},{r},{s}) differs from expected {expected}",
            witness={"kind": "expected-mismatch", "computed": [v, r, s]},
        )
    feasible, reason = hwp_feasibility(v, r, s)
    if not feasible:
        return Certificate(
            **base,
            failure=f"infeasible parameters: {reason}",
            witness={"kind": "infeasible", "reason": reason},
        )
    return Certificate(**{**base, "ok": True})


def partial_differences(c: Cycle) -> frozenset[int]:
    """Every c_{t+1} * c_t^-1 around c and its inverse."""
    G, v = c.group, c.verts
    steps = (G.mul(v[(t + 1) % len(v)], G.inv(v[t])) for t in range(len(v)))
    return frozenset(x for d in steps for x in (d, G.inv(d)))


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


def _texts(group: FiniteGroup, members: AbstractSet[int]) -> tuple[str, ...]:
    return tuple(group.format(x) for x in sorted(members))


def omega_diffs(spec: SolutionSpec, omegas) -> dict:
    """Per cycle name, OmegaReport's (match, only_recomputed, only_printed)
    by set algebra on the element sets omegas and the annotated listings:
    (None, (), ()) for a cycle without a listing."""
    G, diffs = spec.group, {}
    for cn in spec.cycles:
        recomputed, printed = omegas[cn], spec.printed_omega.get(cn)
        diffs[cn] = (None, (), ()) if printed is None else (
            printed == recomputed, _texts(G, recomputed - printed), _texts(G, printed - recomputed)
        )
    return diffs


@dataclass(frozen=True)
class SetOmegaReport(OmegaReport):
    """An OmegaReport whose match and one-sided listings are omega_diffs'
    set algebra, stored, rather than derived from the two listings."""

    diffs: tuple = (None, (), ())
    match = property(lambda self: self.diffs[0])
    only_recomputed = property(lambda self: self.diffs[1])
    only_printed = property(lambda self: self.diffs[2])


def omega_reports(spec: SolutionSpec, omegas) -> tuple[SetOmegaReport, ...]:
    """The reports of the element sets omegas, by cycle name, beside the
    annotated listings, each side sorted and formatted on its own."""
    G, printed, diffs = spec.group, spec.printed_omega, omega_diffs(spec, omegas)
    return tuple(
        SetOmegaReport(
            cn, _texts(G, omegas[cn]), _texts(G, printed[cn]) if cn in printed else None, diffs[cn]
        )
        for cn in spec.cycles
    )


def verify_solution(spec: SolutionSpec) -> Certificate:
    """verify_factorization, then the partition of G minus the identity
    and the involution by the base cycles' difference sets, which turns a
    pass into a fail when it is broken."""
    omegas = {cn: partial_differences(c) for cn, c in spec.cycles.items()}
    reports = omega_reports(spec, omegas)
    union_size, witness = verify_partition(spec.group, omegas.values())
    cert = verify_factorization(spec.group, spec.factors, expected=spec.expected)
    cert = replace(
        cert,
        solution_id=spec.id,
        partition_ok=witness is None,
        partition_size=union_size,
        omega=reports,
        notes=spec.notes,
    )
    if cert.ok and witness is not None:
        cert = replace(
            cert,
            ok=False,
            failure="difference sets do not partition G minus the identity and involution",
            witness=witness,
        )
    return cert
