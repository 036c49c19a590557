"""Assembling 2-factors from cycle orbits and certifying factorizations.

A factor recipe names base cycles and one subgroup S acting on all of
them; each sub-orbit is read off the multiplication table rows as vertex
tuples, and together they must tile the group, giving one 2-factor.  S
fixes that factor, so its stabilizer is a union of right cosets S*x and
is tested with one x per coset.  The full-group orbits of the recipe
factors are then expected to partition the edge set of K_v minus I.
Verification is by brute force: once every factor has assembled, each
orbit is read off the table and its edges {u, w}, u < w, are counted as
ids u*v + w.  Every edge of K_v minus I must be counted exactly once, so
a pass has the checksum of K_v minus I's edge list, computed once per
group.  The certificate renders as readable text and as byte-stable JSON.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Collection, Optional, Sequence

from .cayley import cocktail_party_graph
from .cycles import Cycle, _canonical_rotation, _stabilizer, _sub_orbit, _transversal_getter
from .groups import FiniteGroup, GroupError, Subgroup

CERTIFICATE_FORMAT = "hwp-regular-certificate/1"


def canonical_json(doc) -> str:
    """Byte-stable JSON text of doc: sorted keys, no whitespace, one newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class RecipeError(ValueError):
    """A factor recipe that fails to assemble into a 2-factor."""

    def __init__(self, message: str, witness: Optional[dict] = None) -> None:
        super().__init__(message)
        self.witness = witness or {}


@dataclass(frozen=True)
class FactorRecipe:
    """One factor: the orbits of its named base cycles under one subgroup."""

    label: str
    cycles: tuple[tuple[str, Cycle], ...]  # (cycle name, base cycle)
    subgroup_name: str
    subgroup: Subgroup


@dataclass(frozen=True)
class TwoFactor:
    """A spanning union of vertex-disjoint cycles, stored sorted."""

    group: FiniteGroup
    cycles: tuple[Cycle, ...]
    # the subgroup its recipe acted by, known to fix it; None: trivial
    subgroup: Optional[Subgroup] = field(default=None, compare=False)

    @property
    def cycle_length(self) -> Optional[int]:
        lengths = {c.length for c in self.cycles}
        return lengths.pop() if len(lengths) == 1 else None

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.verts for c in self.cycles)


def assemble_factor(group: FiniteGroup, recipe: FactorRecipe) -> TwoFactor:
    """Read the recipe's sub-orbits off the table and check they tile the group."""
    if not recipe.cycles:
        raise RecipeError(f"{recipe.label}: empty recipe")
    sub = recipe.subgroup
    if sub.group is not group:
        raise RecipeError(f"{recipe.label}: subgroup bound to a different group")
    owner: list[Optional[str]] = [None] * len(group)  # cycle name per vertex
    cycles: list[tuple[int, ...]] = []
    for name, base in recipe.cycles:
        if base.group is not group:
            raise RecipeError(f"{recipe.label}: cycle bound to a different group")
        orbit, _ = _sub_orbit(base, sub)
        for u in (u for t in orbit for u in t):
            if owner[u] is not None:
                w = group.format(u)
                raise RecipeError(
                    f"{recipe.label}: vertex {w} covered twice",
                    {"kind": "overlap", "vertex": w, "parts": [owner[u], name]},
                )
            owner[u] = name
        cycles.extend(orbit)
    if None in owner:
        w = group.format(owner.index(None))
        raise RecipeError(f"{recipe.label}: vertex {w} not covered", {"kind": "gap", "vertex": w})
    return TwoFactor(group, tuple(Cycle(group, t) for t in sorted(cycles)), sub)


def factor_stabilizer(f: TwoFactor) -> Subgroup:
    """Set-wise stabilizer of the factor, tested per right coset of f.subgroup."""
    members = tuple(sorted(_stabilizer(f.group, f.key(), "factor", f.subgroup)))
    return Subgroup(f.group, members, members)


def factor_orbit(f: TwoFactor) -> tuple[TwoFactor, ...]:
    """Distinct right translates of f under the full group, sorted."""
    G = f.group
    stab = factor_stabilizer(f).members
    pick = _transversal_getter(G, stab, range(len(G)))
    per_cycle = [zip(*(pick(G.table[u]) for u in c.verts)) for c in f.cycles]
    seen = {tuple(sorted(map(_canonical_rotation, ts))) for ts in zip(*per_cycle)}
    if len(seen) * len(stab) != len(G):
        raise GroupError("factor orbit-stabilizer mismatch")
    return tuple(TwoFactor(G, tuple(Cycle(G, t) for t in k)) for k in sorted(seen))


def _orbit_edge_ids(f: TwoFactor, stab: Collection[int]) -> list[int]:
    """Edge ids min*v + max of f's right translates, read from the table
    rows over a transversal of stab, checked to be |G|/|stab| distinct."""
    T, v = f.group.table, len(f.group)
    pick = _transversal_getter(f.group, stab, range(v))
    columns = []  # one per edge {a, b} of f: its id in each translate
    for c in f.cycles:
        vs = c.verts
        for a, b in zip(vs, vs[1:] + vs[:1]):
            columns.append(
                [p * v + q if p < q else q * v + p for p, q in zip(pick(T[a]), pick(T[b]))]
            )
    if len({frozenset(ids) for ids in zip(*columns)}) * len(stab) != v:
        raise GroupError("factor orbit-stabilizer mismatch")
    return [e for ids in columns for e in ids]


def hwp_feasibility(v: int, r: int, s: int) -> tuple[bool, Optional[str]]:
    """Arithmetic admissibility of HWP(v; 3, 4; r, s)."""
    if v < 6 or v % 2:
        return False, f"v={v} must be an even integer >= 6"
    if r < 0 or s < 0:
        return False, "factor counts must be nonnegative"
    if r + s != v // 2 - 1:
        return False, f"r+s={r + s} must equal v/2-1={v // 2 - 1}"
    if r > 0 and v % 3:
        return False, f"triangle factors need 3 | v, got v={v}"
    if s > 0 and v % 4:
        return False, f"quadrangle factors need 4 | v, got v={v}"
    return True, None


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class FactorReport:
    label: str
    parts: tuple[tuple[str, str], ...]  # (cycle name, subgroup name)
    cycle_length: Optional[int]
    cycles_in_factor: int
    stabilizer_order: int
    orbit_length: int


@dataclass(frozen=True)
class OmegaReport:
    """Recomputed differences of one base cycle against an annotated listing."""

    cycle_name: str
    recomputed: tuple[str, ...]
    printed: Optional[tuple[str, ...]]
    match: Optional[bool]
    only_recomputed: tuple[str, ...] = ()
    only_printed: tuple[str, ...] = ()


@dataclass(frozen=True)
class Certificate:
    group_id: str
    v: int
    ok: bool
    r: Optional[int]
    s: Optional[int]
    expected: Optional[tuple[int, int, int]]
    factors: tuple[FactorReport, ...]
    edges_expected: int
    edges_covered_once: int
    duplicate_edges: int
    missing_edges: int
    edges_sha256: Optional[str]
    failure: Optional[str] = None
    witness: Optional[dict] = None
    solution_id: Optional[str] = None
    partition_ok: Optional[bool] = None
    partition_size: Optional[int] = None
    omega: tuple[OmegaReport, ...] = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "format": CERTIFICATE_FORMAT,
            "solution": self.solution_id,
            "group": self.group_id,
            "v": self.v,
            "verdict": "pass" if self.ok else "fail",
            "r": self.r,
            "s": self.s,
            "expected": (
                None
                if self.expected is None
                else {"v": self.expected[0], "r": self.expected[1], "s": self.expected[2]}
            ),
            "factors": [
                {
                    "label": fr.label,
                    "parts": [
                        {"cycle": cn, "subgroup": sn} for cn, sn in fr.parts
                    ],
                    "cycle_length": fr.cycle_length,
                    "cycles_in_factor": fr.cycles_in_factor,
                    "stabilizer_order": fr.stabilizer_order,
                    "orbit_length": fr.orbit_length,
                }
                for fr in self.factors
            ],
            "edge_coverage": {
                "expected": self.edges_expected,
                "covered_once": self.edges_covered_once,
                "duplicates": self.duplicate_edges,
                "missing": self.missing_edges,
                "sha256": self.edges_sha256,
            },
            "difference_partition": {
                "ok": self.partition_ok,
                "size": self.partition_size,
            },
            "omega": [
                {
                    "cycle": om.cycle_name,
                    "recomputed": list(om.recomputed),
                    "printed": None if om.printed is None else list(om.printed),
                    "match": om.match,
                    "only_recomputed": list(om.only_recomputed),
                    "only_printed": list(om.only_printed),
                }
                for om in self.omega
            ],
            "notes": list(self.notes),
            "failure": self.failure,
            "witness": self.witness,
        }

    def canonical_text(self) -> str:
        """Byte-stable JSON rendering (sorted keys, no whitespace)."""
        return canonical_json(self.to_dict())

    def human_text(self) -> str:
        lines = []
        head = f"solution {self.solution_id}" if self.solution_id else "factorization"
        lines.append(f"{head}: {'PASS' if self.ok else 'FAIL'}")
        lines.append(
            f"  group {self.group_id} (v={self.v}), "
            f"r={self.r if self.r is not None else '?'} triangle factors, "
            f"s={self.s if self.s is not None else '?'} quadrangle factors"
        )
        if self.expected is not None:
            ev, er, es = self.expected
            lines.append(f"  expected: v={ev}, r={er}, s={es}")
        lines.append(
            f"  edges: {self.edges_covered_once}/{self.edges_expected} covered once"
            + (
                f" ({self.duplicate_edges} duplicated, {self.missing_edges} missing)"
                if self.duplicate_edges or self.missing_edges
                else ""
            )
        )
        if self.partition_ok is not None:
            lines.append(
                f"  difference partition: "
                f"{'ok' if self.partition_ok else 'BROKEN'} ({self.partition_size} elements)"
            )
        for fr in self.factors:
            parts = " + ".join(f"Orb[{sn}]({cn})" for cn, sn in fr.parts)
            length = fr.cycle_length if fr.cycle_length is not None else "mixed"
            lines.append(
                f"  {fr.label}: {parts}  "
                f"[{fr.cycles_in_factor} x C{length}, stab {fr.stabilizer_order}, "
                f"orbit {fr.orbit_length}]"
            )
        mismatches = [om for om in self.omega if om.match is False]
        if self.omega:
            if mismatches:
                lines.append(f"  annotated differences: {len(mismatches)} mismatch(es)")
                for om in mismatches:
                    if om.only_recomputed:
                        lines.append(
                            f"    {om.cycle_name} recomputed-only: "
                            + ", ".join(om.only_recomputed)
                        )
                    if om.only_printed:
                        lines.append(
                            f"    {om.cycle_name} annotated-only: "
                            + ", ".join(om.only_printed)
                        )
            else:
                checked = sum(1 for om in self.omega if om.match is not None)
                if checked:
                    lines.append(
                        f"  annotated differences: all {checked} annotated listings match"
                    )
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.failure:
            lines.append(f"  failure: {self.failure}")
        if self.witness:
            lines.append(f"  witness: {json.dumps(self.witness, sort_keys=True)}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _target(group: FiniteGroup) -> tuple[frozenset[int], str]:
    """K_v - I as edge ids, and the SHA-256 of its sorted edge list."""
    v, edges = len(group), cocktail_party_graph(group).edges
    lines = sorted(f"{group.format(u)}|{group.format(w)}" for u, w in edges)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return frozenset(u * v + w for u, w in edges), digest


def verify_factorization(
    group: FiniteGroup,
    recipes: Sequence[FactorRecipe],
    expected: Optional[tuple[int, int, int]] = None,
) -> Certificate:
    """Expand every recipe's orbit and certify exact edge coverage of K_v - I.

    The check is independent of how the recipes were found: it never trusts
    difference-set reasoning, it just counts edges.

    A foreign edge (an I-edge {g, ig}, i the central involution) is
    reported as a duplicate first.  If i is not in stab(F), F and F*i
    both carry it.  If it is, i fixes F's cycle through {g, ig}: a
    quadrangle (g, ig, x, ix) whose stabilizer is {1, i} in every
    supported group, so its two I-edges lie in distinct stab(F)-orbits
    and the orbit of F covers each I-edge 2k/|stab(F)| >= 2 times, k being
    F's number of I-edges.  The foreign check stays as the guard that
    does not rely on this argument.
    """
    v = len(group)
    base = dict(
        group_id=group.id,
        v=v,
        ok=False,
        r=None,
        s=None,
        expected=expected,
        factors=(),
        edges_expected=v * (v - 2) // 2,
        edges_covered_once=0,
        duplicate_edges=0,
        missing_edges=0,
        edges_sha256=None,
    )

    reports: list[FactorReport] = []
    assembled: list[tuple[TwoFactor, tuple[int, ...]]] = []
    try:
        for recipe in recipes:
            f = assemble_factor(group, recipe)
            stab = factor_stabilizer(f).members
            assembled.append((f, stab))
            reports.append(
                FactorReport(
                    recipe.label,
                    tuple((cn, recipe.subgroup_name) for cn, _ in recipe.cycles),
                    f.cycle_length,
                    len(f.cycles),
                    len(stab),
                    v // len(stab),
                )
            )
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

    counts: Counter[int] = Counter()
    for f, stab in assembled:
        counts.update(_orbit_edge_ids(f, stab))
    target, digest = _target(group)

    duplicates = sorted(e for e, n in counts.items() if n > 1)
    foreign = sorted(counts.keys() - target)
    missing = sorted(target - counts.keys())
    covered_once = len(counts.keys() & target) - len(target.intersection(duplicates))
    base.update(
        edges_covered_once=covered_once,
        duplicate_edges=len(duplicates),
        missing_edges=len(missing),
    )

    def fmt_edge(e: int) -> list[str]:
        return [group.format(u) for u in divmod(e, v)]

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
    base.update(r=r, s=s, edges_sha256=digest)

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
