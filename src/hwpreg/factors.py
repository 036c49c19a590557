"""Assembling 2-factors from cycle orbits and certifying factorizations.

A factor recipe names base cycles and one subgroup S acting on all of
them.  One kernel gives every stabilizer and one rows helper lists
every translate (see cycles.py).  _tile reads whether the translates
tile V off S's coset masks, and keeps each base cycle's stabilizer in
S: 1 when the cycle meets one coset per vertex, else the kernel's on
the cycle, cut down to S.  Only a base cycle that breaks the tiling has
its translates listed, to name the witness.  S fixes the factor, so the
factor's stabilizer is a union of right cosets S*x, tested by the
kernel on the translates with one x per coset, and only when the
difference count does not prove it is S.  _settle takes both steps for
one recipe, for verify and for target derivation alike, and lists the
translates over the stabilizers _tile kept, so no base cycle reaches
the kernel twice.  No orbit is expanded and
no edge is counted: the difference theorem in verify_factorization
decides, on each base cycle's Omega as an int mask (see cycles.py).
A pass has the checksum of K_v minus I's edge list, computed once per
group.  The certificate renders as readable text and as byte-stable JSON.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, islice
from operator import or_
from typing import Collection, Iterator, Optional, Sequence

from .cayley import cocktail_party_graph
from .cycles import Cycle, FactorRecipe, _canonical_rotation, _rows, _stabilizer, verify_partition
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


def _tile(
    group: FiniteGroup, recipe: FactorRecipe
) -> tuple[Optional[int], int, list[Collection[int]]]:
    """The recipe's cycle length (None: mixed), translate count and each
    base cycle's stabilizer in S, in recipe order, when its translates
    under S partition V, read off S's coset masks (see
    verify_factorization).  RecipeError on a vertex covered twice, the one
    met first in the base cycle's translates, canonical and sorted, or on
    the least vertex never covered."""
    if not recipe.cycles:
        raise RecipeError(f"{recipe.label}: empty recipe")
    sub = recipe.subgroup
    if sub.group is not group:
        raise RecipeError(f"{recipe.label}: subgroup bound to a different group")
    masks, covered, count, stabs = sub._coset_masks, 0, 0, []
    for name, c in recipe.cycles:
        if c.group is not group:
            raise RecipeError(f"{recipe.label}: cycle bound to a different group")
        cosets = {masks[u] for u in c.verts}
        if len(cosets) == len(c.verts):  # T_c = 1
            stab = {group.identity}
        else:
            stab = _stabilizer(group, [c.verts], "cycle") & sub.member_set
        translates = sub.order // len(stab)
        mask = sum(cosets)  # two cosets are equal or disjoint
        if mask & covered or mask.bit_count() != len(c.verts) * translates:
            met = set()  # an overlap: the first vertex of c's translates covered before
            rows = _rows(group, c.verts, stab, sub.members)
            for u in chain.from_iterable(sorted(map(_canonical_rotation, zip(*rows)))):
                if covered >> u & 1 or u in met:
                    break
                met.add(u)
            owner = next(n for n, b in recipe.cycles if any(masks[x] == masks[u] for x in b.verts))
            w = group.format(u)
            witness = {"kind": "overlap", "vertex": w, "parts": [owner, name]}
            raise RecipeError(f"{recipe.label}: vertex {w} covered twice", witness)
        covered, count = covered | mask, count + translates
        stabs.append(stab)
    if covered != (1 << len(group)) - 1:
        w = group.format((covered + 1 & ~covered).bit_length() - 1)
        raise RecipeError(f"{recipe.label}: vertex {w} not covered", {"kind": "gap", "vertex": w})
    lengths = {len(c.verts) for _, c in recipe.cycles}
    return (lengths.pop() if len(lengths) == 1 else None), count, stabs


def _settle(
    group: FiniteGroup, recipe: FactorRecipe
) -> tuple[Optional[int], int, int, Collection[int]]:
    """A recipe's cycle length and translate count (see _tile), |Omega(F)|
    and the members of its factor's stabilizer: S when i is not in Omega(F)
    and |Omega(F)| * |S| = 2v, else the kernel on the translates, listed
    over the stabilizers _tile keeps (see verify_factorization)."""
    length, count, stabs = _tile(group, recipe)
    omega, sub = reduce(or_, (c._omega for _, c in recipe.cycles)), recipe.subgroup
    size, stab = omega.bit_count(), sub.member_set
    if omega >> group.unique_involution() & 1 or size * sub.order != 2 * len(group):
        stab = _stabilizer(group, _translates(recipe, stabs), "factor", sub)
    return length, count, size, stab


def _translates(recipe: FactorRecipe, stabs: list[Collection[int]]) -> Iterator[tuple[int, ...]]:
    """Each base cycle's distinct translates under S, in cycle order: the
    columns of its _rows over its stabilizer in stabs, as _tile gives them."""
    for (_, c), stab in zip(recipe.cycles, stabs):
        yield from zip(*_rows(c.group, c.verts, stab, recipe.subgroup.members))


def assemble_factor(group: FiniteGroup, recipe: FactorRecipe) -> TwoFactor:
    """The translates of a recipe that _tile accepts, canonicalised and sorted."""
    cycles = sorted(map(_canonical_rotation, _translates(recipe, _tile(group, recipe)[2])))
    return TwoFactor(group, tuple(Cycle(group, t) for t in cycles), recipe.subgroup)


def factor_stabilizer(f: TwoFactor) -> Subgroup:
    """Set-wise stabilizer of the factor, tested per right coset of f.subgroup."""
    return Subgroup(f.group, tuple(sorted(_stabilizer(f.group, f.key(), "factor", f.subgroup))))


def factor_orbit(f: TwoFactor) -> tuple[TwoFactor, ...]:
    """Distinct right translates of f under the full group, sorted."""
    G = f.group
    stab = factor_stabilizer(f).members
    rows = iter(_rows(G, chain.from_iterable(f.key()), stab, range(len(G))))
    per_cycle = [zip(*islice(rows, c.length)) for c in f.cycles]
    seen = {tuple(sorted(map(_canonical_rotation, ts))) for ts in zip(*per_cycle)}
    if len(seen) * len(stab) != len(G):
        raise GroupError("factor orbit-stabilizer mismatch")
    return tuple(TwoFactor(G, tuple(Cycle(G, t) for t in k)) for k in sorted(seen))


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


def _without(texts: tuple[str, ...], other: tuple[str, ...]) -> tuple[str, ...]:
    if texts == other:  # an annotated listing that matches: the common case
        return ()
    drop = set(other)
    return tuple(t for t in texts if t not in drop)


@dataclass(frozen=True)
class OmegaReport:
    """Recomputed differences of one base cycle beside its annotated
    listing (None: not annotated), both as texts in element order."""

    cycle_name: str
    recomputed: tuple[str, ...]
    printed: Optional[tuple[str, ...]]

    @property
    def match(self) -> Optional[bool]:
        return None if self.printed is None else self.recomputed == self.printed

    @property
    def only_recomputed(self) -> tuple[str, ...]:
        return () if self.printed is None else _without(self.recomputed, self.printed)

    @property
    def only_printed(self) -> tuple[str, ...]:
        return () if self.printed is None else _without(self.printed, self.recomputed)


@dataclass(frozen=True)
class Certificate:
    """A verdict and what it rests on.  Edge coverage follows from ok and
    v: a pass covers each of K_v minus I's v(v-2)/2 edges once, and has
    their checksum edges_sha256; a reject counts no edge."""

    group_id: str
    v: int
    ok: bool
    r: Optional[int]
    s: Optional[int]
    expected: Optional[tuple[int, int, int]]
    factors: tuple[FactorReport, ...]
    edges_sha256: Optional[str]
    failure: Optional[str] = None
    witness: Optional[dict] = None
    solution_id: Optional[str] = None
    partition_ok: Optional[bool] = None
    partition_size: Optional[int] = None
    omega: tuple[OmegaReport, ...] = ()
    notes: tuple[str, ...] = ()

    def _edges(self) -> tuple[int, int]:  # (covered once, edges of K_v - I)
        total = self.v * (self.v - 2) // 2
        return (total if self.ok else 0), total

    def to_dict(self) -> dict:
        covered, total = self._edges()
        return {
            "format": CERTIFICATE_FORMAT,
            "solution": self.solution_id,
            "group": self.group_id,
            "v": self.v,
            "verdict": "pass" if self.ok else "fail",
            "r": self.r,
            "s": self.s,
            "expected": None if self.expected is None else dict(zip("vrs", self.expected)),
            "factors": [
                {
                    "label": fr.label,
                    "parts": [{"cycle": cn, "subgroup": sn} for cn, sn in fr.parts],
                    "cycle_length": fr.cycle_length,
                    "cycles_in_factor": fr.cycles_in_factor,
                    "stabilizer_order": fr.stabilizer_order,
                    "orbit_length": fr.orbit_length,
                }
                for fr in self.factors
            ],
            "edge_coverage": {
                "expected": total,
                "covered_once": covered,
                "duplicates": 0,
                "missing": 0,
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
        covered, total = self._edges()
        lines.append(f"  edges: {covered}/{total} covered once")
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
                    for side, texts in (("recomputed", om.only_recomputed),
                                        ("annotated", om.only_printed)):
                        if texts:
                            lines.append(f"    {om.cycle_name} {side}-only: " + ", ".join(texts))
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
def _target_digest(group: FiniteGroup) -> str:
    """The SHA-256 of K_v - I's sorted edge list."""
    fmt = group.format
    lines = sorted(f"{fmt(u)}|{fmt(w)}" for u, w in cocktail_party_graph(group).edges)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def verify_factorization(
    group: FiniteGroup,
    recipes: Sequence[FactorRecipe],
    expected: Optional[tuple[int, int, int]] = None,
) -> Certificate:
    """Certify that the recipes' orbits cover every edge of K_v - I once.

    No orbit is expanded and no edge counted: the verdict rests on the
    difference sets Omega of the base cycles.  Let F be a spanning
    2-factor with stabilizer T* and Omega(F) the differences w*u^-1 of its
    edges {u, w}: the union of its base cycles' Omega, as right
    translation keeps w*u^-1.  G has one involution i, so every other
    pair P = {d, d^-1} in G minus {1, i} has two members and v edges
    {g, d*g}, one per g.  Let e(P) count F's edges with a difference in
    P.  As x runs over G, F*x carries them onto each edge of P e(P)
    times, and the x of one coset T*x give one translate, so the orbit
    of F covers each edge of P e(P)/|T*| times: an integer, at least 1
    when P lies in Omega(F).  If i is not in Omega(F), F's v edges give
    v = sum e(P) >= |T*| * |Omega(F)|/2, with equality exactly when the
    orbit covers every edge of each pair in Omega(F) once.  So if the
    base cycles' Omega partition G minus {1, i}, each pair lies in the
    Omega(F) of exactly one factor and no factor has an I-edge; if also
    |Omega(F)| = 2 * |G|/|T*| for every F, every edge of K_v - I is
    covered exactly once.

    A recipe over S tiles V exactly when S's coset masks say so.  A base
    cycle c of l vertices has |S|/|T_c| translates, T_c its stabilizer in
    S, and their union V(c)*S is the OR of the masks over c; they are
    disjoint exactly when it has l*|S|/|T_c| vertices.  A t != 1 in T_c
    keeps each coset v*S and moves every vertex, so T_c = 1 when c meets
    l cosets.  _tile returns exactly when also the unions are disjoint
    and cover V, and returns each T_c with the count; only the base
    cycle whose union breaks this has its translates listed, to name
    the witness.

    S permutes F's translates, so S lies in T*.  An x != 1 that fixes an
    edge {a, d*a} swaps its ends, a*x = d*a and d*a*x = a, so d*d = 1 and
    d = i.  When i is not in Omega(F), T* thus acts freely on F's edges of
    each pair, v >= |T*| * |Omega(F)|/2, and |Omega(F)| * |S| = 2v gives
    T* = S.  Otherwise cycles._stabilizer, the kernel that also gives each
    T_c, tests one x per right coset of S on the recipe's translates,
    listed over the T_c that _tile kept; its check that S's generators
    fix F cannot fail.  Its T
    needs no guard: it admits only elements that pass the code test,
    which fix F, so T lies in T*.  A T that is too small makes L = v/|T|
    too large, and 2L > 2v/|T*| >= |Omega(F)| rejects.  Neither the count
    nor the kernel uses more than that F is spanning and S lies in T*, so
    _settle, which takes the tiling and stabilizer steps for one recipe,
    serves target derivation too.

    The checks, in order: every recipe assembles; every factor is all
    triangles or all quadrangles; the base cycles' Omega partition G
    minus {1, i} (partition_ok and partition_size on every certificate);
    the first factor with |Omega(F)| != 2L is an orbit-overlap; then the
    computed (v, r, s) against expected, then feasibility.  Only a pass
    carries the checksum; the certificate renders v(v-2)/2 edges covered
    once on a pass and none on a reject.
    """
    v = len(group)
    # a cycle bound to another group fails assembly; its Omega means nothing here
    cycles = [c for recipe in recipes for _, c in recipe.cycles if c.group is group]
    partition_size, partition_witness = verify_partition(group, [c._omega for c in cycles])
    base = dict(
        group_id=group.id, v=v, ok=False, r=None, s=None, expected=expected, factors=(),
        edges_sha256=None, partition_ok=partition_witness is None, partition_size=partition_size,
    )

    reports: list[FactorReport] = []
    sizes: list[int] = []  # |Omega(F)| per factor
    try:
        for recipe in recipes:
            length, count, size, stab = _settle(group, recipe)
            order = len(stab)
            parts = tuple((cn, recipe.subgroup_name) for cn, _ in recipe.cycles)
            reports.append(FactorReport(recipe.label, parts, length, count, order, v // order))
            sizes.append(size)
    except RecipeError as err:
        base["factors"] = tuple(reports)
        return Certificate(**base, failure=str(err), witness=err.witness or None)

    base["factors"] = tuple(reports)

    def fail(failure: str, witness: dict) -> Certificate:
        return Certificate(**base, failure=failure, witness=witness)

    bad_length = [fr.label for fr in reports if fr.cycle_length not in (3, 4)]
    if bad_length:
        failure = f"{bad_length[0]}: factor cycle length must be uniformly 3 or 4"
        return fail(failure, {"kind": "cycle-length", "factor": bad_length[0]})
    if partition_witness is not None:
        failure = "difference sets do not partition G minus the identity and involution"
        return fail(failure, partition_witness)
    for k, fr in zip(sizes, reports):
        if k != 2 * fr.orbit_length:
            failure = f"{fr.label}: the factor's orbit covers an edge more than once"
            witness = {"factor": fr.label, "differences": k, "orbit_length": fr.orbit_length}
            return fail(failure, {"kind": "orbit-overlap", **witness})

    # each factor is spanning with C3 or C4 cycles, so it has v edges, and
    # together they cover the v(v-2)/2 edges once: r + s = v/2 - 1 here
    r = sum(fr.orbit_length for fr in reports if fr.cycle_length == 3)
    s = sum(fr.orbit_length for fr in reports if fr.cycle_length == 4)
    base.update(r=r, s=s)
    if expected is not None and (v, r, s) != expected:
        failure = f"computed (v,r,s)=({v},{r},{s}) differs from expected {expected}"
        return fail(failure, {"kind": "expected-mismatch", "computed": [v, r, s]})
    feasible, reason = hwp_feasibility(v, r, s)
    if not feasible:
        return fail(f"infeasible parameters: {reason}", {"kind": "infeasible", "reason": reason})
    base.update(ok=True, edges_sha256=_target_digest(group))
    return Certificate(**base)
