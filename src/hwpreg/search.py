"""Backtracking search for sharply transitive 2-factorizations.

A search target prescribes the shape of a solution as a signature: one
entry per factor orbit, giving the cycle length (3 or 4), the orbit
length under the full group, and the acting subgroup, which must be the
factor's full stabilizer.  The searcher restricts itself to solutions in
which the base cycles have pairwise disjoint difference sets; every
bundled solution is of this kind, and under that restriction a base
cycle is viable exactly when its full-group orbit tiles the Cayley graph
of its own differences, which reduces to the arithmetic test
2 * length == |Omega| * |stabilizer|.

The search is depth-first and deterministic: each factor is grown one
sub-orbit at a time, the base cycle of a sub-orbit starts at the least
vertex the factor does not cover yet, and reflections are broken by
orienting the base cycle so its second vertex precedes its last.  Dead
entry states, keyed by (entry index, consumed-difference bitmask), are
memoized only when their subtree was exhausted normally, so the memo
stays sound when a node budget aborts the search.  Anything found is
re-verified through the solution pipeline before it is reported.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Mapping, Optional

from .cycles import cycle, cycle_orbit, cycle_stabilizer, forward_differences
from .factors import (
    Certificate,
    TwoFactor,
    assemble_factor,
    factor_stabilizer,
    hwp_feasibility,
)
from .groups import ElementError, FiniteGroup, GroupError, Subgroup, build_group
from .solutions import (
    SolutionSpec,
    _strict_int,
    parse_solution_dict,
    solution_recipes,
    verify_solution,
)

VERDICT_FOUND = "found"
VERDICT_EXHAUSTED = "exhausted"
VERDICT_BUDGET = "budget-exceeded"


class TargetFormatError(ValueError):
    """Malformed or inconsistent search target document."""


@dataclass(frozen=True)
class SignatureEntry:
    """One factor orbit: cycle length, orbit length, acting subgroup name."""

    cycle_length: int
    orbit_length: int
    subgroup: str


@dataclass(frozen=True)
class SearchTarget:
    group: FiniteGroup
    r: int
    s: int
    entries: tuple[SignatureEntry, ...]
    subgroups: Mapping[str, Subgroup]
    generators: Mapping[str, tuple[str, ...]]
    budget_nodes: Optional[int] = None


@dataclass
class SearchStats:
    nodes: int = 0
    cycles_closed: int = 0
    factors_completed: int = 0
    memo_entries: int = 0
    memo_hits: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "cycles_closed": self.cycles_closed,
            "factors_completed": self.factors_completed,
            "memo_entries": self.memo_entries,
            "memo_hits": self.memo_hits,
            "seconds": round(self.seconds, 3),
        }


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str  # found | exhausted | budget-exceeded
    reason: Optional[str]
    solution: Optional[dict]
    certificate: Optional[Certificate]
    stats: SearchStats

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "stats": self.stats.to_dict(),
            "solution": self.solution,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }

    def human_text(self) -> str:
        lines = [f"search: {self.verdict}"]
        if self.reason:
            lines.append(f"  reason: {self.reason}")
        st = self.stats
        lines.append(
            f"  nodes {st.nodes}, cycles closed {st.cycles_closed}, "
            f"factors completed {st.factors_completed}, "
            f"memo {st.memo_entries} entries / {st.memo_hits} hits, "
            f"{st.seconds:.2f}s"
        )
        if self.certificate is not None:
            lines.append(self.certificate.human_text().rstrip("\n"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# target documents


def parse_target_dict(doc: Mapping) -> SearchTarget:
    """Validate a search target document and resolve it against its group."""
    if not isinstance(doc, Mapping):
        raise TargetFormatError("target document must be a JSON object")
    keys = set(doc)
    unknown = keys - {"group", "target", "signature", "subgroups", "budget"}
    if unknown:
        raise TargetFormatError(f"target: unknown keys {sorted(unknown)}")
    missing = {"group", "target", "signature", "subgroups"} - keys
    if missing:
        raise TargetFormatError(f"target: missing keys {sorted(missing)}")

    try:
        group = build_group(doc["group"])
    except (GroupError, TypeError) as err:
        raise TargetFormatError(f"group: {err}") from err

    tgt = doc["target"]
    if not isinstance(tgt, Mapping) or set(tgt) != {"r", "s"}:
        raise TargetFormatError('target.target must be {"r": int, "s": int}')
    r = _strict_int(tgt["r"], "target.r", TargetFormatError)
    s = _strict_int(tgt["s"], "target.s", TargetFormatError)
    if r < 0 or s < 0:
        raise TargetFormatError("factor counts must be nonnegative")

    raw_subs = doc["subgroups"]
    if not isinstance(raw_subs, Mapping):
        raise TargetFormatError("subgroups must be a mapping")
    subgroups: dict[str, Subgroup] = {}
    generators: dict[str, tuple[str, ...]] = {}
    for name, gens in raw_subs.items():
        if not isinstance(name, str) or not name or name == "G":
            raise TargetFormatError(f"invalid subgroup name {name!r}")
        if not isinstance(gens, list) or not gens:
            raise TargetFormatError(f"subgroups.{name}: expected a non-empty list")
        idxs = []
        for t in gens:
            if not isinstance(t, str):
                raise TargetFormatError(f"subgroups.{name}: generator must be a string")
            try:
                idxs.append(group.parse(t))
            except (ElementError, GroupError) as err:
                raise TargetFormatError(f"subgroups.{name}: {err}") from err
        subgroups[name] = group.subgroup_closure(idxs)
        generators[name] = tuple(gens)

    raw_sig = doc["signature"]
    if not isinstance(raw_sig, list) or not raw_sig:
        raise TargetFormatError("signature must be a non-empty list")
    entries = []
    for n, item in enumerate(raw_sig):
        where = f"signature[{n}]"
        if not isinstance(item, Mapping) or set(item) != {
            "cycle_length",
            "orbit_length",
            "subgroup",
        }:
            raise TargetFormatError(
                f"{where}: expected cycle_length, orbit_length and subgroup"
            )
        length = _strict_int(item["cycle_length"], f"{where}.cycle_length", TargetFormatError)
        orbit = _strict_int(item["orbit_length"], f"{where}.orbit_length", TargetFormatError)
        if length < 3:
            raise TargetFormatError(f"{where}: cycle length must be at least 3")
        if orbit < 1:
            raise TargetFormatError(f"{where}: orbit length must be at least 1")
        sub = item["subgroup"]
        if sub != "G" and sub not in subgroups:
            raise TargetFormatError(f"{where}: unknown subgroup {sub!r}")
        entries.append(SignatureEntry(length, orbit, sub))

    budget = None
    if "budget" in doc:
        raw_budget = doc["budget"]
        if not isinstance(raw_budget, Mapping) or set(raw_budget) - {"nodes"}:
            raise TargetFormatError('budget must be {"nodes": int}')
        if "nodes" in raw_budget:
            budget = _strict_int(raw_budget["nodes"], "budget.nodes", TargetFormatError)
            if budget < 1:
                raise TargetFormatError("budget.nodes must be positive")

    return SearchTarget(group, r, s, tuple(entries), subgroups, generators, budget)


def parse_target_text(text: str) -> SearchTarget:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise TargetFormatError(f"not valid JSON: {err}") from err
    return parse_target_dict(doc)


def load_target_file(path: str) -> SearchTarget:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_target_text(fh.read())


def target_from_solution(
    spec: SolutionSpec, budget_nodes: Optional[int] = None
) -> SearchTarget:
    """Derive the signature a known solution answers to, for re-searching.

    Subgroups are named after the computed factor stabilizers, so the
    target stands alone even when the solution used different generators.
    """
    group = spec.group
    entries = []
    subgroups: dict[str, Subgroup] = {}
    generators: dict[str, tuple[str, ...]] = {}
    names: dict[frozenset[int], str] = {}
    for recipe in solution_recipes(spec):
        f = assemble_factor(group, recipe)
        stab = factor_stabilizer(f)
        length = f.cycle_length
        if length is None:
            raise TargetFormatError(f"{recipe.label}: mixed cycle lengths")
        key = stab.member_set
        if len(stab.members) == len(group):
            name = "G"
        elif key in names:
            name = names[key]
        else:
            name = f"S{len(names) + 1}"
            names[key] = name
            subgroups[name] = stab
            generators[name] = tuple(group.format(x) for x in stab.members)
        entries.append(SignatureEntry(length, len(group) // stab.order, name))
    return SearchTarget(
        group,
        sum(e.orbit_length for e in entries if e.cycle_length == 3),
        sum(e.orbit_length for e in entries if e.cycle_length == 4),
        tuple(entries),
        subgroups,
        generators,
        budget_nodes,
    )


# ---------------------------------------------------------------------------
# the searcher


class _Solved(Exception):
    def __init__(self, picked: list) -> None:
        self.picked = picked


class _Budget(Exception):
    pass


class _Searcher:
    def __init__(self, target: SearchTarget, stats: SearchStats) -> None:
        G = target.group
        self.target = target
        self.group = G
        self.n = len(G)
        self.stats = stats
        self.sig = target.entries
        self.subs = [
            G.whole_subgroup() if e.subgroup == "G" else target.subgroups[e.subgroup]
            for e in target.entries
        ]
        self.pair_mask = [
            (1 << d) | (1 << G.inv(d)) for d in range(self.n)
        ]
        self.full_cover = (1 << self.n) - 1
        self.dead: set[tuple[int, int]] = set()
        self.budget = target.budget_nodes

    def _node(self) -> None:
        self.stats.nodes += 1
        if self.budget is not None and self.stats.nodes > self.budget:
            raise _Budget()

    def entry_start(self, idx: int, used: int, picked: list) -> None:
        if idx == len(self.sig):
            raise _Solved(picked)
        key = (idx, used)
        if key in self.dead:
            self.stats.memo_hits += 1
            return
        self._extend_factor(idx, used, 0, 0, 0, [], picked)
        # reached only when the subtree was exhausted without interruption
        self.dead.add(key)

    def _extend_factor(
        self,
        idx: int,
        used: int,
        covered: int,
        ndiffs: int,
        fused: int,
        acc: list,
        picked: list,
    ) -> None:
        entry = self.sig[idx]
        if covered == self.full_cover:
            if ndiffs != 2 * entry.orbit_length:
                return
            cycles = tuple(
                sorted(
                    (cc for _, orb in acc for cc in orb.cycles),
                    key=lambda c: c.verts,
                )
            )
            f = TwoFactor(self.group, cycles)
            stab = factor_stabilizer(f)
            if stab.order * entry.orbit_length != self.n:
                return
            # identical adjacent entries commute; keep one ordering
            if idx and self.sig[idx - 1] == entry:
                prev_fused = picked[-1][1]
                if (fused & -fused) <= (prev_fused & -prev_fused):
                    return
            self.stats.factors_completed += 1
            self.entry_start(idx + 1, used, picked + [(list(acc), fused)])
            return
        v0 = 0
        while covered >> v0 & 1:
            v0 += 1
        self._node()
        self._extend_cycle(idx, used, covered, ndiffs, fused, acc, picked, [v0], 1 << v0)

    def _extend_cycle(
        self,
        idx: int,
        used: int,
        covered: int,
        ndiffs: int,
        fused: int,
        acc: list,
        picked: list,
        path: list,
        path_mask: int,
    ) -> None:
        entry = self.sig[idx]
        if len(path) == entry.cycle_length:
            self._close_cycle(idx, used, covered, ndiffs, fused, acc, picked, path)
            return
        G = self.group
        cur_inv = G.inv(path[-1])
        blocked = covered | path_mask
        for w in range(self.n):
            bit = 1 << w
            if blocked & bit:
                continue
            if self.pair_mask[G.mul(w, cur_inv)] & used:
                continue
            self._node()
            path.append(w)
            self._extend_cycle(
                idx, used, covered, ndiffs, fused, acc, picked, path, path_mask | bit
            )
            path.pop()

    def _close_cycle(
        self,
        idx: int,
        used: int,
        covered: int,
        ndiffs: int,
        fused: int,
        acc: list,
        picked: list,
        path: list,
    ) -> None:
        entry = self.sig[idx]
        G = self.group
        if self.pair_mask[G.mul(path[0], G.inv(path[-1]))] & used:
            return
        if path[1] > path[-1]:  # reflection of an enumerated orientation
            return
        c = cycle(G, path)
        omega_mask = 0
        for d in forward_differences(c):
            omega_mask |= self.pair_mask[d]
        osize = omega_mask.bit_count()
        budget = 2 * entry.orbit_length
        ndiffs2 = ndiffs + osize
        if ndiffs2 > budget:
            return
        # exact tiling of Cay[G : Omega(c)] by the full-group orbit of c
        if 2 * entry.cycle_length != osize * cycle_stabilizer(c).order:
            return
        sub = self.subs[idx]
        orb = cycle_orbit(c, sub)
        vmask = 0
        for cc in orb.cycles:
            for v in cc.verts:
                vmask |= 1 << v
        if vmask & covered or vmask.bit_count() != len(orb) * entry.cycle_length:
            return
        remaining = self.n - (covered | vmask).bit_count()
        if remaining:
            least_orbits = -(-remaining // (entry.cycle_length * sub.order))
            if ndiffs2 + 2 * least_orbits > budget:
                return
        self.stats.cycles_closed += 1
        self._extend_factor(
            idx,
            used | omega_mask,
            covered | vmask,
            ndiffs2,
            fused | omega_mask,
            acc + [(c, orb)],
            picked,
        )


def _infeasible(target: SearchTarget) -> Optional[str]:
    G = target.group
    v = len(G)
    feasible, why = hwp_feasibility(v, target.r, target.s)
    if not feasible:
        return why
    r_sig = sum(e.orbit_length for e in target.entries if e.cycle_length == 3)
    s_sig = sum(e.orbit_length for e in target.entries if e.cycle_length == 4)
    for n, entry in enumerate(target.entries):
        if entry.cycle_length not in (3, 4):
            return f"signature[{n}]: factors must consist of triangles or quadrangles"
        if v % entry.cycle_length:
            return f"signature[{n}]: cycle length {entry.cycle_length} does not divide v={v}"
        sub = (
            G.whole_subgroup()
            if entry.subgroup == "G"
            else target.subgroups[entry.subgroup]
        )
        if entry.orbit_length * sub.order != v:
            return (
                f"signature[{n}]: orbit length {entry.orbit_length} with subgroup "
                f"order {sub.order} cannot give |G|={v}"
            )
    if (r_sig, s_sig) != (target.r, target.s):
        return (
            f"signature orbit lengths sum to (r,s)=({r_sig},{s_sig}) "
            f"but the target is ({target.r},{target.s})"
        )
    return None


def _solution_document(target: SearchTarget, picked: list) -> dict:
    G = target.group
    cycles: dict[str, list[str]] = {}
    factors = []
    for entry, (acc, _) in zip(target.entries, picked):
        names = []
        for c, _orb in acc:
            name = f"C{len(cycles) + 1}"
            cycles[name] = [G.format(v) for v in c.verts]
            names.append(name)
        factors.append({"cycles": names, "subgroup": entry.subgroup})
    return {
        "id": f"search-{G.id}-{target.r}-{target.s}",
        "group": G.id,
        "subgroups": {
            name: list(texts) for name, texts in target.generators.items()
        },
        "cycles": cycles,
        "factors": factors,
        "expected": {"v": len(G), "r": target.r, "s": target.s},
    }


def search_hwp(target: SearchTarget) -> SearchOutcome:
    """Run the backtracking search for a target signature.

    The verdict is ``found`` with a re-verified solution document,
    ``exhausted`` when the restricted search space holds no solution
    (with a reason when the signature is arithmetically impossible), or
    ``budget-exceeded`` when the node budget ran out first.
    """
    stats = SearchStats()
    reason = _infeasible(target)
    if reason is not None:
        return SearchOutcome(VERDICT_EXHAUSTED, reason, None, None, stats)

    searcher = _Searcher(target, stats)
    G = target.group
    # identity cannot occur as a difference; the involution marks I-edges
    start_used = (1 << G.identity) | searcher.pair_mask[G.unique_involution()]

    limit = sys.getrecursionlimit()
    need = 200 + 6 * len(G) * len(target.entries)
    began = time.perf_counter()
    verdict, solution, cert = VERDICT_EXHAUSTED, None, None
    try:
        if need > limit:
            sys.setrecursionlimit(need)
        try:
            searcher.entry_start(0, start_used, [])
        except _Solved as hit:
            solution = _solution_document(target, hit.picked)
            cert = verify_solution(parse_solution_dict(solution))
            if not cert.ok:
                raise GroupError(
                    f"search produced a candidate that failed verification: {cert.failure}"
                )
            verdict = VERDICT_FOUND
        except _Budget:
            verdict = VERDICT_BUDGET
    finally:
        sys.setrecursionlimit(limit)
        stats.seconds = time.perf_counter() - began
        stats.memo_entries = len(searcher.dead)
    return SearchOutcome(verdict, None, solution, cert, stats)
