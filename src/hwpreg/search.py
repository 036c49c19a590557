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
written with ``solution_to_dict`` and re-verified by reading that
document back through the solution pipeline before it is reported.  The
searcher changes no process-wide state; its recursion stays within the
default limit (see ``search_hwp``).

A target document is read as strictly as a solution document, by the
same field readers (see ``solutions.py``): wrong types, unknown keys and
unreadable files raise ``TargetFormatError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional

from .cycles import Cycle, cycle, cycle_orbit, cycle_stabilizer, forward_differences
from .factors import (
    Certificate,
    TwoFactor,
    assemble_factor,
    factor_stabilizer,
    hwp_feasibility,
)
from .groups import FiniteGroup, GroupError, Subgroup
from .solutions import (
    SolutionSpec,
    _parse_json,
    _read_group,
    _read_json_file,
    _read_keys,
    _read_list,
    _read_ref,
    _read_subgroups,
    _strict_int,
    parse_solution_dict,
    resolve_subgroup,
    solution_recipes,
    solution_to_dict,
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
    E = TargetFormatError
    _read_keys(doc, {"group", "target", "signature", "subgroups"}, {"budget"}, "target", E)
    group = _read_group(doc["group"], E)
    tgt = _read_keys(doc["target"], {"r", "s"}, set(), "target.target", E)
    r = _strict_int(tgt["r"], "target.r", E)
    s = _strict_int(tgt["s"], "target.s", E)
    if r < 0 or s < 0:
        raise E("factor counts must be nonnegative")
    subgroups, generators = _read_subgroups(group, doc["subgroups"], E)

    entries = []
    for n, item in enumerate(_read_list(doc["signature"], "signature", E)):
        where = f"signature[{n}]"
        _read_keys(item, {"cycle_length", "orbit_length", "subgroup"}, set(), where, E)
        length = _strict_int(item["cycle_length"], f"{where}.cycle_length", E)
        orbit = _strict_int(item["orbit_length"], f"{where}.orbit_length", E)
        if length < 3:
            raise E(f"{where}: cycle length must be at least 3")
        if orbit < 1:
            raise E(f"{where}: orbit length must be at least 1")
        sub = _read_ref(item["subgroup"], ("G", *subgroups), "subgroup", where, E)
        entries.append(SignatureEntry(length, orbit, sub))

    budget = None
    raw_budget = _read_keys(doc.get("budget", {}), set(), {"nodes"}, "budget", E)
    if "nodes" in raw_budget:
        budget = _strict_int(raw_budget["nodes"], "budget.nodes", E)
        if budget < 1:
            raise E("budget.nodes must be positive")
    return SearchTarget(group, r, s, tuple(entries), subgroups, generators, budget)


def parse_target_text(text: str) -> SearchTarget:
    return parse_target_dict(_parse_json(text, TargetFormatError))


def load_target_file(path: str) -> SearchTarget:
    return parse_target_dict(_read_json_file(path, "target", TargetFormatError))


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
        self.subs = [resolve_subgroup(target, e.subgroup) for e in target.entries]
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
        sub = resolve_subgroup(target, entry.subgroup)
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


def _found_spec(target: SearchTarget, picked: list) -> SolutionSpec:
    """The solution the searcher found, with cycles named C1, C2, ..."""
    G = target.group
    cycles: dict[str, Cycle] = {}
    factors = []
    for entry, (acc, _) in zip(target.entries, picked):
        names = []
        for c, _orb in acc:
            name = f"C{len(cycles) + 1}"
            cycles[name] = c
            names.append(name)
        factors.append((tuple(names), entry.subgroup))
    return SolutionSpec(
        id=f"search-{G.id}-{target.r}-{target.s}",
        group=G,
        subgroups=target.subgroups,
        subgroup_generators=target.generators,
        cycles=cycles,
        factors=tuple(factors),
        expected=(len(G), target.r, target.s),
    )


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

    # The default recursion limit is enough.  A cycle's stabilizer acts
    # semiregularly on its l vertices, so a sub-orbit under S covers at
    # least |S| vertices and an entry grows at most v/|S| = orbit_length
    # sub-orbits of l + 2 <= 6 frames.  A feasible target therefore nests
    # at most 2E + 6(v/2 - 1) + 1 frames for E entries: 185 at v = 48.
    began = time.perf_counter()
    verdict, solution, cert = VERDICT_EXHAUSTED, None, None
    try:
        searcher.entry_start(0, start_used, [])
    except _Solved as hit:
        solution = solution_to_dict(_found_spec(target, hit.picked))
        cert = verify_solution(parse_solution_dict(solution))
        if not cert.ok:
            raise GroupError(
                f"search produced a candidate that failed verification: {cert.failure}"
            )
        verdict = VERDICT_FOUND
    except _Budget:
        verdict = VERDICT_BUDGET
    finally:
        stats.seconds = time.perf_counter() - began
        stats.memo_entries = len(searcher.dead)
    return SearchOutcome(verdict, None, solution, cert, stats)
