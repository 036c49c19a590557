"""Slow reference for the searcher's cycle scan.

`SlowSearcher` is the searcher as it was before it closed cycles inside
the candidate scan: every step tries each vertex in range(n) in a frame
of its own, a path of full length goes through a separate closing step,
and that step rebuilds the cycle's Omega mask and its sub-orbit vertex
mask from the whole path.
Everything else (entries, factors, the memo, node counting) is inherited
from `hwpreg.search._Searcher`, so the two must visit the same nodes,
close the same cycles and find the same documents.  `omega_mask`,
`cycle_stabilizer` and `cycle_action` also answer the closed-path
questions the tests put to the action oracle.  `entry_subgroups`
resolves a target's entries for a searcher built outside `search_hwp`,
as `search_hwp` hands them over.  `coset_masks` computes
the searcher's coset masks vertex by vertex, the reference for the one
pass over the cosets that each `Subgroup` makes.

`OneByOneSearcher` keeps the searcher's cycle scan as it was before the
closing scan decided candidates in bulk: every live closing candidate is
put through the divisibility, stabilizer, tiling and `remaining` tests
one at a time, every path of l - 1 vertices is descended into, in a
frame of its own that runs its closing scan, and every closed cycle goes
to `_extend_factor`, which may refuse it.  It is the reference for those
bulk decisions, state by state.  The searcher runs each closing scan in
place, in the frame of the cycle's penultimate vertex, so the states
compared are those of that frame.

`refuses` writes out the two refusals of a complete factor cover, which
the searcher's closing scan makes in bulk for most candidates instead of
calling `_extend_factor`; the lockstep tests compare the cycles that are
not refused.

`KAwareSearcher` keys its memo of dead entry states on k as well: k is
the least difference of the previous factor when the entry repeats its
predecessor, which the equal-adjacent-entry rule reads, and -1
otherwise.  It reuses a state only at a k at least the least one the
state was exhausted at, which is sound by construction, as a larger k
admits fewer factors.  The searcher's memo leaves k out, which nothing
proves sound yet; `v24_signatures` lists the 336 v=24 signatures on
which the two are compared (tests/search_signatures.py).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import AbstractSet

from hwpreg.cycles import _codes, _cycle_stabilizer, _stabilizer, _vertex_codes
from hwpreg.factors import hwp_feasibility
from hwpreg.groups import GroupError
from hwpreg.search import (
    SearchTarget, SignatureEntry, _Budget, _Searcher, _Solved, target_from_solution,
)
from hwpreg.solutions import load_solution, resolve_subgroup


def entry_subgroups(target) -> list:
    """The subgroup of each of target's signature entries."""
    return [resolve_subgroup(target, e.subgroup) for e in target.entries]


def coset_masks(group, sub) -> tuple[int, ...]:
    """The vertex mask of v*S for every vertex v, one vertex at a time."""
    T = group.table
    return tuple(sum(1 << T[v][x] for x in sub.members) for v in range(len(group)))


def refuses(searcher, idx: int, covered: int, fused: int, picked: list) -> bool:
    """Whether `_extend_factor` refuses the factor of entry idx grown to
    `covered` with differences `fused`: a complete cover without all its
    2 * orbit_length differences, or one that follows an equal entry's
    factor with a least difference not above that factor's."""
    entry = searcher.sig[idx]
    if covered != (1 << len(searcher.group)) - 1:
        return False
    if fused.bit_count() != 2 * entry.orbit_length:
        return True
    if idx == 0 or entry != searcher.sig[idx - 1]:
        return False
    prev = picked[-1][1]
    return min(_bits(fused)) <= min(_bits(prev))


def _node(searcher) -> None:
    """Charge one node, as the searcher does inline, and stop over budget."""
    searcher.stats.nodes += 1
    if searcher.stats.nodes > searcher.budget:
        raise _Budget()


def _bits(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


class SlowSearcher(_Searcher):
    def __init__(self, target, stats, subs) -> None:
        super().__init__(target, stats, subs)
        G = self.group
        self.inv = G.inv_table
        self.pair_mask = [(1 << d) | (1 << G.inv(d)) for d in range(self.n)]
        self.trivial = frozenset((G.identity,))

    def omega_mask(self, path: list) -> int:
        """Omega of the cycle through path: the pairs {d, d^-1} of its
        differences path[t+1] * path[t]^-1, as a bit mask."""
        T, inv, pair_mask = self.table, self.inv, self.pair_mask
        mask = 0
        for t, v in enumerate(path):
            mask |= pair_mask[T[v][inv[path[t - 1]]]]
        return mask

    def cycle_stabilizer(self, path: list, osize: int) -> AbstractSet[int]:
        """Stab_G of the cycle through path, whose Omega has osize bits:
        {1} without a computation when osize is 2 * len(path), else the
        kernel's answer."""
        if osize == 2 * len(path):
            return self.trivial
        return _stabilizer(self.group, _vertex_codes(self.group, (path,)), "cycle")

    def cycle_action(
        self, idx: int, path: list, stab: AbstractSet[int]
    ) -> tuple[int, int, bool]:
        """|Stab & S|, the vertex mask of c*S, and whether the
        |S| / |Stab & S| cycles of c's sub-orbit under S are disjoint, for
        the cycle c through path with stabilizer stab and entry idx's
        subgroup S."""
        sub = self.subs[idx]
        in_sub = len(stab & sub.member_set)
        cosets = self.coset_masks[idx]
        vmask = 0
        for v in path:
            vmask |= cosets[v]
        spread, tiled = vmask.bit_count() * in_sub, len(path) * sub.order
        if spread > tiled:
            raise GroupError(f"orbit-stabilizer mismatch: {spread} > {tiled}")
        return in_sub, vmask, spread == tiled

    # the masks the fast searcher carries down the path are ignored here
    def _extend_cycle(
        self, idx, used, covered, fused, acc, picked, path, path_mask, *_carried
    ) -> None:
        if len(path) == self.sig[idx].cycle_length:
            self._close_cycle(idx, used, covered, fused, acc, picked, path)
            return
        T = self.table
        cur_inv = self.inv[path[-1]]
        blocked = covered | path_mask
        for w in range(self.n):
            bit = 1 << w
            if blocked & bit:
                continue
            if self.pair_mask[T[w][cur_inv]] & used:
                continue
            _node(self)
            path.append(w)
            self._extend_cycle(
                idx, used, covered, fused, acc, picked, path, path_mask | bit
            )
            path.pop()

    def _close_cycle(self, idx, used, covered, fused, acc, picked, path) -> None:
        entry = self.sig[idx]
        if self.pair_mask[self.table[path[0]][self.inv[path[-1]]]] & used:
            return
        if path[1] > path[-1]:  # reflection of an enumerated orientation
            return
        omega_mask = self.omega_mask(path)
        osize = omega_mask.bit_count()
        budget = 2 * entry.orbit_length
        ndiffs = fused.bit_count() + osize
        if ndiffs > budget:
            return
        stab_order, rest = divmod(2 * entry.cycle_length, osize)
        if rest:
            return
        stab = self.cycle_stabilizer(path, osize)
        if len(stab) != stab_order:
            return
        _, vmask, disjoint = self.cycle_action(idx, path, stab)
        assert not vmask & covered  # covered is a union of cosets v*S
        if not disjoint:
            return
        remaining = self.n - (covered | vmask).bit_count()
        if remaining:
            least_orbits = -(-remaining // (entry.cycle_length * self.subs[idx].order))
            if ndiffs + 2 * least_orbits > budget:
                return
        self.stats.cycles_closed += 1
        self._extend_factor(
            idx,
            used | omega_mask,
            covered | vmask,
            fused | omega_mask,
            acc + [tuple(path)],
            picked,
        )


class OneByOneSearcher(_Searcher):
    def _extend_cycle(
        self, idx, used, covered, fused, acc, picked, path, path_mask, omega, vmask,
        start_blocked, marks,
    ) -> None:
        entry = self.sig[idx]
        cosets = self.coset_masks[idx]
        rows = self.difference_rows
        step = self.pair_columns[path[-1]]
        forbidden = int(rows[path[-1]].translate(marks), 2)
        cands = self.full_cover & ~(covered | path_mask | forbidden)
        if len(path) + 1 < entry.cycle_length:
            while cands:
                bit = cands & -cands
                cands ^= bit
                w = bit.bit_length() - 1
                _node(self)
                path.append(w)
                self._extend_cycle(
                    idx, used, covered, fused, acc, picked, path, path_mask | bit,
                    omega | step[w], vmask | cosets[w], start_blocked, marks,
                )
                path.pop()
            return
        # each candidate above path[1] whose closing difference is unused is
        # tested on its own, after charging the candidates up to it
        stats, limit = self.stats, self.budget
        close, second = self.pair_columns[path[0]], path[1]
        length = entry.cycle_length
        tiled, budget, members = self.closing[idx]
        fused_bits = fused.bit_count()
        # recomputed here: the reference for the start_blocked handed down
        live = (cands >> second << second) & ~int(rows[path[0]].translate(marks), 2)
        while live:
            bit = live & -live
            live ^= bit
            later = cands & -(bit << 1)
            stats.nodes += (cands ^ later).bit_count()
            cands = later
            if stats.nodes > limit:
                stats.nodes = limit + 1
                raise _Budget()
            w = bit.bit_length() - 1
            cyc_omega = omega | step[w] | close[w]
            osize = cyc_omega.bit_count()
            ndiffs = fused_bits + osize
            if ndiffs > budget:
                continue
            stab_order, rest = divmod(2 * length, osize)
            if rest:
                continue
            if stab_order == 1:
                in_sub = 1
            else:
                stab = _cycle_stabilizer(self.group, _codes(self.group, path + [w]), range(self.n))
                if len(stab) != stab_order:
                    continue
                in_sub = len(stab & members)
            cyc_vmask = vmask | cosets[w]
            spread = cyc_vmask.bit_count() * in_sub
            if spread > tiled:
                raise GroupError(f"orbit-stabilizer mismatch: {spread} > {tiled}")
            if spread != tiled:
                continue
            remaining = self.n - (covered | cyc_vmask).bit_count()
            if remaining and ndiffs + 2 * -(-remaining // tiled) > budget:
                continue
            stats.cycles_closed += 1
            path.append(w)
            self._extend_factor(
                idx,
                used | cyc_omega,
                covered | cyc_vmask,
                fused | cyc_omega,
                acc + [tuple(path)],
                picked,
            )
            path.pop()
        stats.nodes += cands.bit_count()
        if stats.nodes > limit:
            stats.nodes = limit + 1
            raise _Budget()


class KAwareSearcher(_Searcher):
    def __init__(self, target, stats, subs) -> None:
        super().__init__(target, stats, subs)
        # (entry index, used differences) -> the least k it was exhausted at
        self.dead: dict[tuple[int, int], int] = {}

    def entry_start(self, idx: int, used: int, picked: list) -> None:
        if idx == len(self.sig):
            raise _Solved(picked)
        k = -1
        if self.repeats[idx]:
            prev = picked[-1][1]
            k = (prev & -prev).bit_length() - 1
        key = (idx, used)
        if self.dead.get(key, math.inf) <= k:
            self.stats.memo_hits += 1
            return
        self._extend_factor(idx, used, 0, 0, [], picked)
        # reached only when the subtree was exhausted without interruption,
        # and only at a k below any the state was exhausted at before
        self.dead[key] = k


def v24_signatures(budget: int = 2_000_000) -> list[tuple[str, SearchTarget]]:
    """(label, target) for every signature of r + s = 11 over the subgroup
    set {G, S1, S2, ...} of the targets derived from 24-5-6, 24-7-4 and
    24-9-2: for each (r, s) that hwp_feasibility admits, every multiset of
    triangle entries (3, 24/|S|, S) whose orbit lengths sum to r with every
    multiset of quadrangle entries that sum to s, triangles first, each
    kind grouped by subgroup in set order: 126 + 126 + 84 targets."""
    out = []
    for sid in ("24-5-6", "24-7-4", "24-9-2"):
        derived = target_from_solution(load_solution(sid))
        G, v = derived.group, len(derived.group)
        names = ["G", *derived.subgroups]
        orbit = {n: v // resolve_subgroup(derived, n).order for n in names}

        def kinds(total: int) -> list[tuple[str, ...]]:
            return [
                c for m in range(total + 1) for c in combinations_with_replacement(names, m)
                if sum(map(orbit.get, c)) == total
            ]

        for r in range(12):
            s = 11 - r
            if not hwp_feasibility(v, r, s)[0]:
                continue
            for tri in kinds(r):
                for quad in kinds(s):
                    entries = tuple(
                        SignatureEntry(length, orbit[n], n)
                        for length, part in ((3, tri), (4, quad)) for n in part
                    )
                    label = f"{sid} r={r} s={s} 3:{','.join(tri)} 4:{','.join(quad)}"
                    out.append((label, SearchTarget(G, r, s, entries, derived.subgroups, budget)))
    return out
