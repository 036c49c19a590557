"""Slow reference for the searcher's cycle scan.

`SlowSearcher` is the searcher as it was before it closed cycles inside
the candidate scan: every step tries each vertex in range(n), a path of
full length goes through a separate closing step, and that step rebuilds
the cycle's Omega mask and its sub-orbit vertex mask from the whole path.
Everything else (entries, factors, the memo, node counting) is inherited
from `hwpreg.search._Searcher`, so the two must visit the same nodes,
close the same cycles and find the same documents.  `omega_mask`,
`cycle_stabilizer` and `cycle_action` also answer the closed-path
questions the tests put to the action oracle.  `coset_masks` computes
the searcher's coset masks vertex by vertex, the reference for its one
pass over the cosets.
"""

from __future__ import annotations

from typing import AbstractSet

from hwpreg.cycles import _stabilizer, _vertex_codes
from hwpreg.groups import GroupError
from hwpreg.search import _Searcher


def coset_masks(group, sub) -> list[int]:
    """The vertex mask of v*S for every vertex v, one vertex at a time."""
    T = group.table
    return [sum(1 << T[v][x] for x in sub.members) for v in range(len(group))]


class SlowSearcher(_Searcher):
    def __init__(self, target, stats) -> None:
        super().__init__(target, stats)
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
            self._node()
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
