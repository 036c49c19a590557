"""Backtracking search for sharply transitive 2-factorizations.

A search target prescribes the shape of a solution as a signature: one
entry per factor orbit, giving the cycle length (3 or 4), the orbit
length under the full group, and the acting subgroup, which must be the
factor's full stabilizer T.  A factor F is grown as sub-orbits c*T of
base cycles c with pairwise disjoint difference sets Omega, each passing
the tiling test 2 * l == |Omega(c)| * |Stab_G(c)|.  Every G-regular
solution has such base cycles, so ``exhausted`` means that no G-regular
solution has the signature and its stabilizers.  The edges {g, d*g} of
a pair P = {d, d^-1} (d != 1, i) form one orbit under right
translation, in which only 1 fixes an edge.  So if an edge e on c has
pair P, e*y lies in F exactly when F*y = F, as each edge lies in one
factor: F's edges of P are e*T, all on c*T.  Of them, e*y lies on c
exactly when c*y = c, as F's cycles are disjoint, so each pair of c
has |Stab_G(c)| edges on c and l = |Stab_G(c)| * |Omega(c)|/2.  A base
cycle of another sub-orbit of F, or of another factor orbit (e*y lies
in F*y), thus has no difference of c.

Neither stabilizer question needs a stabilizer computation.

* A closed cycle c = (p0, ..., p_{l-1}), l = 3 or 4, has no edge of
  difference 1 or i, both used from the start, so |Omega(c)| is even and
  at least 2, and the tiling test reads |Stab_G(c)| as 2l / |Omega|,
  rejecting c unless |Omega| divides 2l: 1, 2 or l.  T = Stab_G(c) acts
  freely on c's edges, as an x != 1 that fixes an edge {a, b} swaps a
  and b, so d = b * a^-1 = d^-1 = i; T keeps each edge's pair, so each
  pair's edges on c form T-orbits of |T| edges, and |T| <= 2l / |Omega|.
  A table read decides each order:

  - |Omega| = 2l: an x that fixes c keeps the l distinct pairs of its l
    edges, so it fixes each edge, and T = {1}.
  - |Omega| = 2, one pair {e, e^-1}: consecutive steps p_{k+1} * p_k^-1
    are never inverse, or c would repeat a vertex, so each is e and
    c = (p0, e * p0, ..., e^(l-1) * p0).  x = p0^-1 * p1 sends each
    vertex to the next and has order l >= |T|, so T = <x> and c passes
    the tiling test; as c = p0 * <x>, |T & S| = |c & p0*S|.
  - |Omega| = 4 with l = 4: T is {1} or {1, i}, as i is the only
    involution.  i is central and not 1, so it fixes no vertex and maps
    none to a neighbour, as {p, p * i} has difference i: c * i = c
    exactly when i turns c by two steps, p0 * i = p2 and p1 * i = p3.
    |T & S| is 2 when T = {1, i} and i is in S, else 1.

* A complete cover F = acc * S, for the base paths acc of an entry with
  subgroup S and orbit length L = |G|/|S|, whose Omega has 2L bits,
  has Stab_G(F) = S: its G-orbit holds each of the |G| * L edges of
  Cay[G : Omega(F)], as x = v'^-1 * v maps an edge {v', a'} of F to the
  edge at v with the same difference, in |G|/|Stab_G(F)| factors of |G|
  edges, so |Stab_G(F)| <= |S|, and S fixes F.  A complete cover thus
  needs no stabilizer test at all.

The search is depth-first and deterministic: each factor is grown one
sub-orbit at a time, the base cycle of a sub-orbit starts at the least
vertex the factor does not cover yet, and reflections are broken by
orienting the base cycle so its second vertex precedes its last.  Base
cycles stay vertex paths: their differences, stabilizers and sub-orbit
vertex masks come from the multiplication table, and canonical cycles
are built only for a found solution.  Beside the used differences, the
search carries ``free``, a v^2-bit matrix with bit n*u + w set just when
w * u^-1 is unused, so u's row, (free >> n*u) & mask, masks out every
other w at once, exactly, as the used set is inverse-closed and an
edge's pair {d, d^-1} meets it just when d is in it.  The difference 1
is used from the start, so no row has its own diagonal bit.  A descent
clears the pair matrices (see ``_tables``) of the closed cycle's l edge
differences.  An open path carries the Omega mask of its edges and the
union of its vertices' cosets v*S, and tries in ascending order the free
w in the row of its end u.  The closing scan masks out the w blocked at
the path's start, whose row is read once per factor extension, and the
reflections below its second vertex as well, but still counts them as
nodes, by popcount before each w it examines and at the scan's end: in
scan order, so any node budget stops at the same candidate as a
one-by-one scan would.  The coset masks v*S are built once per
subgroup, in one pass over its left cosets, and kept on the shared
``Subgroup`` (see ``FiniteGroup.subgroup_closure``).
The frame that picks a cycle's penultimate vertex u runs the scan for
its last vertex w and closes each cycle in place: Omega(c) is the path's
mask plus the pairs of the edges into and out of w (the pair columns),
and the sub-orbit's vertex mask is the path's union plus w*S.  Dead
entry states, keyed by (entry index, consumed-difference bitmask), are
memoized only when their subtree was exhausted normally, so the memo
stays sound when a node budget aborts the search.  The key leaves out
k, the least difference of the previous factor, which the equal-entry
rule of ``_extend_factor`` reads; the memo loses no solution all the
same (see "The memo loses no solution" below).  Anything found is
written as a solution document straight from its base paths, as each
is already a canonical cycle: it starts at its least vertex, the least
one uncovered, and its second vertex precedes its last.  The document
is re-verified by reading it back through the solution pipeline,
which builds the solution's cycles and factors once, before it is
reported; that check recomputes every factor's full stabilizer.  The
searcher changes no process-wide state; its recursion stays within the
default limit (see ``search_hwp``).  Its tables are built on a group's
first search and shared by every later one; like the edge checksum in
``factors.py``, they depend on the group alone and never change an
output.

The closing scan decides most candidates in bulk.  With u the path's
end, p0 its start and D the elements of its Omega, a live w is special
when w * u^-1 or w * p0^-1 is in D, or when w * u^-1 = p0 * w^-1, the
two new edges sharing a pair (the same-pair masks).  The other,
generic, w pass or fail together:

* A generic w adds two new two-element pairs (1 and i are used from the
  start), so |Omega(c)| = |Omega(path)| + 4.  Unless that is 2l none
  closes: a quadrangle's path of one pair gives 6, which does not divide
  8.  If it is 2l, Stab_G(c) = {1} (above), so ``spread`` is
  |vmask | w*S| <= l * |S| = ``tiled``, as cosets are equal or disjoint:
  the orbit-stabilizer GroupError cannot fire, and c tiles just when
  vmask has (l - 1) * |S| bits and w lies outside it.
* Then the budget tests pass.  ``covered`` is a union of cosets v*S
  that misses every free vertex, so for every such w ``remaining`` is
  v - |covered | vmask| - |S| = m * |S| >= 0.  Each sub-orbit closed so
  far spends 2l / |Stab_G| differences on l * |S| / |Stab & S| vertices,
  at most 2/|S| per vertex, so |fused| + 2l + 2 * ceil(m / l) <=
  2(|covered| + l * |S| + m * |S|) / |S| = 2L.

Only the special w are tested one by one.  The masks cost a few table
reads per path edge, so they are built only past five live candidates:
in a seed-17 benchmark round, 3,352 of the 3,953 v = 24 scans with a
live closer have at most five and all 336 at v = 48 have 23-44.  Omega(c)
holds Omega(path), so a path with |fused| + |Omega(path)| > 2L closes
nothing; its at most 2(l - 2) bits need 2L - |fused| < 2(l - 2) for
that.  A scan with no live closer examines no candidate: it is charged
with its u at once.

Most generic closers at v = 48 complete their factor's cover only for
``_extend_factor`` to refuse it, and these are refused in bulk too:

* rest = V - (covered | vmask) is a union of cosets v*S, and each generic
  w lies in it, so w*S does too.  The cover is complete after w just when
  rest = w*S: when |rest| = |S|, rest is one coset and every generic w
  completes the cover, and otherwise none does.
* The new factor then has |fused| + |Omega(path)| + 4 differences for
  every generic w (the four new ones are not in ``used``, which holds
  fused and misses Omega(path)).  Unless that is 2L, all are refused.
* Else, after an equal entry whose factor has least difference k, w is
  refused when fused | Omega(path) | P(w * u^-1) | P(w * p0^-1) has a bit
  at or below k, P(d) being the pair {d, d^-1}.  When fused | Omega(path)
  has one, that is every w; else it is the w with a pair member at or
  below k in w * u^-1 or w * p0^-1: rows u and p0 of the low-pair
  matrix of k, which holds the steps of those d.  No new bit is k
  itself, as k is used.

Each refused w counts as a closed cycle: all those below a closer that
descends are counted before it descends, and the rest at the scan's end.
They are held out of the scan only while the nodes it can still charge
fit in the budget, so no budget stop falls among them; after a descent
that leaves too few nodes, the rest are closed one by one again.

The memo loses no solution.  Call the tree the search walks with the
equal-entry rule but no memo the plain tree.  The memo search visits
its nodes in preorder and skips the subtrees below memo hits.  Let S be
the plain tree's preorder-first solution leaf, and suppose a hit skips
it: S = P2 + C passes a hit node N2 = (idx, U), with P2 the factors of
the entries before idx and k2 the least difference of P2's last, and an
earlier node N1 = (idx, U) has prefix P1 and k1.  Factors meet only
through their Omega, and C uses no difference in U, so C completes P1
unless the equal-entry rule refuses C's first factor after P1's last.

(a) If entry idx does not repeat its predecessor, or k1 <= k2, or C's
    first factor has a least difference above k1, then P1 + C is a
    solution leaf under N1.  N1 has N2's depth and comes first, so that
    leaf precedes S.
(b) Otherwise sort the run of equal entries through idx in P1 + C by
    least difference: the result S* is a solution leaf.  Let d be the
    first position where P1 and P2 differ; P1's branch comes first
    there.  Let q be the first position where S* differs from P1.  q
    lies in the run, before idx, as C's first factor sorts before P1's
    last: its least difference is not above k1, nor k1, which is in U.
    If q <= d, P1's run factors from q to idx - 1 and P2's use the
    same differences W, U less those of the factors below q, and both
    runs are sorted, so both factors at q have the least difference
    min W <= k2.  S*'s factor at q is then a factor of C with a least
    difference below min W, but every factor of C in the run lies above
    k2.  So q > d, S* takes P1's branch at d, and S* precedes S.

Both cases contradict the choice of S.  So the search returns the plain
tree's preorder-first solution, or ``exhausted`` exactly when it has
none.  The argument uses only preorder, not that N1's subtree was
exhausted, so the document found does not depend on the memo: a memo
keyed on k too, or no memo at all, returns the same one.

A target document is read as strictly as a solution document, by the
same field readers (see ``solutions.py``): wrong types, unknown keys and
unreadable files raise ``TargetFormatError``, as does a target built in
code with an entry naming no subgroup of it or a budget below 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

from .factors import Certificate, _settle, hwp_feasibility
from .groups import FiniteGroup, GroupError, Subgroup
from .solutions import (
    Err, SolutionSpec, _parse_json, _read_group, _read_json_file, _read_keys, _read_list, _read_ref,
    _read_subgroups, _strict_int, parse_solution_dict, resolve_subgroup, verify_solution,
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
        return {**vars(self), "seconds": round(self.seconds, 3)}


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

_ENTRY_KEYS = frozenset({"cycle_length", "orbit_length", "subgroup"})


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
    subgroups = _read_subgroups(group, doc["subgroups"], E)

    names = {"G", *subgroups}
    entries = []
    kinds: dict[tuple, SignatureEntry] = {}  # equal entries share one object
    for n, item in enumerate(_read_list(doc["signature"], "signature", E)):
        # a plain well-formed entry passes every check below at once;
        # anything else goes through them in order, for their messages
        if type(item) is dict and item.keys() == _ENTRY_KEYS:
            key = length, orbit, sub = item["cycle_length"], item["orbit_length"], item["subgroup"]
            if (
                type(length) is int and type(orbit) is int and type(sub) is str
                and length >= 3 and orbit >= 1 and sub in names
            ):
                entry = kinds.get(key)
                if entry is None:
                    entry = kinds[key] = SignatureEntry(length, orbit, sub)
                entries.append(entry)
                continue
        entries.append(_read_entry(item, f"signature[{n}]", names, E))

    budget = None
    raw_budget = _read_keys(doc.get("budget", {}), set(), {"nodes"}, "budget", E)
    if "nodes" in raw_budget:
        budget = _strict_int(raw_budget["nodes"], "budget.nodes", E)
        if budget < 1:
            raise E("budget.nodes must be positive")
    return SearchTarget(group, r, s, tuple(entries), subgroups, budget)


def _read_entry(item, where: str, names: set[str], E: Err) -> SignatureEntry:
    """The signature entry item, through each check in turn."""
    _read_keys(item, _ENTRY_KEYS, set(), where, E)
    length = _strict_int(item["cycle_length"], f"{where}.cycle_length", E)
    orbit = _strict_int(item["orbit_length"], f"{where}.orbit_length", E)
    if length < 3:
        raise E(f"{where}: cycle length must be at least 3")
    if orbit < 1:
        raise E(f"{where}: orbit length must be at least 1")
    sub = _read_ref(item["subgroup"], names, "subgroup", where, E)
    return SignatureEntry(length, orbit, sub)


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
    names: dict[Subgroup, str] = {}  # factor stabilizers other than G: S1, S2, ...
    for recipe in spec.factors:
        length, _, _, members = _settle(group, recipe)
        stab = Subgroup(group, tuple(sorted(members)))
        if length is None:
            raise TargetFormatError(f"{recipe.label}: mixed cycle lengths")
        if stab.order == len(group):
            name = "G"
        else:
            name = names.setdefault(stab, f"S{len(names) + 1}")
        entries.append(SignatureEntry(length, len(group) // stab.order, name))
    return SearchTarget(
        group,
        sum(e.orbit_length for e in entries if e.cycle_length == 3),
        sum(e.orbit_length for e in entries if e.cycle_length == 4),
        tuple(entries),
        {name: stab for stab, name in names.items()},
        budget_nodes,
    )


# ---------------------------------------------------------------------------
# the searcher


class _Solved(Exception):
    def __init__(self, picked: list) -> None:
        self.picked = picked


class _Budget(Exception):
    pass


@lru_cache(maxsize=None)
def _tables(G: FiniteGroup) -> tuple:
    """The searcher's tables for G, built on its first search (see the
    module docstring); a v^2-bit matrix has bit n*u + w for the step u -> w:

    * pair_columns[u][w], the mask of the difference pair {d, d^-1} of the
      edge {u, w}, d = w * u^-1;
    * pair_matrices[d], the steps whose difference lies in {d, d^-1};
    * same_pair[u][p], the vertex mask of the w with w * u^-1 = p * w^-1:
      the w whose edges {u, w} and {w, p} have one difference pair;
    * low_pair_matrices[k], the steps whose difference pair has a member <= k;
    * start_free, the matrix of the steps whose difference is not 1 or i.
    """
    T, inv, n = G.table, G.inv_table, len(G)
    pair = [(1 << d) | (1 << inv[d]) for d in range(n)]
    pair_columns = tuple(tuple(pair[T[w][inv[u]]] for w in range(n)) for u in range(n))
    steps = [sum(1 << n * u + T[d][u] for u in range(n)) for d in range(n)]  # w = d * u
    low = [min(d, inv[d]) for d in range(n)]
    by_pair = {low[d]: steps[d] | steps[inv[d]] for d in range(n)}  # one object per pair
    pair_matrices = tuple(by_pair[low[d]] for d in range(n))
    same_pair = [[0] * n for _ in range(n)]
    for u in range(n):
        for x in range(n):  # w = x * u and p = x * x * u
            same_pair[u][T[T[x][x]][u]] |= 1 << T[x][u]
    low_pair_matrices = tuple(sum(steps[d] for d in range(n) if low[d] <= k) for k in range(n))
    start_free = sum(steps) - steps[G.identity] - steps[G.unique_involution()]  # d = d^-1 for both
    return pair_columns, pair_matrices, tuple(map(tuple, same_pair)), low_pair_matrices, start_free


class _Searcher:
    def __init__(self, target: SearchTarget, stats: SearchStats, subs: list[Subgroup]) -> None:
        G = target.group
        self.group = G
        self.table = G.table
        self.n = len(G)
        self.stats = stats
        sig = self.sig = target.entries
        # per entry: whether it equals the one before it (see _extend_factor);
        # a parsed target's equal entries are one object
        self.repeats = [False] + [e is p or e == p for p, e in zip(sig, sig[1:])]
        # per entry: its subgroup, as _infeasible resolved it
        self.subs = subs
        # shared by every search over G (see _tables)
        (self.pair_columns, self.pair_matrices, self.same_pair, self.low_pair_matrices,
         self.start_free) = _tables(G)
        self.full_cover = (1 << self.n) - 1
        # per entry with subgroup S, the vertex mask of v*S for every vertex
        # v, kept on S, so entries with the same subgroup share one tuple
        self.coset_masks = [sub._coset_masks for sub in self.subs]
        # per entry: the l * |S| vertices a sub-orbit tiles, the
        # 2 * orbit_length differences of a factor, and S's members
        self.closing = [
            (e.cycle_length * sub.order, 2 * e.orbit_length, sub.member_set)
            for e, sub in zip(self.sig, self.subs)
        ]
        self.involution = G.unique_involution()
        self.dead: set[tuple[int, int]] = set()
        self.budget = math.inf if target.budget_nodes is None else target.budget_nodes

    def entry_start(self, idx: int, used: int, free: int, picked: list) -> None:
        if idx == len(self.sig):
            raise _Solved(picked)
        key = (idx, used)
        if key in self.dead:
            self.stats.memo_hits += 1
            return
        self._extend_factor(idx, used, free, 0, 0, [], picked)
        # reached only when the subtree was exhausted without interruption
        self.dead.add(key)

    # `fused` holds the Omega masks of the factor's base cycles so far; they
    # are pairwise disjoint, so its bit count is the differences they use.
    def _extend_factor(
        self, idx: int, used: int, free: int, covered: int, fused: int, acc: list, picked: list
    ) -> None:
        entry = self.sig[idx]
        if covered == self.full_cover:
            # with all 2 * orbit_length differences used, the factor's full
            # stabilizer is S itself (see the module docstring)
            if fused.bit_count() != 2 * entry.orbit_length:
                return
            # identical adjacent entries commute; keep one ordering
            if self.repeats[idx]:
                prev_fused = picked[-1][1]
                if (fused & -fused) <= (prev_fused & -prev_fused):
                    return
            self.stats.factors_completed += 1
            self.entry_start(idx + 1, used, free, picked + [(acc, fused)])
            return
        v0 = (~covered & (covered + 1)).bit_length() - 1  # least uncovered vertex
        self.stats.nodes += 1
        if self.stats.nodes > self.budget:
            raise _Budget()
        # for every closing scan, the w whose closing difference w * v0^-1 is unused
        start_open = (free >> self.n * v0) & self.full_cover
        self._extend_cycle(
            idx, used, free, covered, fused, acc, picked, [v0], 1 << v0, 0,
            self.coset_masks[idx][v0], start_open,
        )

    # The open path carries `omega`, the Omega mask of its edges, and
    # `vmask`, the OR of its vertices' coset masks v*S.  Candidates are the
    # free vertices whose step difference is unused, in ascending order;
    # for each penultimate u, the closing scan of path + [u] runs in place.
    def _extend_cycle(
        self, idx: int, used: int, free: int, covered: int, fused: int, acc: list,
        picked: list, path: list, path_mask: int, omega: int, vmask: int, start_open: int,
    ) -> None:
        cosets, n = self.coset_masks[idx], self.n
        unheld = self.full_cover & ~(covered | path_mask)  # each row of `free` is read through it
        step = self.pair_columns[path[-1]]
        cands = (free >> n * path[-1]) & unheld
        stats, limit = self.stats, self.budget
        tiled, budget, members = self.closing[idx]
        length, fused_bits = self.sig[idx].cycle_length, fused.bit_count()
        opening = len(path) + 2 < length
        # a path + [u] with more differences than the factor has left closes
        # nothing: its scan examines no candidate (see the module docstring)
        room = budget - fused_bits
        dead_ends = room < 2 * (length - 2)
        p0, T, inv = path[0], self.table, self.group.inv_table
        close, p1 = self.pair_columns[p0], path[1] if len(path) > 1 else None
        nodes = stats.nodes  # written back before each descent and each raise
        while cands:
            ubit = cands & -cands
            cands ^= ubit
            u = ubit.bit_length() - 1
            u_omega = omega | step[u]
            if opening:  # u is not yet the penultimate vertex
                stats.nodes = nodes = nodes + 1
                if nodes > limit:
                    raise _Budget()
                self._extend_cycle(
                    idx, used, free, covered, fused, acc, picked, path + [u], path_mask | ubit,
                    u_omega, vmask | cosets[u], start_open,
                )
                nodes = stats.nodes
                continue
            # the candidates of path + [u]'s closing scan (row u has no bit u,
            # as 1 is used), and `live`: those above its second vertex (the
            # rest are reflections) whose closing difference is unused; every
            # candidate is charged as a node in scan order, up to w before w
            # is examined, and the rest at the end: with u, when none is live
            scan = (free >> n * u) & unheld
            second = u if p1 is None else p1
            dead = dead_ends and u_omega.bit_count() > room
            live = 0 if dead else (scan >> second << second) & start_open
            nodes += 1 if live else 1 + scan.bit_count()
            if nodes > limit:
                stats.nodes = limit + 1
                raise _Budget()
            if not live:
                continue
            path.append(u)
            u_step, u_vmask = self.pair_columns[u], vmask | cosets[u]
            # `generic`: the live w that repeat no pair and close; only the
            # special ones are tested below.  `refused`: the generic w whose
            # complete cover _extend_factor would refuse, held out of the
            # scan and counted as closed in scan order (see the module docstring)
            generic = refused = 0
            if live.bit_count() > 5:
                special = self.same_pair[u][p0]
                for a, b in zip(path, path[1:]):  # w * u^-1 or w * p0^-1 in {a, b}'s pair
                    d, e = T[T[b][inv[a]]], T[T[a][inv[b]]]
                    special |= 1 << d[u] | 1 << e[u] | 1 << d[p0] | 1 << e[p0]
                if u_omega.bit_count() + 4 == 2 * length and (
                    u_vmask.bit_count() == tiled - len(members)
                ):
                    generic = live & ~special & ~u_vmask
                    if generic and nodes + scan.bit_count() <= limit:
                        refused = self._refused(
                            idx, covered | u_vmask, fused | u_omega, u, p0, generic, picked
                        )
                live = live & special | (generic ^ refused)
            while live:
                bit = live & -live
                live ^= bit
                later = scan & -(bit << 1)
                nodes += (scan ^ later).bit_count()
                scan = later
                if nodes > limit:
                    stats.nodes = limit + 1
                    raise _Budget()
                w = bit.bit_length() - 1
                cyc_omega = u_omega | u_step[w] | close[w]
                if not bit & generic:
                    osize = cyc_omega.bit_count()
                    ndiffs = fused_bits + osize
                    if ndiffs > budget:
                        continue
                    # the tiling test 2l = |Omega| * |Stab_G(c)|, with Stab_G(c)
                    # and |Stab & S| read off the table (see the module docstring)
                    stab_order, rest = divmod(2 * length, osize)
                    if rest:
                        continue
                    if stab_order == 1:
                        in_sub = 1
                    elif stab_order == length:  # one pair: c = p0 * <p0^-1 * p1>
                        in_sub = ((path_mask | ubit | bit) & cosets[p0]).bit_count()
                    else:  # l = 4 and two pairs: Stab = {1, i} when i turns c by two
                        i = self.involution
                        if T[p0][i] != path[2] or T[second][i] != w:
                            continue
                        in_sub = 2 if i in members else 1
                    # c*S has l * |S| / |Stab & S| vertices when the cycles of
                    # c's sub-orbit under S are disjoint, and never more
                    spread = (u_vmask | cosets[w]).bit_count() * in_sub
                    if spread > tiled:
                        stats.nodes = nodes
                        raise GroupError(f"orbit-stabilizer mismatch: {spread} > {tiled}")
                    if spread != tiled:
                        continue
                    remaining = self.n - (covered | u_vmask | cosets[w]).bit_count()
                    if remaining and ndiffs + 2 * -(-remaining // tiled) > budget:
                        continue
                # the refused closers below w close before it
                stats.cycles_closed += 1 + (refused & (bit - 1)).bit_count()
                refused &= -bit
                stats.nodes = nodes
                gone = 0  # the steps of the cycle's l edge differences
                for a, b in zip((w, *path), (*path, w)):
                    gone |= self.pair_matrices[T[b][inv[a]]]
                self._extend_factor(
                    idx, used | cyc_omega, free & ~gone, covered | u_vmask | cosets[w],
                    fused | cyc_omega, acc + [(*path, w)], picked,
                )
                nodes = stats.nodes
                if refused and nodes + scan.bit_count() > limit:
                    # a stop could now fall among them: close them one by one
                    live |= refused
                    refused = 0
            path.pop()
            if refused:
                stats.cycles_closed += refused.bit_count()
            nodes += scan.bit_count()
            if nodes > limit:
                stats.nodes = limit + 1
                raise _Budget()
        stats.nodes = nodes

    def _refused(
        self, idx: int, held: int, base: int, u: int, p0: int, generic: int, picked: list
    ) -> int:
        """The generic closers of the path from p0 to u whose cycle completes
        the factor's cover only for _extend_factor to refuse it, for `held`
        = covered | vmask and `base` = fused | Omega(path) (see the module
        docstring)."""
        _, budget, members = self.closing[idx]
        if self.n - held.bit_count() != len(members):
            return 0  # the cover stays open
        if base.bit_count() + 4 != budget:
            return generic
        if not self.repeats[idx]:
            return 0
        prev = picked[-1][1]
        k = (prev & -prev).bit_length() - 1
        if base & ((2 << k) - 1):
            return generic
        low, n = self.low_pair_matrices[k], self.n
        return generic & ((low >> n * u) | (low >> n * p0))


def _infeasible(target: SearchTarget) -> tuple[Optional[str], list[Subgroup]]:
    """Why target is infeasible a priori, or None, and the subgroups of the
    entries read so far: of every entry when it is feasible."""
    v = len(target.group)
    subs: list[Subgroup] = []
    feasible, why = hwp_feasibility(v, target.r, target.s)
    if not feasible:
        return why, subs
    sums = {3: 0, 4: 0}  # orbit lengths by cycle length
    for n, entry in enumerate(target.entries):
        length, orbit = entry.cycle_length, entry.orbit_length
        if length not in sums:
            return f"signature[{n}]: factors must consist of triangles or quadrangles", subs
        if v % length:
            return f"signature[{n}]: cycle length {length} does not divide v={v}", subs
        sub = resolve_subgroup(target, entry.subgroup)
        if orbit * sub.order != v:
            return (
                f"signature[{n}]: orbit length {orbit} with subgroup "
                f"order {sub.order} cannot give |G|={v}"
            ), subs
        subs.append(sub)
        sums[length] += orbit
    if (sums[3], sums[4]) != (target.r, target.s):
        return (
            f"signature orbit lengths sum to (r,s)=({sums[3]},{sums[4]}) "
            f"but the target is ({target.r},{target.s})"
        ), subs
    return None, subs


def _found_document(target: SearchTarget, picked: list) -> dict:
    """The solution document of the base paths found, cycles named C1, C2,
    ..., keys in solution_to_dict's order; each path is already canonical
    (see the module docstring)."""
    G = target.group
    fmt = G.format
    cycles: dict[str, list[str]] = {}
    factors = []
    for entry, (acc, _) in zip(target.entries, picked):
        names = [f"C{len(cycles) + n}" for n in range(1, len(acc) + 1)]
        cycles.update(zip(names, ([fmt(v) for v in path] for path in acc)))
        factors.append({"cycles": names, "subgroup": entry.subgroup})
    return {
        "id": f"search-{G.id}-{target.r}-{target.s}",
        "group": G.id,
        "subgroups": {n: [fmt(g) for g in s.generators] for n, s in target.subgroups.items()},
        "cycles": cycles,
        "factors": factors,
        "expected": {"v": len(G), "r": target.r, "s": target.s},
    }


def search_hwp(target: SearchTarget) -> SearchOutcome:
    """Run the backtracking search for a target signature.

    The verdict is ``found`` with a re-verified solution document,
    ``exhausted`` when no G-regular solution has the signature and its
    stabilizers (see the module docstring; with a reason when the
    signature is arithmetically impossible), or
    ``budget-exceeded`` when the node budget ran out first.
    """
    # a target built in code is checked as its document would be
    E, names = TargetFormatError, {"G", *target.subgroups}
    for n, entry in enumerate(target.entries):
        if entry.subgroup not in names:
            _read_ref(entry.subgroup, names, "subgroup", f"signature[{n}]", E)
    if target.budget_nodes is not None and target.budget_nodes < 1:
        raise E("budget.nodes must be positive")
    stats = SearchStats()
    reason, subs = _infeasible(target)
    if reason is not None:
        return SearchOutcome(VERDICT_EXHAUSTED, reason, None, None, stats)

    searcher = _Searcher(target, stats, subs)
    G = target.group
    # identity cannot occur as a difference; the involution marks I-edges
    start_used = (1 << G.identity) | searcher.pair_columns[G.identity][G.unique_involution()]

    # The default recursion limit is enough.  A cycle's stabilizer acts
    # semiregularly on its l vertices, so a sub-orbit under S covers at
    # least |S| vertices and an entry grows at most v/|S| = orbit_length
    # sub-orbits of l - 1 <= 3 frames (one _extend_factor, l - 2
    # _extend_cycle, the last closing the cycle in place), so a feasible
    # target nests at most 2E + 3(v/2 - 1) + 1 frames for E entries: 116 at v = 48.
    began = time.perf_counter()
    verdict, solution, cert = VERDICT_EXHAUSTED, None, None
    try:
        searcher.entry_start(0, start_used, searcher.start_free, [])
    except _Solved as hit:
        solution = _found_document(target, hit.picked)
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
