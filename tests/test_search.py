"""Target documents and the backtracking searcher."""

import copy
import enum
import hashlib
import json
import random
import re
import sys
from dataclasses import replace
from types import MappingProxyType

import pytest

from hwpreg.cycles import _stabilizer
from hwpreg.factors import canonical_json
from hwpreg.groups import GROUP_IDS, build_group
from hwpreg.search import (
    SearchStats,
    SearchTarget,
    SignatureEntry,
    _Searcher,
    _Solved,
    _tables,
    TargetFormatError,
    load_target_file,
    parse_target_dict,
    parse_target_text,
    search_hwp,
    target_from_solution,
)
from hwpreg.solutions import (
    SOLUTION_IDS,
    load_solution,
    parse_solution_dict,
    resolve_subgroup,
    solution_to_dict,
    verify_solution,
)
from search_oracle import OneByOneSearcher, coset_masks, entry_subgroups, free_matrix, refuses
from test_groups import _fresh_q24
from test_search_lockstep import _conjugate, _targets

TARGET_24_9_2 = {
    "group": "Q24",
    "target": {"r": 9, "s": 2},
    "signature": [
        {"cycle_length": 4, "orbit_length": 1, "subgroup": "G"},
        {"cycle_length": 4, "orbit_length": 1, "subgroup": "G"},
        {"cycle_length": 3, "orbit_length": 3, "subgroup": "L"},
        {"cycle_length": 3, "orbit_length": 6, "subgroup": "H"},
    ],
    "subgroups": {"L": ["a2b", "a3"], "H": ["b"]},
    "budget": {"nodes": 10_000_000},
}


def _target(**overrides):
    doc = copy.deepcopy(TARGET_24_9_2)
    doc.update(overrides)
    return doc


def test_parse_target_resolves_subgroups():
    target = parse_target_dict(TARGET_24_9_2)
    assert target.group.id == "Q24"
    assert (target.r, target.s) == (9, 2)
    assert target.subgroups["L"].order == 8 and target.subgroups["H"].order == 4
    assert target.budget_nodes == 10_000_000
    assert target.entries[0] == SignatureEntry(4, 1, "G")


def test_parse_target_text_and_file(tmp_path):
    text = json.dumps(TARGET_24_9_2)
    assert parse_target_text(text).entries == parse_target_dict(TARGET_24_9_2).entries
    path = tmp_path / "t.json"
    path.write_text(text, encoding="utf-8")
    assert load_target_file(str(path)).r == 9
    with pytest.raises(TargetFormatError):
        parse_target_text("not json")


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.pop("signature"), "missing keys"),
        (lambda d: d.update(group="D8"), "group"),
        (lambda d: d.update(target={"r": 9}), "target.target"),
        (lambda d: d.update(target={"r": -1, "s": 2}), "nonnegative"),
        (lambda d: d["subgroups"].update(G=["a"]), "subgroup name"),
        (lambda d: d["subgroups"].update(Z=[]), "non-empty"),
        (lambda d: d["subgroups"].update(Z=["zz"]), "subgroups.Z"),
        (lambda d: d.update(signature=[]), "non-empty"),
        (lambda d: d["signature"][0].pop("subgroup"), "signature\\[0\\]"),
        (lambda d: d["signature"][0].update(cycle_length=2), "at least 3"),
        (lambda d: d["signature"][0].update(orbit_length=0), "at least 1"),
        (lambda d: d["signature"][0].update(subgroup="Z"), "unknown subgroup"),
        (lambda d: d.update(budget={"nodes": 0}), "positive"),
        (lambda d: d.update(budget={"seconds": 4}), "budget"),
    ],
)
def test_parse_target_rejects(mutate, fragment):
    doc = _target()
    mutate(doc)
    with pytest.raises(TargetFormatError, match=fragment):
        parse_target_dict(doc)


@pytest.mark.parametrize("value", ["9", 9.0, 4.9, True, None, [9]])
@pytest.mark.parametrize(
    "field,place",
    [
        ("target.r", lambda d, x: d["target"].update(r=x)),
        ("target.s", lambda d, x: d["target"].update(s=x)),
        ("signature[0].cycle_length", lambda d, x: d["signature"][0].update(cycle_length=x)),
        ("signature[2].orbit_length", lambda d, x: d["signature"][2].update(orbit_length=x)),
        ("budget.nodes", lambda d, x: d["budget"].update(nodes=x)),
    ],
)
def test_parse_target_rejects_non_integers(field, place, value):
    doc = _target()
    place(doc, value)
    with pytest.raises(TargetFormatError, match=re.escape(f"{field} must be an integer")):
        parse_target_dict(doc)


@pytest.mark.parametrize(
    "value,message",
    [
        (5, "signature[2] must be a JSON object"),
        (["cycle_length"], "signature[2] must be a JSON object"),
        ({"cycle_length": 3, "orbit_length": 3}, "signature[2]: missing keys ['subgroup']"),
        (
            {"cycle_length": 3, "orbit_length": 3, "subgroup": "L", "note": 1},
            "signature[2]: unknown keys ['note']",
        ),
        ({"cycle_length": "3"}, "signature[2].cycle_length must be an integer, got '3'"),
        ({"cycle_length": True}, "signature[2].cycle_length must be an integer, got True"),
        ({"cycle_length": 2}, "signature[2]: cycle length must be at least 3"),
        ({"orbit_length": 3.0}, "signature[2].orbit_length must be an integer, got 3.0"),
        ({"orbit_length": None}, "signature[2].orbit_length must be an integer, got None"),
        ({"orbit_length": 0}, "signature[2]: orbit length must be at least 1"),
        ({"subgroup": "Z"}, "signature[2]: unknown subgroup 'Z'"),
        ({"subgroup": ["L"]}, "signature[2]: unknown subgroup ['L']"),
        ({"subgroup": 1}, "signature[2]: unknown subgroup 1"),
    ],
)
def test_parse_target_names_the_bad_signature_field(value, message):
    # entries 0 and 1 are well formed; a dict updates entry 2, anything
    # else replaces it
    doc = _target()
    if isinstance(value, dict) and len(value) == 1:
        doc["signature"][2].update(value)
    else:
        doc["signature"][2] = value
    with pytest.raises(TargetFormatError) as err:
        parse_target_dict(doc)
    assert str(err.value) == message


def test_parse_target_reads_every_mapping_entry_alike():
    # an entry that is a mapping but no dict, or holds an int subclass,
    # takes the checks one by one and gives the same target
    class Three(enum.IntEnum):
        THREE = 3

    plain = parse_target_dict(TARGET_24_9_2)
    doc = _target()
    doc["signature"][0] = MappingProxyType(doc["signature"][0])
    doc["signature"][2]["orbit_length"] = Three.THREE
    other = parse_target_dict(doc)
    assert other.entries == plain.entries
    # equal entries of one document are one object
    assert plain.entries[0] is plain.entries[1]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        # r+s must be v/2 - 1
        (lambda d: d.update(target={"r": 9, "s": 3}), "r+s"),
        # orbit length inconsistent with the subgroup order
        (lambda d: d["signature"][2].update(orbit_length=4), "cannot give"),
        # signature sums disagree with the target counts
        (
            lambda d: d.update(
                target={"r": 8, "s": 3},
                signature=d["signature"][:-1]
                + [{"cycle_length": 3, "orbit_length": 6, "subgroup": "H"}],
            ),
            "sum to",
        ),
    ],
)
def test_infeasible_targets_exhaust_with_reason(mutate, fragment):
    doc = _target()
    mutate(doc)
    outcome = search_hwp(parse_target_dict(doc))
    assert outcome.verdict == "exhausted"
    assert fragment.replace("\\", "") in outcome.reason


@pytest.mark.parametrize(
    "mutate,reason",
    [
        (lambda d: d.update(target={"r": 9, "s": 3}), "r+s=12 must equal v/2-1=11"),
        (
            lambda d: d["signature"][2].update(orbit_length=4),
            "signature[2]: orbit length 4 with subgroup order 8 cannot give |G|=24",
        ),
        (
            lambda d: d["signature"][0].update(cycle_length=5),
            "signature[0]: factors must consist of triangles or quadrangles",
        ),
        (
            lambda d: d.update(target={"r": 10, "s": 1}),
            "signature orbit lengths sum to (r,s)=(9,2) but the target is (10,1)",
        ),
    ],
)
def test_infeasible_reasons_are_exact(mutate, reason):
    doc = _target()
    mutate(doc)
    assert search_hwp(parse_target_dict(doc)).reason == reason


def test_search_resolves_each_entry_once(monkeypatch):
    # the feasibility check resolves every entry's subgroup, and the
    # searcher reuses what it resolved
    calls = []

    def counting(target, name):
        calls.append(name)
        return resolve_subgroup(target, name)

    monkeypatch.setattr("hwpreg.search.resolve_subgroup", counting)
    target = parse_target_dict(TARGET_24_9_2)
    assert search_hwp(target).verdict == "found"
    assert calls == [e.subgroup for e in target.entries]


def test_unsupported_cycle_length_is_infeasible():
    doc = _target(
        target={"r": 11, "s": 0},
        signature=[
            {"cycle_length": 6, "orbit_length": 1, "subgroup": "G"},
        ],
    )
    # r+s still fails first unless counts line up, so pick counts that pass
    doc["target"] = {"r": 0, "s": 0}
    outcome = search_hwp(parse_target_dict(doc))
    assert outcome.verdict == "exhausted" and outcome.reason


def test_rediscovers_24_9_2():
    outcome = search_hwp(parse_target_dict(TARGET_24_9_2))
    assert outcome.verdict == "found"
    assert outcome.stats.nodes < 10_000_000
    assert outcome.certificate is not None and outcome.certificate.ok
    assert (outcome.certificate.r, outcome.certificate.s) == (9, 2)
    # the document re-verifies independently of the searcher
    spec = parse_solution_dict(outcome.solution)
    cert = verify_solution(spec)
    assert cert.ok and (cert.r, cert.s) == (9, 2)
    # factors reference the target's subgroup names
    assert {f["subgroup"] for f in outcome.solution["factors"]} == {"G", "L", "H"}


def test_search_is_deterministic():
    first = search_hwp(parse_target_dict(TARGET_24_9_2))
    second = search_hwp(parse_target_dict(TARGET_24_9_2))
    assert first.solution == second.solution
    assert first.stats.nodes == second.stats.nodes
    assert first.stats.cycles_closed == second.stats.cycles_closed


@pytest.mark.parametrize("sid", ("24-7-4", "24-9-2", "24-5-6"))
def test_rediscovery_from_derived_signatures(sid):
    spec = load_solution(sid)
    target = target_from_solution(spec, budget_nodes=10_000_000)
    v, r, s = spec.expected
    assert (target.r, target.s) == (r, s)
    outcome = search_hwp(target)
    assert outcome.verdict == "found"
    assert verify_solution(parse_solution_dict(outcome.solution)).ok


def test_target_from_solution_names_stabilizers():
    target = target_from_solution(load_solution("24-9-2"))
    assert [e.subgroup for e in target.entries] == ["G", "G", "S1", "S2"]
    assert target.subgroups["S1"].order == 8
    assert target.subgroups["S2"].order == 4


def test_coset_masks_are_built_once_per_subgroup():
    # the table lives on the Subgroup: entries naming one subgroup share
    # its tuple, and a second searcher reads the same tuples again
    target = target_from_solution(load_solution("48-17-6"))
    searcher = _Searcher(target, SearchStats(), entry_subgroups(target))
    by_name = {}
    for entry, masks in zip(target.entries, searcher.coset_masks):
        assert by_name.setdefault(entry.subgroup, masks) is masks
        assert masks is resolve_subgroup(target, entry.subgroup)._coset_masks
    assert sorted(by_name) == ["G", "S1", "S2"]
    assert by_name["G"] == (searcher.full_cover,) * len(target.group)
    again = _Searcher(target, SearchStats(), entry_subgroups(target))
    assert all(a is b for a, b in zip(again.coset_masks, searcher.coset_masks))


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_coset_masks_match_the_per_vertex_formula(sid):
    # G, the solution's subgroups and its derived target's, each
    # conjugated by every g in G
    spec = load_solution(sid)
    G = spec.group
    subs = [
        G.whole_subgroup(),
        *spec.subgroups.values(),
        *target_from_solution(spec).subgroups.values(),
    ]
    for g in range(len(G)):
        gi = G.inv(g)
        named = {
            f"S{k}": G.subgroup_closure(G.mul(G.mul(gi, x), g) for x in sub.members)
            for k, sub in enumerate(subs)
        }
        entries = tuple(SignatureEntry(3, 1, name) for name in named)
        target = SearchTarget(G, 0, 0, entries, named)
        searcher = _Searcher(target, SearchStats(), entry_subgroups(target))
        assert searcher.coset_masks == [coset_masks(G, sub) for sub in named.values()]
        assert all(m is sub._coset_masks for m, sub in zip(searcher.coset_masks, named.values()))


@pytest.mark.parametrize("sid", ["48-17-6", "24-9-2", "24-5-6"])  # 2O, Q24, SL23
def test_free_matrix_rows_mask_the_blocked_steps(sid):
    # for a consumed-difference mask `used`, which is inverse-closed,
    # start_free less the pair matrices of the used differences has as row
    # u the complement of the w with pair_columns[u][w] & used, so no row
    # has its own diagonal bit; _extend_factor hands down row v0
    target = target_from_solution(load_solution(sid))
    searcher = _Searcher(target, SearchStats(), entry_subgroups(target))
    seen = []
    searcher._extend_cycle = lambda *args: seen.append(args[-1])
    G = target.group
    n, pairs, full = len(G), searcher.pair_columns, searcher.full_cover
    rng = random.Random(f"free-matrix-{sid}")
    for _ in range(40):
        used = pairs[G.identity][G.unique_involution()] | 1 << G.identity
        free = searcher.start_free
        for d in rng.sample(range(n), rng.randrange(n)):
            used |= pairs[G.identity][d]  # {d, d^-1}
            free &= ~searcher.pair_matrices[d]
        assert free >> n * n == 0
        rows = [full & ~sum(1 << w for w in range(n) if pairs[u][w] & used) for u in range(n)]
        for u in range(n):
            assert (free >> n * u) & full == rows[u], (used, u)
        v0 = rng.randrange(n)
        searcher._extend_factor(0, used, free, (1 << v0) - 1, 0, [], [])
        assert seen.pop() == rows[v0], (used, v0)


def test_pair_matrices_are_built_on_first_search():
    # building a group does no work for the searcher's candidate filter;
    # pair_matrices[d] holds the steps u -> w with w * u^-1 in {d, d^-1},
    # and start_free every step whose difference is not 1 or i
    built = _tables.cache_info().currsize
    G = _fresh_q24()
    assert _tables.cache_info().currsize == built
    _, pair_matrices, _, _, start_free = _tables(G)
    assert _tables.cache_info().currsize == built + 1
    n = len(G)
    steps = [(n * u + w, G.mul(w, G.inv(u))) for u in range(n) for w in range(n)]
    for d in range(n):
        assert pair_matrices[d] == sum(1 << b for b, e in steps if e in (d, G.inv(d))), d
    blocked = (G.identity, G.unique_involution())
    assert start_free == sum(1 << b for b, e in steps if e not in blocked)


def test_searches_over_one_group_share_one_set_of_tables():
    # cached per group, as factors._target_digest is: a later search,
    # under any subgroups, builds none
    target = target_from_solution(load_solution("24-9-2"), 1000)
    G = target.group
    tables = _tables(G)
    built = _tables.cache_info().currsize
    for t in (target, _conjugate(target, G.parse("b"))):
        searcher = _Searcher(t, SearchStats(), entry_subgroups(t))
        got = (
            searcher.pair_columns, searcher.pair_matrices, searcher.same_pair,
            searcher.low_pair_matrices, searcher.start_free,
        )
        assert all(a is b for a, b in zip(got, tables, strict=True))
        search_hwp(t)
    assert _tables(G) is tables
    assert _tables.cache_info().currsize == built


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_same_pair_masks_hold_the_w_whose_two_edges_share_a_pair(gid):
    # {w : w * u^-1 = p * w^-1}, one w at a time
    G = build_group(gid)
    n, mul, inv = len(G), G.mul, G.inv
    same_pair = _tables(G)[2]
    for u in range(n):
        for p in range(n):
            want = sum(1 << w for w in range(n) if mul(w, inv(u)) == mul(p, inv(w)))
            assert same_pair[u][p] == want, (u, p)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_low_pair_marks_mark_the_pairs_with_a_member_at_or_below_k(gid):
    # low_pair_matrices[k] holds the steps u -> w whose difference
    # d = w * u^-1 has min(d, d^-1) <= k, and nothing past the v^2 bits
    G = build_group(gid)
    n, low = len(G), _tables(G)[3]
    assert len(low) == n
    least = [min(d, G.inv(d)) for d in range(n)]
    steps = [(n * u + w, least[G.mul(w, G.inv(u))]) for u in range(n) for w in range(n)]
    for k in range(n):
        assert low[k] == sum(1 << b for b, m in steps if m <= k), k


@pytest.mark.parametrize(
    "sid, budget",
    [("24-5-6", None), ("24-7-4", None), ("24-9-2", None), ("48-17-6", 50_000)],
)
def test_complete_covers_are_fixed_by_their_subgroup_alone(monkeypatch, sid, budget):
    # the searcher runs no stabilizer test on a complete cover (see the
    # search.py module docstring); the kernel confirms it on every one
    checked = []
    entry_start = _Searcher.entry_start

    def checking_entry_start(self, idx, used, free, picked):
        if idx:
            acc, _ = picked[-1]
            T, sub = self.table, self.subs[idx - 1]
            cycles = [[T[v][x] for v in p] for p in acc for x in sub.members]
            assert _stabilizer(self.group, cycles, "factor") == sub.member_set
            checked.append(idx)
        entry_start(self, idx, used, free, picked)

    monkeypatch.setattr(_Searcher, "entry_start", checking_entry_start)
    outcome = search_hwp(target_from_solution(load_solution(sid), budget))
    assert len(checked) == outcome.stats.factors_completed > 0


@pytest.mark.parametrize("sid", ["24-5-6", "24-9-2", "48-15-8"])
def test_the_free_matrix_follows_the_consumed_differences(monkeypatch, sid):
    # at every entry_start and _extend_factor, the matrix of unused steps
    # handed down is start_free less the pair matrices of the consumed
    # differences: a descent that misses an update, or makes one too many,
    # shows here; g = 1 and two seeded conjugates, under a budget
    entry_start, extend_factor = _Searcher.entry_start, _Searcher._extend_factor
    later_entries = closed = 0

    def checking_entry_start(self, idx, used, free, picked):
        nonlocal later_entries
        assert free == free_matrix(self, used), (idx, used)
        later_entries += idx > 0
        entry_start(self, idx, used, free, picked)

    def checking_extend_factor(self, idx, used, free, covered, fused, acc, picked):
        nonlocal closed
        assert free == free_matrix(self, used), (idx, used, acc)
        closed += bool(acc)
        extend_factor(self, idx, used, free, covered, fused, acc, picked)

    monkeypatch.setattr(_Searcher, "entry_start", checking_entry_start)
    monkeypatch.setattr(_Searcher, "_extend_factor", checking_extend_factor)
    for target in _targets(sid, 20_000):
        search_hwp(target)
    assert later_entries and closed  # the matrix was checked after descents


def _counters(stats):
    return (
        stats.nodes,
        stats.cycles_closed,
        stats.factors_completed,
        stats.memo_entries,
        stats.memo_hits,
    )


def test_order_48_signature_runs_under_budget():
    # full searches at v=48 are out of test scope; the machinery still works
    pinned = {
        "48-17-6": (2001, 196, 2, 1, 0),
        "48-15-8": (2001, 196, 2, 1, 0),
        "48-5-18": (2001, 2, 2, 0, 0),
    }
    for sid, counters in pinned.items():
        spec = load_solution(sid)
        target = target_from_solution(spec, budget_nodes=2000)
        assert (len(target.group), target.r, target.s) == spec.expected
        outcome = search_hwp(target)
        assert outcome.verdict == "budget-exceeded", sid
        assert _counters(outcome.stats) == counters, sid


@pytest.mark.parametrize(
    "sid,g,budget,counters",
    [
        ("48-17-6", "1", 500, (501, 80, 1, 0, 0)),
        ("48-17-6", "1", 5000, (5001, 432, 5, 3, 0)),
        ("48-17-6", "1/2(-1+i+j-k)", 500, (501, 74, 1, 0, 0)),
        ("48-17-6", "1/2(-1+i+j-k)", 5000, (5001, 426, 5, 3, 0)),
        ("48-17-6", "1/r2(-1+j)", 500, (501, 74, 1, 0, 0)),
        ("48-17-6", "1/r2(-1+j)", 5000, (5001, 426, 5, 3, 0)),
        ("48-17-6", "1/r2(i-k)", 500, (501, 74, 1, 0, 0)),
        ("48-17-6", "1/r2(i-k)", 5000, (5001, 426, 5, 3, 0)),
        ("48-15-8", "1", 500, (501, 80, 1, 0, 0)),
        ("48-15-8", "1", 5000, (5001, 432, 5, 3, 0)),
        ("48-15-8", "1/r2(-1+i)", 500, (501, 80, 1, 0, 0)),
        ("48-15-8", "1/r2(-1+i)", 5000, (5001, 432, 5, 3, 0)),
        ("48-15-8", "1/r2(-i-k)", 500, (501, 74, 1, 0, 0)),
        ("48-15-8", "1/r2(-i-k)", 5000, (5001, 426, 5, 3, 0)),
        ("48-15-8", "-j", 500, (501, 80, 1, 0, 0)),
        ("48-15-8", "-j", 5000, (5001, 432, 5, 3, 0)),
        # stops after a factor's subtree returns into a closing scan that
        # holds refused covers out
        ("48-17-6", "1", 5990, (5991, 474, 5, 4, 0)),
        ("48-15-8", "1", 6020, (6021, 482, 6, 4, 1)),
    ],
)
def test_conjugated_order_48_budget_stops_are_pinned(sid, g, budget, counters):
    # g = 1 and the three conjugating elements that
    # random.Random(f"pinned-counters-{sid}") samples first; the budget
    # stops fall in subtrees entered past closing scans that refuse
    # complete covers in bulk, so refused covers counted before their
    # place show here (ones counted after it show in the lockstep trails)
    target = target_from_solution(load_solution(sid), budget)
    G = target.group
    if g != "1":
        assert G.parse(g) in random.Random(f"pinned-counters-{sid}").sample(range(len(G)), 3)
    outcome = search_hwp(_conjugate(target, G.parse(g)))
    assert outcome.verdict == "budget-exceeded"
    assert _counters(outcome.stats) == counters


@pytest.mark.parametrize(
    "sid,counters,digest",
    [
        (
            "24-5-6",
            (27820, 104, 69, 50, 13),
            "150ed4a804d02de996313c792302be277ff2d85866c0c5fd4ccb8acd6e9e4969",
        ),
        (
            "24-7-4",
            (52, 4, 4, 0, 0),
            "bcc826e0b7c62d9b490661018c0a48d089824b08120b51e734abd49484c9f0aa",
        ),
        (
            "24-9-2",
            (5469, 254, 31, 12, 15),
            "46b3b169ccc2cccc3fa2b6604b3e86b3ad3aac55bcf4ec20eef41e49cec4c312",
        ),
    ],
)
def test_derived_order_24_searches_are_pinned(sid, counters, digest):
    _assert_found_as_pinned(sid, counters, digest)


@pytest.mark.parametrize(
    "sid,counters,digest",
    [
        (
            "48-13-10",
            (66048, 2479, 143, 63, 71),
            "391c3e52665289323e3e969101ac56103ffa8b9c55f7b506267d29a3fec24fb9",
        ),
        (
            "48-9-14",
            (180662, 2996, 277, 87, 182),
            "53734c9304d2c67f5c112828be6835cb3744600d98c505b321423071b4d683e9",
        ),
        (
            "48-7-16",
            (1033862, 8975, 929, 215, 707),
            "942874d1555ee29a5ebb76c7320589342a0e88bd6a1a7892c12705ed47da4d56",
        ),
        (
            "48-15-8",
            (1767163, 81353, 5048, 2525, 2516),
            "39e09e2950b3581818ca5efcfa0a61380f5d3c22d667867b61ac66efba3d10d9",
        ),
    ],
)
def test_derived_order_48_searches_are_pinned(sid, counters, digest):
    # the v=48 targets with (3, 1, G) and (4, 1, G) entries, where paths
    # that use up a factor's differences are charged without a scan, and
    # the two million-node finds; 48-17-6 and 48-5-18 are pinned in CI
    # (tests/search_long.py)
    _assert_found_as_pinned(sid, counters, digest)


def _assert_found_as_pinned(sid, counters, digest):
    # node counts and found documents may change only with a stated reason
    outcome = search_hwp(target_from_solution(load_solution(sid)))
    assert outcome.verdict == "found"
    assert _counters(outcome.stats) == counters
    text = canonical_json(outcome.solution)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("sid", ["24-5-6", "24-7-4", "24-9-2"])
def test_found_documents_are_fixed_points_of_the_document_pipeline(sid):
    # the searcher writes its base paths as found, so each must already be
    # a canonical cycle; dumped without sort_keys, key order counts too
    for target in _targets(sid, None):
        outcome = search_hwp(target)
        assert outcome.verdict == "found"
        again = solution_to_dict(parse_solution_dict(outcome.solution))
        assert json.dumps(again) == json.dumps(outcome.solution)


def _scan_states(monkeypatch, target):
    """Every scan a search of target makes in the frame of a cycle's
    penultimate vertex, which runs a closing scan in place for each of its
    candidates, as (idx, used, free, covered, fused, acc, picked, path and
    the masks carried with it)."""
    states = []
    scan = _Searcher._extend_cycle

    def capturing(self, idx, used, free, covered, fused, acc, picked, path, *carried):
        if len(path) + 2 == self.sig[idx].cycle_length:
            states.append((idx, used, free, covered, fused, acc, picked, tuple(path), *carried))
        scan(self, idx, used, free, covered, fused, acc, picked, path, *carried)

    with monkeypatch.context() as m:
        m.setattr(_Searcher, "_extend_cycle", capturing)
        search_hwp(target)
    return states


def _closing_states(target, parent):
    """The closing scans that the scan of state `parent` (see
    `_scan_states`) runs in place, one for each candidate u it visits
    unbounded, as the state of path + [u] that a separate scan of it
    would start from, built from the reference coset masks."""
    idx, used, free, covered, fused, acc, picked, path, path_mask, omega, vmask, *rest = parent
    G = target.group
    pairs = _tables(G)[0][path[-1]]
    cosets = coset_masks(G, entry_subgroups(target)[idx])
    return [
        (
            idx, used, free, covered, fused, acc, picked, (*path, u), path_mask | 1 << u,
            omega | pairs[u], vmask | cosets[u], *rest,
        )
        for u in range(len(G))
        if not (covered | path_mask) >> u & 1 and not pairs[u] & used
    ]


def _replay(cls, target, state):
    """The cycles the scan of state closes and `_extend_factor` does not
    refuse (`search_oracle.refuses`), in order, with the masks it hands
    on (the matrix of unused steps among them); the nodes and the cycles
    closed it charges; and every cycle it hands to `_extend_factor`, with
    whether it is refused there, under searcher class cls."""
    idx, used, free, covered, fused, acc, picked, path, *carried = state
    searcher = cls(target, SearchStats(), entry_subgroups(target))
    calls = []
    searcher._extend_factor = lambda *args: calls.append(args[:6])
    searcher._extend_cycle(idx, used, free, covered, fused, acc, picked, list(path), *carried)
    calls = [(c, refuses(searcher, c[0], c[3], c[4], picked)) for c in calls]
    closed = [c for c, refused in calls if not refused]
    return closed, searcher.stats.nodes, searcher.stats.cycles_closed, calls


@pytest.mark.parametrize(
    "sid,budget",
    [
        ("24-5-6", None),
        ("24-9-2", None),
        ("48-9-14", 30_000),
        ("48-9-14^seeded", 30_000),
        ("48-17-6", 20_000),
        ("48-7-16", 20_000),
    ],
)
def test_closing_scans_decide_like_the_one_by_one_scan(monkeypatch, sid, budget):
    # the bulk split of the closing scan, the stabilizers read off the
    # table, and the paths charged without a scan, against the scan that
    # tests every live candidate on its own and runs the kernel; sid^seeded
    # is a seeded conjugate of sid's target
    sid, _, g = sid.partition("^")
    target = target_from_solution(load_solution(sid), budget)
    if g:
        G = target.group
        target = _conjugate(target, random.Random(f"one-by-one-{sid}").randrange(len(G)))
    states = _scan_states(monkeypatch, target)
    unbounded = replace(target, budget_nodes=None)
    bits = set()
    for state in states:
        _replays_agree(unbounded, state)
        for (_, _, _, _, fused, acc), _ in _replay(_Searcher, unbounded, state)[3]:
            bits.add((fused ^ state[4]).bit_count() == 2 * len(acc[-1]))
    # both kinds of closed cycle occur: 2l-bit Omega and repeated pairs
    assert bits == {True, False}


def _replays_agree(target, state) -> list:
    """Assert that the scan of state closes the same cycles, charges the
    same nodes and counts the same cycles closed under the searcher as
    under the one-by-one scan, and that the cycles it does not hand to
    `_extend_factor` are refused ones; return them, as `_replay` lists
    them."""
    fast = _replay(_Searcher, target, state)
    slow = _replay(OneByOneSearcher, target, state)
    assert fast[:3] == slow[:3], state
    assert all(call in slow[3] for call in fast[3]), state
    left_out = [call for call in slow[3] if call not in fast[3]]
    assert all(refused for _, refused in left_out), state
    return left_out


def _refused_in_bulk(target, parent) -> set:
    """The paths of the closing scans, run in place by the scan of state
    `parent`, that refuse cycles in bulk, as `_replays_agree` finds them."""
    return {call[5][-1][:-1] for call, _ in _replays_agree(target, parent)}


@pytest.mark.parametrize(
    "sid,g,budget",
    [
        ("48-17-6", None, 8000),
        ("48-17-6", "seeded", 8000),
        ("48-15-8", None, 8000),
        ("48-15-8", "seeded", 8000),
        ("24-7-4", "a", None),
    ],
)
def test_closing_scans_refuse_covers_like_one_at_a_time(monkeypatch, sid, g, budget):
    # the generic closers that complete a factor's cover and that
    # _extend_factor would refuse are refused in bulk (see the search.py
    # module docstring), against the scan that hands each to _extend_factor;
    # each closing scan runs in place, so each is replayed through the
    # scan of its penultimate vertex
    target = target_from_solution(load_solution(sid), budget)
    G = target.group
    if g == "seeded":
        gs = random.Random(f"refusals-{sid}").sample(range(len(G)), 2)
        targets = [_conjugate(target, x) for x in gs]
    else:
        targets = [target if g is None else _conjugate(target, G.parse(g))]
    for target in targets:
        unbounded = replace(target, budget_nodes=None)
        fired = []  # (parent, state) for each closing scan that refuses in bulk
        for parent in _scan_states(monkeypatch, target):
            paths = _refused_in_bulk(unbounded, parent)
            fired += [(parent, s) for s in _closing_states(unbounded, parent) if s[7] in paths]
        assert fired  # the bulk path runs and refuses
        # and where it fires it leaves no generic closer to be refused one
        # at a time: each refused cycle _extend_factor still sees repeats a
        # pair, so it adds fewer than four differences to Omega(path)
        for parent, state in fired:
            omega = state[9]
            for (_, _, _, _, fused, acc), refused in _replay(_Searcher, unbounded, parent)[3]:
                if acc[-1][:-1] == state[7]:
                    assert not refused or (fused ^ state[4]).bit_count() < omega.bit_count() + 4
        # with one more orbit the same covers fall short of their
        # differences, and the bulk path refuses them on the count
        for parent, state in fired:
            idx = state[0]
            entries = list(target.entries)
            entries[idx] = replace(entries[idx], orbit_length=entries[idx].orbit_length + 1)
            assert state[7] in _refused_in_bulk(replace(unbounded, entries=tuple(entries)), parent)


def _closing_scans(monkeypatch, target):
    """Every closing scan a search of target runs in place, as its state
    (see `_closing_states`), the w it closed the found solution's cycle
    with, or None when no solution was found through it, and the state of
    the scan that ran it.  A scan that a budget stop cuts short counts as
    run whole."""
    scans = []
    scan = _Searcher._extend_cycle

    def capturing(self, idx, used, free, covered, fused, acc, picked, path, *carried):
        if len(path) + 2 != self.sig[idx].cycle_length:
            return scan(self, idx, used, free, covered, fused, acc, picked, path, *carried)
        parent = (idx, used, free, covered, fused, acc, picked, tuple(path), *carried)
        found = None  # the found cycle's last two vertices, when found through here
        try:
            scan(self, idx, used, free, covered, fused, acc, picked, path, *carried)
        except _Solved as hit:
            found = hit.picked[idx][0][len(acc)][-2:]
            raise
        finally:
            for state in _closing_states(target, parent):
                u = state[7][-1]
                if found is None or u < found[0]:
                    scans.append((state, None, parent))
                elif u == found[0]:
                    scans.append((state, found[1], parent))

    with monkeypatch.context() as m:
        m.setattr(_Searcher, "_extend_cycle", capturing)
        search_hwp(target)
    return scans


def _low_order_candidates(target, state, stop):
    """The closing candidates w of state, up to stop, that reach the
    stabilizer read: those above path[1] whose two new steps are unused,
    whose cycle fits the factor's differences, and whose stabilizer order
    2l / |Omega| is 2 or l; as (w, |Omega|)."""
    idx, used, _, covered, fused, _, _, path, path_mask, omega, *_ = state
    G, entry = target.group, target.entries[idx]
    pairs, length = _tables(G)[0], entry.cycle_length
    u, p0 = path[-1], path[0]
    found = []
    for w in range(path[1] + 1, len(G) if stop is None else stop + 1):
        if (covered | path_mask) >> w & 1 or (pairs[u][w] | pairs[p0][w]) & used:
            continue
        osize = (omega | pairs[u][w] | pairs[p0][w]).bit_count()
        fits = fused.bit_count() + osize <= 2 * entry.orbit_length
        if fits and (osize == 2 or osize == 4 == length):
            found.append((w, osize))
    return found


# per search to found: the order-2 candidates whose cycle i fixes and
# those it does not, and the one-pair candidates, counted at the kernel
# before the table reads replaced it
_LOW_ORDER_PINS = {
    "48-9-14": (54, 2703, 316),
    "48-13-10": (0, 792, 197),
    "24-5-6": (3, 8, 86),
    "24-9-2": (0, 0, 12),
    "24-7-4": (0, 2, 1),
}


@pytest.mark.parametrize(
    "sid",
    [
        *_LOW_ORDER_PINS,
        *(f"{sid}^seeded" for sid in SOLUTION_IDS if sid.startswith("48-")),
    ],
)
def test_low_order_candidates_read_their_stabilizer_off_the_table(monkeypatch, sid):
    # a closing candidate c = (p0, ..., p_{l-1}) of stabilizer order l has
    # Stab_G(c) = <p0^-1 * p1> and |Stab & S| = |c & p0*S|; one of order 2
    # (l = 4) has Stab_G(c) = {1, i} when p0 * i = p2 and p1 * i = p3, else
    # {1} (see the search.py module docstring): the kernel agrees on every
    # one the search meets, and the searcher decides each scan that holds
    # them like the one-by-one scan, which runs the kernel, through the
    # scan of its penultimate vertex; sid^seeded is a seeded conjugate of
    # sid's target under a budget
    sid, _, g = sid.partition("^")
    target = target_from_solution(load_solution(sid), 20_000 if g else None)
    G = target.group
    if g:
        target = _conjugate(target, random.Random(f"stabilizer-reads-{sid}").randrange(len(G)))
    T, inv, i, one = G.table, G.inv_table, G.unique_involution(), G.identity
    subs = entry_subgroups(target)
    cosets = [coset_masks(G, sub) for sub in subs]
    unbounded = replace(target, budget_nodes=None)
    counts = {"fixed": 0, "unfixed": 0, "one pair": 0}
    replayed = set()  # the scans that ran closing scans in place
    for state, stop, parent in _closing_scans(monkeypatch, target):
        idx, path = state[0], state[7]
        members = subs[idx].member_set
        met = _low_order_candidates(target, state, stop)
        for w, osize in met:
            c = (*path, w)
            stab = _stabilizer(G, [c], "cycle")
            if osize == 2:
                x = T[inv[c[0]]][c[1]]
                powers, k = {one}, x
                while k != one:
                    powers.add(k)
                    k = T[k][x]
                assert stab == powers, c
                mask = sum(1 << v for v in c)
                assert len(stab & members) == (mask & cosets[idx][c[0]]).bit_count(), c
                counts["one pair"] += 1
            else:
                turned = T[c[0]][i] == c[2] and T[c[1]][i] == c[3]
                assert stab == ({one, i} if turned else {one}), c
                assert len(stab & members) == (2 if turned and i in members else 1), c
                counts["fixed" if turned else "unfixed"] += 1
        if met and id(parent) not in replayed:
            replayed.add(id(parent))
            _replays_agree(unbounded, parent)
    if g:
        assert counts["one pair"] > 0
    else:
        assert tuple(counts.values()) == _LOW_ORDER_PINS[sid]


@pytest.mark.parametrize(
    "sid,budget,verdict,nodes",
    [("24-5-6", None, "found", 27_820), ("48-17-6", 500, "budget-exceeded", 501)],
    ids=["24-5-6", "48-17-6"],
)
def test_search_leaves_the_recursion_limit_alone(monkeypatch, sid, budget, verdict, nodes):
    def refuse(limit):
        raise AssertionError(f"search_hwp set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    extend_factor = _Searcher._extend_factor
    searcher_code = {
        extend_factor.__code__, _Searcher.entry_start.__code__, _Searcher._extend_cycle.__code__
    }
    depths = []

    def measuring(self, idx, used, free, covered, fused, acc, picked):
        if acc:  # called by the closing scan that closed acc[-1], in place
            frame, depth = sys._getframe(1), 0
            while frame is not None:
                depth += frame.f_code in searcher_code
                frame = frame.f_back
            # each entry before idx: its entry_start, l - 1 frames for each
            # sub-orbit and the _extend_factor of its complete cover; entry
            # idx: its entry_start and l - 1 frames for each sub-orbit so far
            done = sum(2 + len(a) * (e.cycle_length - 1) for e, (a, _) in zip(self.sig, picked))
            depths.append((depth, done + 1 + len(acc) * (self.sig[idx].cycle_length - 1)))
        extend_factor(self, idx, used, free, covered, fused, acc, picked)

    monkeypatch.setattr(_Searcher, "_extend_factor", measuring)
    target = target_from_solution(load_solution(sid), budget_nodes=budget)
    outcome = search_hwp(target)
    assert (outcome.verdict, outcome.stats.nodes) == (verdict, nodes)
    # the searcher frames below each in-place closing scan, itself included,
    # against the count above and the bound stated in search_hwp:
    # 2E + 3(v/2 - 1) + 1
    assert depths and all(depth == expected for depth, expected in depths)
    v = len(target.group)
    assert max(depths)[0] <= 2 * len(target.entries) + 3 * (v // 2 - 1) + 1


def test_budget_exceeded():
    doc = _target(budget={"nodes": 30})
    outcome = search_hwp(parse_target_dict(doc))
    assert outcome.verdict == "budget-exceeded"
    assert outcome.solution is None and outcome.certificate is None
    assert outcome.stats.nodes == 31  # stops on the first node past the budget


def test_a_target_built_in_code_naming_an_unknown_subgroup_is_refused():
    # with the document reader's message, not a KeyError from the lookup
    target = target_from_solution(load_solution("24-5-6"))  # SL23
    built = replace(target, entries=(SignatureEntry(3, 1, "S9"),))
    message = r"^signature\[0\]: unknown subgroup 'S9'$"
    with pytest.raises(TargetFormatError, match=message):
        search_hwp(built)
    doc = _target(signature=[{"cycle_length": 3, "orbit_length": 1, "subgroup": "S9"}])
    with pytest.raises(TargetFormatError, match=message):
        parse_target_dict(doc)


@pytest.mark.parametrize("budget", [-5, 0])
def test_a_target_built_in_code_with_a_budget_below_one_is_refused(budget):
    # a search under it could not stop at budget + 1 nodes
    target = replace(target_from_solution(load_solution("24-9-2")), budget_nodes=budget)
    message = r"^budget\.nodes must be positive$"
    with pytest.raises(TargetFormatError, match=message):
        search_hwp(target)
    with pytest.raises(TargetFormatError, match=message):
        parse_target_dict(_target(budget={"nodes": budget}))


def _random_target(rng, gid):
    """A random, usually infeasible, always well-formed target document."""
    pools = {
        "Q24": ["a", "b", "a2", "a3", "a4", "a6", "a2b", "a3b"],
        "SL23": [
            "[[0,2],[1,0]]",
            "[[1,1],[1,2]]",
            "[[0,1],[2,1]]",
            "[[2,0],[0,2]]",
            "[[1,1],[0,1]]",
        ],
    }
    G = build_group(gid)
    sub_gens = {name: rng.sample(pools[gid], rng.randint(1, 2)) for name in ("A", "B")}
    orders = {
        name: G.subgroup_closure([G.parse(t) for t in gens]).order
        for name, gens in sub_gens.items()
    }
    orders["G"] = len(G)
    entries = []
    for _ in range(rng.randint(1, 6)):
        name = rng.choice(("A", "B", "G"))
        orbit = len(G) // orders[name]
        if rng.random() < 0.2:
            orbit = max(1, orbit + rng.choice((-1, 1)))  # often inconsistent
        entries.append(
            {
                "cycle_length": rng.choice((3, 3, 4, 4, 5)),
                "orbit_length": orbit,
                "subgroup": name,
            }
        )
    r = sum(e["orbit_length"] for e in entries if e["cycle_length"] == 3)
    s = sum(e["orbit_length"] for e in entries if e["cycle_length"] == 4)
    if rng.random() < 0.3:
        r += rng.choice((-1, 1))  # often miscounted
    return parse_target_dict(
        {
            "group": gid,
            "target": {"r": max(r, 0), "s": s},
            "signature": entries,
            "subgroups": sub_gens,
            "budget": {"nodes": 3000},
        }
    )


def _seeded_target(rng, spec):
    """A feasible signature lifted from a known solution, sometimes broken."""
    target = target_from_solution(spec, budget_nodes=3000)
    if rng.random() < 0.5:
        entries = list(target.entries)
        k = rng.randrange(len(entries))
        e = entries[k]
        if rng.random() < 0.5:
            bad = SignatureEntry(7 - e.cycle_length, e.orbit_length, e.subgroup)
        else:
            bad = SignatureEntry(e.cycle_length, e.orbit_length + 1, e.subgroup)
        entries[k] = bad
        target = replace(target, entries=tuple(entries))
    return target


def test_fuzzed_targets_keep_the_outcome_contract():
    rng = random.Random("fuzz-targets")
    bases = {
        "Q24": (load_solution("24-7-4"), load_solution("24-9-2")),
        "SL23": (load_solution("24-5-6"),),
    }
    verdicts = set()
    for trial in range(50):
        gid = rng.choice(("Q24", "SL23"))
        if rng.random() < 0.5:
            target = _seeded_target(rng, rng.choice(bases[gid]))
        else:
            target = _random_target(rng, gid)
        outcome = search_hwp(target)
        assert outcome.verdict in ("found", "exhausted", "budget-exceeded"), trial
        verdicts.add(outcome.verdict)
        if outcome.reason is not None:
            assert outcome.verdict == "exhausted"
        if outcome.verdict == "found":
            # never an unverifiable solution
            assert outcome.certificate is not None and outcome.certificate.ok
            assert verify_solution(parse_solution_dict(outcome.solution)).ok
        else:
            assert outcome.solution is None
    # the generator must exercise every outcome path
    assert verdicts == {"found", "exhausted", "budget-exceeded"}
