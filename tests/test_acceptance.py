"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success).

Every check here recomputes its facts from scratch where that is
practical, rather than trusting intermediate library state.
"""

import itertools
import random
import time
from collections import Counter
from dataclasses import replace

from hwpreg.cayley import cocktail_party_graph
from hwpreg.cycles import (
    cycle,
    cycle_orbit,
    cycle_stabilizer,
    partial_differences,
    translate_cycle,
    verify_partition,
)
from hwpreg.factors import assemble_factor, factor_orbit, factor_stabilizer
from hwpreg.groups import GROUP_IDS, build_group
from hwpreg.search import (
    SignatureEntry,
    parse_target_dict,
    search_hwp,
    target_from_solution,
)
from hwpreg.solutions import (
    SOLUTION_IDS,
    load_solution,
    parse_solution_dict,
    resolve_subgroup,
    verify_solution,
)

# factor orbit lengths per solution, in document order
EXPECTED_ORBITS = {
    "48-5-18": [3, 1, 1, 1, 1, 4, 4, 4, 4],
    "48-7-16": [3, 3, 1, 4, 4, 4, 4],
    "48-9-14": [3, 3, 3, 4, 4, 4, 1, 1],
    "48-13-10": [3, 3, 3, 3, 1, 4, 4, 1, 1],
    "48-15-8": [3, 3, 3, 3, 3, 4, 4],
    "48-17-6": [3, 3, 3, 3, 3, 1, 1, 1, 1, 4],
    "24-7-4": [3, 3, 1, 4],
    "24-9-2": [1, 1, 3, 6],
    "24-5-6": [3, 1, 1, 1, 1, 4],
}

EXPECTED_SUBGROUP_ORDERS = {"2O": {16, 12}, "Q24": {4, 6, 8}, "SL23": {8, 6}}

# the paper's stabilizer claims: these cycles are stabilized by their own
# vertex set (a subgroup), and every other base cycle only by the identity
VERTEX_STABILIZED = {
    "48-5-18": {"C2", "C3", "C4", "C5"},
    "48-7-16": {"C3"},
    "48-9-14": {"C7", "C8"},
    "48-13-10": {"C5", "C8", "C9"},
    "48-15-8": set(),
    "48-17-6": {"C6", "C7", "C8", "C9"},
    "24-7-4": {"C3"},
    "24-9-2": {"C1", "C2"},
    "24-5-6": {"C2", "C3", "C4", "C5"},
}

# the subgroup member lists the paper prints, in its order
_Q24_MEMBERS = {
    "H": ["1", "b", "a6", "a6b"],
    "K": ["1", "a2", "a4", "a6", "a8", "a10"],
    "L": ["1", "a3", "a6", "a9", "a2b", "a8b", "a5b", "a11b"],
}
SUBGROUP_MEMBERS = {
    "24-7-4": _Q24_MEMBERS,
    "24-9-2": _Q24_MEMBERS,
    "24-5-6": {
        "Q": [
            "[[1,0],[0,1]]", "[[2,0],[0,2]]", "[[1,1],[1,2]]", "[[2,2],[2,1]]",
            "[[0,2],[1,0]]", "[[0,1],[2,0]]", "[[1,2],[2,2]]", "[[2,1],[1,1]]",
        ],
        "H": [
            "[[1,0],[0,1]]", "[[0,1],[2,1]]", "[[2,1],[2,0]]",
            "[[2,0],[0,2]]", "[[0,2],[1,2]]", "[[1,2],[1,0]]",
        ],
    },
}


def _report(number, name, ok, detail=""):
    print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail


def test_acceptance_1_nine_certificates():
    started = time.perf_counter()
    problems = []
    for sid in SOLUTION_IDS:
        cert = verify_solution(load_solution(sid))
        v, r, s = (int(x) for x in sid.split("-"))
        if not cert.ok:
            problems.append(f"{sid}: {cert.failure} {cert.witness}")
        if (cert.v, cert.r, cert.s) != (v, r, s):
            problems.append(f"{sid}: certificate says {(cert.v, cert.r, cert.s)}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"nine verifications took {elapsed:.2f}s (budget 5s)")
    _report(1, "nine-certificates", not problems, "; ".join(problems))


def _recount_edges(spec):
    """Edge multiset of a solution, recomputed from group arithmetic only.

    The full factorization is the union, over every base cycle, of all
    its distinct right translates; each distinct translate contributes
    its edges once.
    """
    G = spec.group
    counts = Counter()
    for c in spec.cycles.values():
        translates = set()
        for g in range(len(G)):
            shifted = tuple(G.mul(v, g) for v in c.verts)
            translates.add(
                frozenset(
                    (min(x, y), max(x, y))
                    for x, y in zip(shifted, shifted[1:] + shifted[:1])
                )
            )
        for edge_set in translates:
            counts.update(edge_set)
    return counts


def _covers_each_edge_once(spec):
    counts = _recount_edges(spec)
    expected = cocktail_party_graph(spec.group).edges
    return set(counts) == set(expected) and all(k == 1 for k in counts.values())


def test_acceptance_2_edge_coverage():
    problems = []
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        expected = cocktail_party_graph(spec.group).edges
        counts = _recount_edges(spec)
        total = len(spec.group) * (len(spec.group) - 2) // 2
        if len(expected) != total:
            problems.append(f"{sid}: host graph has {len(expected)} edges")
        foreign = set(counts) - expected
        uncovered = expected - set(counts)
        duplicated = {e for e, k in counts.items() if k != 1}
        if foreign or uncovered or duplicated:
            problems.append(
                f"{sid}: foreign={len(foreign)} uncovered={len(uncovered)} "
                f"duplicated={len(duplicated)}"
            )
    _report(2, "edge-coverage", not problems, "; ".join(problems))


def test_acceptance_3_difference_partition():
    problems = []
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        union, witness = verify_partition(
            spec.group, [sum(1 << x for x in partial_differences(c)) for c in spec.cycles.values()]
        )
        if witness is not None or union != len(spec.group) - 2:
            problems.append(f"{sid}: partition union={union} witness={witness}")
        for om in verify_solution(spec).omega:
            if om.match is None:
                continue
            if not om.match or om.only_recomputed or om.only_printed:
                problems.append(
                    f"{sid}/{om.cycle_name}: +{list(om.only_recomputed)} "
                    f"-{list(om.only_printed)}"
                )
    _report(3, "difference-partition", not problems, "; ".join(problems))


def test_acceptance_4_stabilizers_and_orbits():
    problems = []
    member_claims = 0
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        G = spec.group
        for cn, c in spec.cycles.items():
            stab = set(cycle_stabilizer(c).members)
            want = set(c.verts) if cn in VERTEX_STABILIZED[sid] else {G.identity}
            if stab != want:
                problems.append(f"{sid}/{cn}: stabilizer {stab}, claimed {want}")
        for sn, texts in SUBGROUP_MEMBERS.get(sid, {}).items():
            member_claims += 1
            if sorted(G.parse(t) for t in texts) != list(spec.subgroups[sn].members):
                problems.append(f"{sid}/{sn}: claimed members {list(texts)}")
        orbits = []
        for recipe in spec.factors:
            f = assemble_factor(G, recipe)
            declared = resolve_subgroup(spec, recipe.subgroup_name)
            if factor_stabilizer(f).member_set != declared.member_set:
                problems.append(f"{sid}/{recipe.label}: stabilizer != {recipe.subgroup_name}")
            orbits.append(len(factor_orbit(f)))
        if orbits != EXPECTED_ORBITS[sid]:
            problems.append(f"{sid}: orbit lengths {orbits}")
    if not set(EXPECTED_ORBITS["48-5-18"]) <= {3, 1, 4}:
        problems.append("48-5-18 orbit lengths outside {3, 1, 4}")
    if member_claims != 8:  # 24-7-4 and 24-9-2: H, K, L; 24-5-6: Q, H
        problems.append(f"{member_claims} subgroup member claims checked, expected 8")
    _report(4, "stabilizers-and-orbits", not problems, "; ".join(problems))


def test_acceptance_5_group_axioms():
    problems = []
    for gid in GROUP_IDS:
        G = build_group(gid)
        n = len(G)
        t = G.table
        e = G.identity
        if not all(
            t[t[x][y]][z] == t[x][t[y][z]]
            for x, y, z in itertools.product(range(n), repeat=3)
        ):
            problems.append(f"{gid}: associativity")
        if any(t[e][x] != x or t[x][e] != x for x in range(n)):
            problems.append(f"{gid}: identity")
        for x in range(n):
            if sum(1 for y in range(n) if t[x][y] == e) != 1:
                problems.append(f"{gid}: inverse of {G.format(x)}")
        involutions = [x for x in range(n) if x != e and t[x][x] == e]
        central = [x for x in involutions if all(t[x][g] == t[g][x] for g in range(n))]
        if len(involutions) != 1 or central != involutions:
            problems.append(f"{gid}: involutions {involutions}, central {central}")
        if G.unique_involution() not in central:
            problems.append(f"{gid}: unique_involution() disagrees")
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        orders = {resolve_subgroup(spec, n).order for n in spec.subgroups}
        if orders != EXPECTED_SUBGROUP_ORDERS[spec.group.id]:
            problems.append(f"{sid}: subgroup orders {sorted(orders)}")
    _report(5, "group-axioms", not problems, "; ".join(problems))


def test_acceptance_6_action_invariants():
    problems = []
    for gid in GROUP_IDS:
        G = build_group(gid)
        rng = random.Random(f"acceptance-{gid}")
        subs = [G.whole_subgroup(), G.subgroup_closure([])]
        for _ in range(100):
            length = rng.randint(3, 6)
            c = cycle(G, rng.sample(range(len(G)), length))
            sub = rng.choice(subs + [G.subgroup_closure([rng.randrange(len(G))])])
            orb = cycle_orbit(c, sub)
            if len(orb) * orb.stabilizer.order != sub.order:
                problems.append(f"{gid}: orbit-stabilizer on {c.format()}")
        for idx in range(len(G)):
            if G.parse(G.format(idx)) != idx:
                problems.append(f"{gid}: round trip of index {idx}")
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        G = spec.group
        for cn, c in spec.cycles.items():
            base = partial_differences(c)
            for g in range(len(G)):
                if partial_differences(translate_cycle(c, g)) != base:
                    problems.append(f"{sid}/{cn}: differences move under {G.format(g)}")
                    break
    _report(6, "action-invariants", not problems, "; ".join(problems))


def _fuzz_target(rng):
    """A well-formed random target; sometimes a perturbed known-good one."""
    bases = {
        "Q24": ("24-7-4", "24-9-2"),
        "SL23": ("24-5-6",),
    }
    gid = rng.choice(("Q24", "SL23"))
    if rng.random() < 0.5:
        target = target_from_solution(
            load_solution(rng.choice(bases[gid])), budget_nodes=3000
        )
        if rng.random() < 0.5:
            entries = list(target.entries)
            k = rng.randrange(len(entries))
            e = entries[k]
            entries[k] = SignatureEntry(7 - e.cycle_length, e.orbit_length, e.subgroup)
            target = replace(target, entries=tuple(entries))
        return target
    pools = {
        "Q24": ["a", "b", "a2", "a3", "a4", "a6", "a2b"],
        "SL23": ["[[0,2],[1,0]]", "[[1,1],[1,2]]", "[[0,1],[2,1]]", "[[1,1],[0,1]]"],
    }
    G = build_group(gid)
    sub_gens = {"A": rng.sample(pools[gid], rng.randint(1, 2))}
    order = G.subgroup_closure([G.parse(t) for t in sub_gens["A"]]).order
    entries = []
    for _ in range(rng.randint(1, 5)):
        name = rng.choice(("A", "G"))
        orbit = len(G) // (order if name == "A" else len(G))
        entries.append(
            {
                "cycle_length": rng.choice((3, 4)),
                "orbit_length": max(1, orbit + rng.choice((0, 0, 1))),
                "subgroup": name,
            }
        )
    r = sum(e["orbit_length"] for e in entries if e["cycle_length"] == 3)
    s = sum(e["orbit_length"] for e in entries if e["cycle_length"] == 4)
    return parse_target_dict(
        {
            "group": gid,
            "target": {"r": r, "s": s},
            "signature": entries,
            "subgroups": sub_gens,
            "budget": {"nodes": 3000},
        }
    )


def test_acceptance_7_search_rediscovery():
    problems = []
    doc = {
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
    started = time.perf_counter()
    outcome = search_hwp(parse_target_dict(doc))
    elapsed = time.perf_counter() - started
    if outcome.verdict != "found":
        problems.append(f"verdict {outcome.verdict} ({outcome.reason})")
    elif not verify_solution(parse_solution_dict(outcome.solution)).ok:
        problems.append("found solution does not verify")
    if outcome.stats.nodes >= 10_000_000:
        problems.append(f"{outcome.stats.nodes} nodes")
    if elapsed >= 60.0:
        problems.append(f"{elapsed:.1f}s (budget 60s)")
    rng = random.Random("acceptance-fuzz")
    for trial in range(50):
        fuzzed = search_hwp(_fuzz_target(rng))
        if fuzzed.verdict == "found":
            if not verify_solution(parse_solution_dict(fuzzed.solution)).ok:
                problems.append(f"fuzz trial {trial}: unverifiable solution")
        elif fuzzed.solution is not None:
            problems.append(f"fuzz trial {trial}: solution without found verdict")
    _report(7, "search-rediscovery", not problems, "; ".join(problems))


# Swapping the identity vertex for the central involution in these cycles
# produces an equivalent twin solution (the involution lies in the acting
# subgroup and the seam differences square to it), so a correct verifier
# must accept the swap.  Confirmed below by the independent edge recount.
KNOWN_TWINS = {
    ("48-5-18", "C6", 0),
    ("48-7-16", "C4", 0),
    ("48-9-14", "C5", 0),
    ("48-17-6", "C4", 0),
}


def test_acceptance_8_corruption_detection(raw_docs, doc_copy):
    problems = []
    checked = 0
    twins = set()
    for sid in SOLUTION_IDS:
        group = load_solution(sid).group
        for cn, verts in raw_docs[sid]["cycles"].items():
            # compare by element, not by text: the data files spell some
            # elements differently than the formatter does
            used = {group.parse(t) for t in verts}
            absent = [
                group.format(idx) for idx in range(len(group)) if idx not in used
            ]
            for pos in range(len(verts)):
                doc = doc_copy(sid)
                doc["cycles"][cn][pos] = absent[0]
                cert = verify_solution(parse_solution_dict(doc))
                checked += 1
                if cert.ok:
                    # acceptable only for a genuine twin solution; make the
                    # verifier prove it against the independent recount, then
                    # demand a different corruption of the same vertex fail
                    if not _covers_each_edge_once(parse_solution_dict(doc)):
                        problems.append(f"{sid}/{cn}[{pos}]: accepted a non-tiling")
                        continue
                    twins.add((sid, cn, pos))
                    doc = doc_copy(sid)
                    doc["cycles"][cn][pos] = absent[1]
                    cert = verify_solution(parse_solution_dict(doc))
                    checked += 1
                if cert.ok:
                    problems.append(f"{sid}/{cn}[{pos}]: still verifies")
                elif not (cert.witness or cert.failure):
                    problems.append(f"{sid}/{cn}[{pos}]: no witness")
    if twins != KNOWN_TWINS:
        problems.append(f"unexpected twin set {sorted(twins)}")
    if checked < 150:
        problems.append(f"only {checked} corruptions exercised")
    _report(8, "corruption-detection", not problems, "; ".join(problems))
