"""Cycles, orbits, stabilizers, differences, and the two core checkers."""

import random

import pytest

import action_oracle as oracle
from helpers import cycle_from_texts, element_order, power, verify_orbit_decomposition
from hwpreg.cycles import (
    CycleError,
    _stabilizer,
    cycle,
    cycle_orbit,
    cycle_stabilizer,
    omega_representatives,
    partial_differences,
    translate_cycle,
    verify_partition,
)
from hwpreg.groups import GROUP_IDS, build_group
from hwpreg.solutions import SOLUTION_IDS, load_solution


def _q(texts):
    G = build_group("Q24")
    return G, cycle_from_texts(G, texts)


def test_cycle_canonical_under_rotation_and_reflection():
    G = build_group("Q24")
    verts = [G.parse(t) for t in ("1", "a", "a4b")]
    base = cycle(G, verts)
    assert cycle(G, verts[1:] + verts[:1]) == base
    assert cycle(G, verts[::-1]) == base
    assert base.length == 3
    assert frozenset(base.verts) == frozenset(verts)


def test_cycle_validation():
    G = build_group("Q24")
    with pytest.raises(CycleError):
        cycle(G, [0, 1])
    with pytest.raises(CycleError):
        cycle(G, [0, 1, 99])
    with pytest.raises(CycleError, match="repeated vertex a"):
        cycle_from_texts(G, ["1", "a", "a"])


def test_cycle_format_lists_vertices():
    G, c = _q(["1", "a", "a4b"])
    text = c.format()
    assert text.startswith("(") and text.endswith(")") and "a4b" in text


def test_translation_is_a_right_action():
    G, c = _q(["1", "a", "a4b"])
    rng = random.Random(11)
    for _ in range(50):
        x, y = rng.randrange(24), rng.randrange(24)
        assert translate_cycle(translate_cycle(c, x), y) == translate_cycle(
            c, G.mul(x, y)
        )
    assert translate_cycle(c, G.identity) == c


def test_coset_cycle_stabilizer_is_its_vertex_set():
    G, c = _q(["1", "a3", "a6", "a9"])  # the subgroup generated by a3
    stab = cycle_stabilizer(c)
    assert stab.member_set == frozenset(c.verts)


def test_generic_cycle_stabilizer_is_trivial():
    G, c = _q(["1", "a", "a4b"])
    assert cycle_stabilizer(c).order == 1


def test_cycle_orbit_sizes_and_membership():
    G, c = _q(["1", "a", "a4b"])
    whole = G.whole_subgroup()
    orb = cycle_orbit(c, whole)
    assert len(orb) == 24 and orb.stabilizer.order == 1
    assert c in orb.cycles
    sub = G.subgroup_closure([G.parse("b")])
    orb_h = cycle_orbit(c, sub)
    assert len(orb_h) * orb_h.stabilizer.order == sub.order


def test_forward_differences_and_closure():
    G, c = _q(["1", "a", "a2"])
    # canonical rotation may reverse orientation; compare as multisets
    diffs = oracle.forward_differences(c)
    assert sorted(diffs) in (
        sorted([G.parse("a"), G.parse("a"), G.parse("a10")]),
        sorted([G.parse("a11"), G.parse("a11"), G.parse("a2")]),
    )
    omega = partial_differences(c)
    assert omega == {
        G.parse("a"),
        G.parse("a11"),
        G.parse("a2"),
        G.parse("a10"),
    }


def test_omega_representatives_cover_each_pair_once():
    # and list the pairs in the order the edge-by-edge walk first meets them
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        G = spec.group
        for c in spec.cycles.values():
            reps = omega_representatives(c)
            closure = set()
            for d in reps:
                assert d not in closure  # one member per inverse pair
                closure.update((d, G.inv(d)))
            assert closure == partial_differences(c)
            walk, first = oracle.forward_differences(c), []
            for d in walk:
                if d not in first and G.inv(d) not in first:
                    first.append(d)
            assert reps == first
            assert closure == {x for d in walk for x in (d, G.inv(d))}


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_orbit_stabilizer_on_random_cycles(gid):
    G = build_group(gid)
    n = len(G)
    rng = random.Random(f"orbit-{gid}")
    pools = [G.whole_subgroup(), G.subgroup_closure([])]
    pools.append(G.subgroup_closure([rng.randrange(n)]))
    for _ in range(100):
        length = rng.choice((3, 4, 5, 6))
        verts = rng.sample(range(n), length)
        c = cycle(G, verts)
        sub = rng.choice(pools)
        orb = cycle_orbit(c, sub)
        assert len(orb) * orb.stabilizer.order == sub.order
        assert orb.stabilizer.member_set <= sub.member_set


def _symmetric_path(G, rng, length):
    """A vertex path whose cycle some x != 1 fixes, or None: m = l/k random
    vertices p_j and an x of order k, either rotated (p, p*x, p*x^2, ...)
    or, for the involution, reflected (p, reversed p*i)."""
    orders = [k for k in (2, 3, 4, 6) if length % k == 0]
    if not orders:
        return None
    k = rng.choice(orders)
    x = rng.choice([x for x in range(len(G)) if element_order(G, x) == k])
    ps = rng.sample(range(len(G)), length // k)
    if k == 2 and rng.random() < 0.5:
        path = ps + [G.mul(p, x) for p in reversed(ps)]
    else:
        path = [G.mul(p, power(G, x, e)) for e in range(k) for p in ps]
    return path if len(set(path)) == length else None


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_cycle_stabilizer_matches_brute_force(gid):
    # the at most l candidates vs[0]^-1 * w, w on the cycle, against every
    # x in G, on random cycles and on cycles built with a symmetry; also for
    # paths not in canonical order (the searcher's) and inside a subgroup
    G = build_group(gid)
    n = len(G)
    rng = random.Random(17)
    seen = set()
    for trial in range(400):
        length = rng.choice((3, 4, 5, 6))
        path = rng.sample(range(n), length) if trial % 2 else _symmetric_path(G, rng, length)
        if path is None:
            continue
        c = cycle(G, path)
        brute = {x for x in range(n) if translate_cycle(c, x) == c}
        assert cycle_stabilizer(c).member_set == brute, c
        assert _stabilizer(G, [path], "cycle") == brute
        sub = G.subgroup_closure([rng.randrange(n)]).member_set
        assert _stabilizer(G, [path], "cycle") & sub == brute & sub
        seen.add(len(brute))
    assert seen >= {1, 2, 3}


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_cycle_kernel_cut_to_named_subgroups_matches_brute_force(gid):
    # Stab_S(c) as _tile and cycle_orbit take it, the kernel's
    # Stab_G(c) cut down to S, against every x in S re-canonicalised, for G
    # and every subgroup a bundled document over the group names, on seeded
    # random cycles and on cycles built with a symmetry
    G = build_group(gid)
    n = len(G)
    subs = {G.whole_subgroup()}
    for spec in map(load_solution, SOLUTION_IDS):
        if spec.group is G:
            subs.update(spec.subgroups.values())
            subs.update(recipe.subgroup for recipe in spec.factors)
    rng = random.Random(f"kernel-cut-{gid}")
    paths = []
    if gid == "Q24":
        a4 = G.parse("a4")  # (1, a4, a8) is fixed by <a4>, of order 3
        paths.append([G.identity, a4, G.mul(a4, a4)])
    while len(paths) < 200:
        length = rng.choice((3, 4, 5, 6))
        path = rng.sample(range(n), length) if len(paths) % 2 else _symmetric_path(G, rng, length)
        if path is not None:
            paths.append(path)
    seen = set()
    for path in paths:
        c = cycle(G, path)
        stab = _stabilizer(G, [path], "cycle")
        for sub in subs:
            brute = {x for x in sub.members if oracle.translate_cycle(c, x) == c}
            assert stab & sub.member_set == brute, (path, sub)
            seen.add(len(brute))
    assert len(subs) > 1 and seen >= {1, 2, 3}
    if gid == "Q24":
        assert len(_stabilizer(G, [paths[0]], "cycle")) == 3


def test_partial_differences_translation_invariant_on_bundled_cycles():
    for sid in ("24-9-2", "48-5-18"):
        spec = load_solution(sid)
        G = spec.group
        for c in spec.cycles.values():
            omega = partial_differences(c)
            assert G.identity not in omega
            assert {G.inv(d) for d in omega} == omega
            for x in range(len(G)):
                assert partial_differences(translate_cycle(c, x)) == omega


def test_verify_orbit_decomposition_accepts_bundled_cycles():
    spec = load_solution("24-9-2")
    for c in spec.cycles.values():
        report = verify_orbit_decomposition(c)
        assert report.ok, report.message
        assert report.edges_seen == report.edges_expected


def test_verify_orbit_decomposition_flags_duplicates():
    # two edges of the cycle share the difference a, so every a-edge of
    # the Cayley graph is covered twice by the full orbit
    G, c = _q(["1", "a", "a2", "a4"])
    report = verify_orbit_decomposition(c)
    assert not report.ok
    assert report.witness is not None
    assert "more than once" in report.message


def _mask(members):
    return sum(1 << x for x in members)


def test_verify_partition_on_a_solution():
    spec = load_solution("48-5-18")
    omegas = [_mask(partial_differences(c)) for c in spec.cycles.values()]
    assert omegas == [c._omega for c in spec.cycles.values()]
    assert verify_partition(spec.group, omegas) == (46, None)


def test_verify_partition_witnesses():
    spec = load_solution("48-5-18")
    G = spec.group
    omegas = [c._omega for c in spec.cycles.values()]
    first = min(partial_differences(next(iter(spec.cycles.values()))))
    missing = {"kind": "difference-missing", "element": G.format(first)}
    assert verify_partition(G, omegas[1:]) == (46 - omegas[0].bit_count(), missing)
    overlap = {"kind": "difference-overlap", "element": G.format(first), "count": 2}
    assert verify_partition(G, omegas + [omegas[0]]) == (46, overlap)
    involution = G.unique_involution()
    forbidden = {"kind": "difference-forbidden", "element": G.format(involution)}
    assert verify_partition(G, omegas + [1 << involution]) == (47, forbidden)
