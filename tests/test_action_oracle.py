"""The table-driven stabilizers, orbits and searcher masks agree with the
slow reference, the difference-code stabilizer kernel agrees with the
neighbour-map one, and the closed-path masks and stabilizer shortcuts
of the slow-path searcher (`search_oracle.py`), which the searcher is
checked against node by node, agree with both."""

import random

import pytest

import action_oracle as oracle
from helpers import element_order, power
from search_oracle import SlowSearcher, entry_subgroups
from hwpreg.cycles import _stabilizer, _vertex_codes, cycle, cycle_orbit, cycle_stabilizer
from hwpreg.factors import assemble_factor, factor_orbit, factor_stabilizer
from hwpreg.groups import GROUP_IDS, build_group
from hwpreg.search import SearchStats, SearchTarget, SignatureEntry
from hwpreg.solutions import SOLUTION_IDS, load_solution, resolve_subgroup


def assert_kernel_agrees(G, paths, what="family"):
    got = _stabilizer(G, _vertex_codes(G, paths), what)
    assert got == oracle.neighbour_map_stabilizer(G, paths, what), paths
    return got


def assert_cycle_agrees(c, subs):
    assert cycle_stabilizer(c) == oracle.cycle_stabilizer(c)
    for sub in subs:
        got, want = cycle_orbit(c, sub), oracle.cycle_orbit(c, sub)
        assert got.cycles == want.cycles
        assert got.stabilizer == want.stabilizer
        assert (got.base, got.subgroup) == (want.base, want.subgroup)


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_bundled_cycles_match_oracle(sid):
    spec = load_solution(sid)
    subs = [resolve_subgroup(spec, name) for name in ["G", *spec.subgroups]]
    for c in spec.cycles.values():
        assert_cycle_agrees(c, subs)


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_bundled_factors_match_oracle(sid):
    spec = load_solution(sid)
    for recipe in spec.factors:
        f = assemble_factor(spec.group, recipe)
        assert factor_stabilizer(f) == oracle.factor_stabilizer(f)
        assert factor_orbit(f) == oracle.factor_orbit(f)


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_kernel_matches_neighbour_map_on_bundled_cycles_and_factors(sid):
    spec = load_solution(sid)
    G = spec.group
    for c in spec.cycles.values():
        assert_kernel_agrees(G, (c.verts,), "cycle")
    for recipe in spec.factors:
        assert_kernel_agrees(G, assemble_factor(G, recipe).key(), "factor")


def _presented(rng, path):
    """path from a random start vertex, in a random direction."""
    r = rng.randrange(len(path))
    seq = list(path[r:] + path[:r])
    return seq[::-1] if rng.random() < 0.5 else seq


def _cut(rng, verts):
    """verts cut into consecutive paths of length 3 to 6."""
    paths, i = [], 0
    while len(verts) - i >= 3:
        k = rng.choice([k for k in range(3, 7) if len(verts) - i - k not in (1, 2)])
        paths.append(verts[i:i + k])
        i += k
    return paths


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_kernel_matches_neighbour_map_on_random_families(gid):
    G = build_group(gid)
    n = len(G)
    rng = random.Random(f"kernel-{gid}")
    for k in range(300):
        verts = rng.sample(range(n), n if k % 3 == 0 else rng.randint(3, n - 3))
        assert_kernel_agrees(G, _cut(rng, verts))
    # the translates of one path by a subgroup S, when they are disjoint,
    # are fixed by S; alone and next to an unrelated path
    fixed = 0
    while fixed < 100:
        S = G.subgroup_closure(rng.sample(range(n), rng.randint(1, 2)))
        path = rng.sample(range(n), rng.randint(3, 6))
        family = [[G.mul(v, x) for v in path] for x in S.members]
        if len({v for p in family for v in p}) < len(path) * S.order:
            continue
        family = [_presented(rng, p) for p in family]
        assert S.member_set <= assert_kernel_agrees(G, family)
        rest = [v for v in range(n) if all(v not in p for p in family)]
        if len(rest) >= 3:
            extra = rng.sample(rest, rng.randint(3, min(6, len(rest))))
            assert_kernel_agrees(G, family + [extra])
        fixed += 1


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_kernel_matches_neighbour_map_on_coset_cycles(gid):
    # the right cosets <a>b, each walked as (b, a*b, a^2*b, ...), together
    # are fixed by every element; one of them is fixed by b^-1 * <a> * b
    G = build_group(gid)
    n = len(G)
    rng = random.Random(f"kernel-coset-{gid}")
    for a in range(n):
        k = element_order(G, a)
        if k < 3:
            continue
        cosets, seen = [], set()
        for b in range(n):
            if b not in seen:
                cosets.append([G.mul(power(G, a, i), b) for i in range(k)])
                seen.update(cosets[-1])
        assert len(assert_kernel_agrees(G, [cosets[0]])) >= k
        family = [_presented(rng, p) for p in cosets]
        assert assert_kernel_agrees(G, family) == set(range(n))
        assert_kernel_agrees(G, family[: rng.randint(1, len(family) - 1)])


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_random_cycles_match_oracle(gid):
    G = build_group(gid)
    n = len(G)
    rng = random.Random(f"action-{gid}")
    subs = [G.whole_subgroup(), G.subgroup_closure([])]
    for _ in range(4):
        subs.append(G.subgroup_closure([rng.randrange(n)]))
        subs.append(G.subgroup_closure(rng.sample(range(n), 2)))
    for _ in range(150):
        c = cycle(G, rng.sample(range(n), rng.randint(3, 8)))
        assert_cycle_agrees(c, rng.sample(subs, 3))


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_coset_cycles_match_oracle(gid):
    # (b, a*b, a^2*b, ...) is fixed by b^-1*a*b, so its stabilizer is not trivial
    G = build_group(gid)
    n = len(G)
    rng = random.Random(f"coset-{gid}")
    subs = [G.whole_subgroup(), G.subgroup_closure([])]
    subs += [G.subgroup_closure(rng.sample(range(n), 2)) for _ in range(3)]
    for a in range(n):
        k = element_order(G, a)
        if k < 3:
            continue
        b = rng.randrange(n)
        c = cycle(G, [G.mul(power(G, a, i), b) for i in range(k)])
        conj = G.mul(G.mul(G.inv(b), a), b)
        assert conj in cycle_stabilizer(c)
        assert cycle_stabilizer(c).order >= k
        assert_cycle_agrees(c, subs + [G.subgroup_closure([conj])])


def _searcher(G, subgroups):
    """A slow-path searcher with one entry per subgroup, G first: entry k
    acts by the k-th of G and the named subgroups."""
    subs = [G.whole_subgroup(), *subgroups.values()]
    entries = tuple(
        SignatureEntry(3, len(G) // sub.order, name)
        for name, sub in zip(["G", *subgroups], subs)
    )
    target = SearchTarget(G, 0, 0, entries, dict(subgroups))
    return SlowSearcher(target, SearchStats(), entry_subgroups(target)), subs


def assert_path_agrees(searcher, subs, path):
    G = searcher.group
    omega = searcher.omega_mask(list(path))
    stab = searcher.cycle_stabilizer(list(path), omega.bit_count())
    for idx, sub in enumerate(subs):
        got = (omega, len(stab), *searcher.cycle_action(idx, list(path), stab))
        assert got == oracle.closed_path(G, path, sub), (path, sub)


def _random_and_coset_paths(G, rng):
    n = len(G)
    paths = [rng.sample(range(n), 3 + k % 2) for k in range(200)]
    # paths (b, a*b, a^2*b[, a^3*b]) have stabilizers of order >= 3
    for a in range(n):
        if element_order(G, a) in (3, 4):
            b = rng.randrange(n)
            paths.append([G.mul(power(G, a, i), b) for i in range(element_order(G, a))])
    return paths


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_bundled_paths_match_closed_path_oracle(sid):
    spec = load_solution(sid)
    searcher, subs = _searcher(spec.group, spec.subgroups)
    for c in spec.cycles.values():
        for seq in (c.verts, c.verts[::-1]):
            for r in range(len(seq)):
                assert_path_agrees(searcher, subs, seq[r:] + seq[:r])


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_random_paths_match_closed_path_oracle(gid):
    G = build_group(gid)
    n = len(G)
    rng = random.Random(f"paths-{gid}")
    subgroups = {"T": G.subgroup_closure([])}
    for k in range(3):
        subgroups[f"C{k}"] = G.subgroup_closure([rng.randrange(n)])
        subgroups[f"D{k}"] = G.subgroup_closure(rng.sample(range(n), 2))
    searcher, subs = _searcher(G, subgroups)
    for path in _random_and_coset_paths(G, rng):
        assert_path_agrees(searcher, subs, path)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_full_omega_gives_a_trivial_cycle_stabilizer(gid):
    # l distinct difference pairs of two elements each leave only the
    # identity to fix a cycle of length l; the searcher skips the kernel then
    G = build_group(gid)
    searcher, _ = _searcher(G, {})
    paths = [
        c.verts
        for sid in SOLUTION_IDS
        if (spec := load_solution(sid)).group.id == gid
        for c in spec.cycles.values()
    ]
    paths += _random_and_coset_paths(G, random.Random(f"full-omega-{gid}"))
    full = set()
    for path in paths:
        osize = searcher.omega_mask(list(path)).bit_count()
        want = oracle.cycle_stabilizer(cycle(G, path)).order
        if osize == 2 * len(path):
            assert want == 1, path
        assert len(searcher.cycle_stabilizer(list(path), osize)) == want, path
        full.add(osize == 2 * len(path))
    assert full == {True, False}


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_translated_paths_give_the_factor_stabilizer(sid):
    # each factor uses 2 * |G|/|H| differences and its stabilizer is its
    # acting subgroup H, as the searcher assumes of a complete cover
    spec = load_solution(sid)
    G = spec.group
    T = G.table
    searcher, _ = _searcher(G, {})
    for recipe in spec.factors:
        H = resolve_subgroup(spec, recipe.subgroup_name)
        paths = [spec.cycles[cn].verts for cn, _ in recipe.cycles]
        fused = 0
        for p in paths:
            fused |= searcher.omega_mask(list(p))
        assert fused.bit_count() == 2 * len(G) // H.order
        translated = [[T[v][x] for v in p] for p in paths for x in H.members]
        stab = assert_kernel_agrees(G, translated, "factor")
        f = assemble_factor(G, recipe)
        assert sorted(stab) == list(factor_stabilizer(f).members)
        assert sorted(stab) == list(oracle.factor_stabilizer(f).members)
        assert stab == H.member_set
