"""The table-driven stabilizers and orbits agree with the slow reference."""

import random

import pytest

import action_oracle as oracle
from hwpreg.cycles import cycle, cycle_orbit, cycle_stabilizer
from hwpreg.factors import assemble_factor, factor_orbit, factor_stabilizer
from hwpreg.groups import GROUP_IDS, build_group
from hwpreg.solutions import SOLUTION_IDS, load_solution, resolve_subgroup, solution_recipes


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
    for recipe in solution_recipes(spec):
        f = assemble_factor(spec.group, recipe)
        assert factor_stabilizer(f) == oracle.factor_stabilizer(f)
        assert factor_orbit(f) == oracle.factor_orbit(f)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_random_cycles_match_oracle(gid):
    G = build_group(gid)
    n = len(G)
    rng = random.Random(f"action-{gid}")
    subs = [G.whole_subgroup(), G.trivial_subgroup()]
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
    subs = [G.whole_subgroup(), G.trivial_subgroup()]
    subs += [G.subgroup_closure(rng.sample(range(n), 2)) for _ in range(3)]
    for a in range(n):
        k = G.element_order(a)
        if k < 3:
            continue
        b = rng.randrange(n)
        c = cycle(G, [G.mul(G.power(a, i), b) for i in range(k)])
        conj = G.mul(G.mul(G.inv(b), a), b)
        assert conj in cycle_stabilizer(c)
        assert cycle_stabilizer(c).order >= k
        assert_cycle_agrees(c, subs + [G.subgroup_closure([conj])])
