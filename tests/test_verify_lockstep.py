"""verify_factorization against its slow-path oracle, certificate by certificate.

`verify_oracle.verify_factorization` builds every sub-orbit and every
factor orbit as canonical cycles, takes each factor's stabilizer with the
full kernel, and counts (min, max) edge tuples; the library reads
sub-orbits off the multiplication table, tests a factor's stabilizer
once per right coset of its acting subgroup and counts coverage per
difference pair without expanding any orbit.  Both must render the
same canonical and human text on the bundled documents, on a seeded
corruption of every base-cycle vertex (seeds 1 and 2 here, 1 to 40 in
`verify_sweep.py`), and on hand-built failures, and raise the same
error when a factor's stabilizer is wrong.
"""

import copy
import random
from collections import Counter
from dataclasses import replace

import pytest

import hwpreg.factors
import verify_oracle
from helpers import cycle_edges, cycle_from_texts
from hwpreg import SOLUTION_IDS
from hwpreg.factors import (
    FactorRecipe,
    RecipeError,
    TwoFactor,
    _orbit_coverage,
    assemble_factor,
    factor_stabilizer,
    verify_factorization,
)
from hwpreg.groups import GroupError, Subgroup, build_group
from hwpreg.solutions import load_solution, parse_solution_dict


def _outcome(verify, group, recipes, expected):
    try:
        cert = verify(group, recipes, expected=expected)
    except GroupError as err:
        return "GroupError", str(err)
    return cert.canonical_text(), cert.human_text()


def assert_lockstep(group, recipes, expected=None):
    want = _outcome(verify_oracle.verify_factorization, group, recipes, expected)
    assert _outcome(verify_factorization, group, recipes, expected) == want
    return want


def _corruptions(doc, rng):
    """One corruption per vertex position of every base cycle: the vertex
    is replaced by an element absent from its cycle, picked by rng."""
    G = build_group(doc["group"])
    for cn, verts in doc["cycles"].items():
        used = {G.parse(t) for t in verts}
        absent = [x for x in range(len(G)) if x not in used]
        for pos in range(len(verts)):
            bad = copy.deepcopy(doc)
            bad["cycles"][cn][pos] = G.format(rng.choice(absent))
            yield bad


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_bundled_documents_match_oracle(sid):
    spec = load_solution(sid)
    canonical, _ = assert_lockstep(spec.group, spec.factors, spec.expected)
    assert '"verdict":"pass"' in canonical


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_corruptions_match_oracle(raw_docs, seed):
    rng = random.Random(seed)
    verdicts = []
    for sid in SOLUTION_IDS:
        for bad in _corruptions(raw_docs[sid], rng):
            spec = parse_solution_dict(bad)
            canonical, _ = assert_lockstep(spec.group, spec.factors, spec.expected)
            verdicts.append('"verdict":"pass"' in canonical)
    assert len(verdicts) == 225 and not all(verdicts)


def _q24_case(name):
    spec = load_solution("24-9-2")
    G, recipes = spec.group, list(spec.factors)
    if name == "gap":
        return G, [replace(recipes[3], cycles=recipes[3].cycles[:1])] + recipes[:3], None
    if name == "overlap":
        grown = FactorRecipe("F", recipes[3].cycles[:1], "G", G.whole_subgroup())
        return G, recipes[:2] + [grown], None
    if name == "cycle-length":
        hexagon = cycle_from_texts(G, ["1", "a2", "a4", "a6", "a8", "a10"])
        return G, [FactorRecipe("F1", (("C1", hexagon),), "G", G.whole_subgroup())], None
    if name == "duplicate-edge":
        return G, [recipes[0], recipes[0]] + recipes[2:], None
    if name == "i-edge":
        texts = [
            ["1", "b", "a6", "a6b"],
            ["a", "ab", "a7", "a7b"],
            ["a2", "a2b", "a8", "a8b"],
            ["a3", "a3b", "a9", "a9b"],
            ["a4", "a4b", "a10", "a10b"],
            ["a5", "a11", "a5b", "a11b"],
        ]
        cycles = tuple((f"X{i}", cycle_from_texts(G, t)) for i, t in enumerate(texts))
        return G, [FactorRecipe("F1", cycles, "T", G.subgroup_closure([]))], None
    if name == "missing-edge":
        return G, recipes[:-1], None
    assert name == "expected-mismatch"
    return G, recipes, (24, 8, 3)


@pytest.mark.parametrize(
    "name",
    ["gap", "overlap", "cycle-length", "duplicate-edge", "i-edge", "missing-edge",
     "expected-mismatch"],
)
def test_hand_built_failures_match_oracle(name):
    G, recipes, expected = _q24_case(name)
    canonical, _ = assert_lockstep(G, recipes, expected)
    kind = "duplicate-edge" if name == "i-edge" else name
    assert f'"kind":"{kind}"' in canonical


def test_originally_listed_quadrangle_matches_oracle():
    spec = load_solution("24-5-6")
    G = spec.group
    orig = cycle_from_texts(
        G, ["[[1,0],[0,1]]", "[[1,0],[2,1]]", "[[2,2],[0,2]]", "[[1,1],[0,1]]"]
    )
    patched = list(spec.factors)
    patched[3] = FactorRecipe("F4", (("C4", orig),), "G", G.whole_subgroup())
    assert_lockstep(G, patched, spec.expected)


@pytest.mark.parametrize("sid", ["24-9-2", "48-17-6"])
def test_wrong_stabilizer_raises_like_oracle(monkeypatch, sid):
    # a stabilizer that misses elements gives more translates than the
    # orbit has distinct ones: both paths must refuse to report it
    def trivial(f):
        one = (f.group.identity,)
        return Subgroup(f.group, one, one)

    monkeypatch.setattr(hwpreg.factors, "factor_stabilizer", trivial)
    monkeypatch.setattr(verify_oracle, "factor_stabilizer", trivial)
    spec = load_solution(sid)
    assert assert_lockstep(spec.group, spec.factors, spec.expected) == (
        "GroupError",
        "factor orbit-stabilizer mismatch",
    )


def _assembled(recipe, group):
    """The library's and the oracle's outcome: the factor, or the error as
    (type name, message, witness)."""
    outcomes = []
    for assemble in (assemble_factor, verify_oracle.assemble_factor):
        try:
            outcomes.append(assemble(group, recipe))
        except (RecipeError, GroupError) as err:
            outcomes.append((type(err).__name__, str(err), getattr(err, "witness", None)))
    return outcomes


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_coset_stabilizer_matches_the_full_kernel(raw_docs, seed):
    # every factor that assembles, in the bundled documents (seed None)
    # and in a seeded corruption of every base-cycle vertex
    rng = random.Random(seed)
    docs = [raw_docs[sid] for sid in SOLUTION_IDS]
    if seed is not None:
        docs = [bad for doc in docs for bad in _corruptions(doc, rng)]
    checked = 0
    for doc in docs:
        spec = parse_solution_dict(doc)
        for recipe in spec.factors:
            got, want = _assembled(recipe, spec.group)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert got == want and got.subgroup is recipe.subgroup
            assert factor_stabilizer(got) == verify_oracle.factor_stabilizer(want)
            checked += 1
    assert checked >= (64 if seed is None else 225)  # all 64 bundled factors


def _pairs_checked(group, recipes):
    """Check the counting identity behind verify_factorization on every
    recipe that assembles: the oracle's expanded orbit covers all edges
    {g, d*g} of one pair {d, d^-1} equally often, and as often as the
    library counts from the factor's differences.  Returns the factors
    checked and the pairs they use."""
    T, inv, i = group.table, group.inv_table, group.unique_involution()
    checked, pairs = 0, set()
    for recipe in recipes:
        got, want = _assembled(recipe, group)
        if isinstance(want, tuple):
            continue
        orbit = verify_oracle.factor_orbit(want)
        counts = Counter(e for f in orbit for c in f.cycles for e in cycle_edges(c))
        per_pair: dict[int, Counter] = {}  # pair -> {times covered: edges}
        for (u, w), k in counts.items():
            d = T[w][inv[u]]
            per_pair.setdefault(min(d, inv[d]), Counter())[k] += 1
        expanded = {}
        for d, edges in per_pair.items():
            ((k, n),) = edges.items()
            assert n == (len(group) // 2 if d == i else len(group))
            expanded[d] = k
        assert _orbit_coverage(got, factor_stabilizer(got).members) == expanded
        checked += 1
        pairs.update(expanded)
    return checked, pairs


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_pair_coverage_matches_the_expanded_orbit(raw_docs, seed):
    rng = random.Random(seed)
    docs = [raw_docs[sid] for sid in SOLUTION_IDS]
    if seed is not None:
        docs = [bad for doc in docs for bad in _corruptions(doc, rng)]
    checked = 0
    for doc in docs:
        spec = parse_solution_dict(doc)
        checked += _pairs_checked(spec.group, spec.factors)[0]
    assert checked >= (64 if seed is None else 225)


def test_pair_coverage_of_i_edges_matches_the_expanded_orbit():
    # a hand-built factor that steps through the removed 1-factor
    G, recipes, _ = _q24_case("i-edge")
    checked, pairs = _pairs_checked(G, recipes)
    assert checked == 1 and G.unique_involution() in pairs


def test_stabilizer_larger_than_the_acting_subgroup(doc_copy):
    # the seed-1 corruption 24-9-2/C3[2]: C3 becomes the coset (1, a4, a8)
    # of <a4>, and F3 = Orb[L](C3) is fixed by all of G, not only by L
    doc = doc_copy("24-9-2")
    doc["cycles"]["C3"][2] = "a8"
    spec = parse_solution_dict(doc)
    f = assemble_factor(spec.group, spec.factors[2])
    assert (f.subgroup.order, factor_stabilizer(f).order) == (8, 24)
    assert factor_stabilizer(f) == verify_oracle.factor_stabilizer(f)


@pytest.mark.parametrize("sid", ["24-9-2", "48-17-6"])
def test_factor_labelled_with_a_subgroup_that_moves_it_raises(sid):
    spec = load_solution(sid)
    G = spec.group
    for recipe in spec.factors:
        f = assemble_factor(G, recipe)
        if factor_stabilizer(f).order == len(G):
            continue
        mislabelled = TwoFactor(G, f.cycles, G.whole_subgroup())
        with pytest.raises(GroupError, match="not fixed by its acting subgroup"):
            factor_stabilizer(mislabelled)
        # unlabelled, the same cycles get the full kernel
        assert factor_stabilizer(TwoFactor(G, f.cycles)) == factor_stabilizer(f)


@pytest.mark.parametrize("sid", ["24-9-2", "48-17-6"])
def test_acting_subgroup_must_be_generated_by_its_generators(sid):
    # only the generators are tested against the factor, so a label whose
    # generators miss some of its members is refused, whatever it claims
    spec = load_solution(sid)
    G = spec.group
    everything = Subgroup(G, tuple(range(len(G))), (G.identity,))
    for recipe in spec.factors:
        f = assemble_factor(G, recipe)
        with pytest.raises(GroupError, match="not generated by its generators"):
            factor_stabilizer(TwoFactor(G, f.cycles, everything))
        if recipe.subgroup.order > 1:
            bare = Subgroup(G, recipe.subgroup.members, (G.identity,))
            with pytest.raises(GroupError, match="not generated by its generators"):
                verify_factorization(G, [replace(recipe, subgroup=bare)])
