"""Factor assembly, orbits, certification, and failure witnesses."""

import itertools
import json
from collections import Counter
from dataclasses import replace

import pytest

import hwpreg.cli
import hwpreg.cycles
import hwpreg.factors
import hwpreg.solutions
from action_oracle import translate_factor, translation_permutes_factors
from helpers import cycle_from_texts, orbit_overlap_document
from hwpreg.cycles import cycle, cycle_stabilizer
from hwpreg.factors import (
    CERTIFICATE_FORMAT,
    FactorRecipe,
    RecipeError,
    assemble_factor,
    factor_orbit,
    factor_stabilizer,
    hwp_feasibility,
    verify_factorization,
)
from hwpreg.groups import GROUP_IDS, FiniteGroup, build_group
from hwpreg.search import search_hwp, target_from_solution
from hwpreg.solutions import (
    SOLUTION_IDS, load_solution, parse_solution_dict, resolve_subgroup, verify_solution
)


def _recipes(sid):
    spec = load_solution(sid)
    return spec, list(spec.factors)


def test_assemble_factor_spans_the_group():
    spec, recipes = _recipes("24-9-2")
    f = assemble_factor(spec.group, recipes[0])
    assert sorted(v for c in f.cycles for v in c.verts) == list(range(24))
    assert f.cycle_length == 4


def test_assemble_composite_factor():
    spec, recipes = _recipes("24-9-2")
    composite = recipes[3]  # two sub-orbits under H
    assert len(composite.cycles) == 2
    f = assemble_factor(spec.group, composite)
    assert len(f.cycles) == 8 and f.cycle_length == 3


def test_assemble_gap_witness():
    spec, recipes = _recipes("24-9-2")
    composite = recipes[3]
    half = replace(composite, cycles=composite.cycles[:1])
    with pytest.raises(RecipeError) as err:
        assemble_factor(spec.group, half)
    assert err.value.witness["kind"] == "gap"


def test_assemble_overlap_witness():
    spec, recipes = _recipes("24-9-2")
    grown = FactorRecipe("F", recipes[3].cycles[:1], "G", spec.group.whole_subgroup())
    with pytest.raises(RecipeError) as err:
        assemble_factor(spec.group, grown)
    assert err.value.witness["kind"] == "overlap"


def test_verify_reads_orbits_off_the_table(monkeypatch):
    # assembly reads each sub-orbit off the table rows: no cycle_orbit,
    # translate_cycle or FiniteGroup.mul call; and the whole verify of
    # 48-17-6, after parsing, canonicalises no translate (the parent of the
    # one-pass assembly made 148 _canonical_rotation calls here), builds no
    # orbit of Cycle objects and translates no Cycle; every module that
    # imported a function by name gets the counting version, as
    # perfbench/spans.py does
    spec = load_solution("48-17-6")
    calls = Counter()

    def counting(name, orig):
        def wrapper(*args):
            calls[name] += 1
            return orig(*args)

        return wrapper

    for name in ("cycle_orbit", "translate_cycle", "_canonical_rotation"):
        orig = getattr(hwpreg.cycles, name)
        for module in (hwpreg, hwpreg.cli, hwpreg.cycles, hwpreg.factors, hwpreg.solutions):
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counting(name, orig))
    monkeypatch.setattr(FiniteGroup, "mul", counting("mul", FiniteGroup.mul))
    factors = [assemble_factor(spec.group, recipe) for recipe in spec.factors]
    assert calls["mul"] == calls["translate_cycle"] == calls["cycle_orbit"] == 0
    # the public assembly canonicalises each translate once, for its TwoFactor
    assert calls["_canonical_rotation"] == sum(len(f.cycles) for f in factors)
    calls.clear()
    assert verify_solution(spec).ok
    assert calls["_canonical_rotation"] == calls["translate_cycle"] == calls["cycle_orbit"] == 0


def test_factor_stabilizer_and_orbit():
    spec, recipes = _recipes("24-9-2")
    for recipe in recipes:
        f = assemble_factor(spec.group, recipe)
        stab = factor_stabilizer(f)
        assert stab.member_set == resolve_subgroup(spec, recipe.subgroup_name).member_set
        orbit = factor_orbit(f)
        assert len(orbit) * stab.order == 24
        assert f in orbit


def test_translation_permutes_the_full_factorization():
    spec, recipes = _recipes("24-9-2")
    factors = []
    for recipe in recipes:
        factors.extend(factor_orbit(assemble_factor(spec.group, recipe)))
    assert len(factors) == 11
    assert translation_permutes_factors(factors)
    # dropping one translate of an orbit of length 3 breaks closure
    subset = factors[:2] + factors[3:]
    assert not translation_permutes_factors(subset, elements=[spec.group.parse("a")])


def test_translate_factor_action():
    spec, recipes = _recipes("24-9-2")
    G = spec.group
    f = assemble_factor(G, recipes[2])
    x, y = G.parse("a5"), G.parse("b")
    assert translate_factor(translate_factor(f, x), y) == translate_factor(f, G.mul(x, y))
    # the orbit holds exactly the distinct translates by every element
    translates = {translate_factor(f, g).key() for g in range(len(G))}
    assert [t.key() for t in factor_orbit(f)] == sorted(translates)


@pytest.mark.parametrize(
    "v,r,s,ok",
    [
        (24, 9, 2, True),
        (24, 5, 6, True),
        (48, 5, 18, True),
        (48, 0, 23, True),
        (23, 5, 5, False),  # odd
        (24, 5, 5, False),  # r+s != v/2-1
        (24, -1, 12, False),
        (16, 1, 6, False),  # triangles need 3 | v
        (18, 2, 6, False),  # quadrangles need 4 | v
    ],
)
def test_hwp_feasibility(v, r, s, ok):
    feasible, reason = hwp_feasibility(v, r, s)
    assert feasible is ok
    assert (reason is None) is ok


def test_verify_factorization_passes_and_counts():
    spec, recipes = _recipes("24-7-4")
    cert = verify_factorization(spec.group, recipes, expected=(24, 7, 4))
    assert cert.ok and (cert.r, cert.s) == (7, 4)
    assert cert.to_dict()["edge_coverage"]["expected"] == 264
    # the SHA-256 of Q24's sorted K_24 - I edge list
    q24_edges = "f2187b3a775818179904ef23647abb4459f2b7f17eb60b4dfaedf235d07c53c0"
    assert _edge_fields(cert) == (264, 0, 0, q24_edges)
    assert "  edges: 264/264 covered once" in cert.human_text().splitlines()


def _edge_fields(cert):
    """The rendered edge coverage: covered once, duplicates, missing, checksum."""
    coverage = cert.to_dict()["edge_coverage"]
    return tuple(coverage[k] for k in ("covered_once", "duplicates", "missing", "sha256"))


def test_verify_factorization_duplicate_witness():
    # F1 twice and F2 left out: C1's differences are used twice
    spec, recipes = _recipes("24-9-2")
    cert = verify_factorization(spec.group, [recipes[0], recipes[0]] + recipes[2:])
    assert not cert.ok and cert.partition_ok is False
    assert cert.witness == {"kind": "difference-overlap", "element": "b", "count": 2}
    assert _edge_fields(cert) == (0, 0, 0, None)


def test_verify_factorization_missing_witness():
    spec, recipes = _recipes("24-9-2")
    cert = verify_factorization(spec.group, recipes[:-1])
    assert not cert.ok and cert.partition_ok is False
    assert cert.witness == {"kind": "difference-missing", "element": "a"}
    assert _edge_fields(cert) == (0, 0, 0, None)


def test_verify_factorization_orbit_overlap():
    # the partition holds and every factor assembles, yet F1's orbit
    # covers {1, a2} twice: 8 differences for orbit length 6
    spec = parse_solution_dict(orbit_overlap_document())
    cert = verify_factorization(spec.group, spec.factors, spec.expected)
    assert not cert.ok and cert.partition_ok is True and cert.partition_size == 22
    assert cert.witness == {
        "kind": "orbit-overlap", "factor": "F1", "differences": 8, "orbit_length": 6
    }
    assert cert.failure == "F1: the factor's orbit covers an edge more than once"
    assert _edge_fields(cert) == (0, 0, 0, None)


def test_verify_factorization_foreign_edge():
    # a quadrangle factor whose cycles step through the removed 1-factor
    # puts the involution a6 among the differences, which the partition
    # check rejects; here alone, with nothing doubled or missing
    spec = parse_solution_dict(orbit_overlap_document(forbidden=True))
    cert = verify_factorization(spec.group, spec.factors, spec.expected)
    assert not cert.ok and cert.partition_size == 23
    assert cert.witness == {"kind": "difference-forbidden", "element": "a6"}
    # explicit cycles of one factor, one of them on the I-edge {a5, a11}:
    # they share the difference b before a6 is reached
    G = build_group("Q24")
    texts = [
        ["1", "b", "a6", "a6b"],
        ["a", "ab", "a7", "a7b"],
        ["a2", "a2b", "a8", "a8b"],
        ["a3", "a3b", "a9", "a9b"],
        ["a4", "a4b", "a10", "a10b"],
        ["a5", "a11", "a5b", "a11b"],  # {a5, a11} is an I-edge
    ]
    cycles = tuple((f"X{i}", cycle_from_texts(G, t)) for i, t in enumerate(texts))
    cert = verify_factorization(G, [FactorRecipe("F1", cycles, "T", G.subgroup_closure([]))])
    assert not cert.ok
    assert cert.failure == "difference sets do not partition G minus the identity and involution"
    assert cert.witness == {"kind": "difference-overlap", "element": "b", "count": 2}


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_quadrangles_of_two_i_edges_have_stabilizer_one_and_i(gid):
    # a factor F fixed by the involution i holds each I-edge in such a
    # quadrangle, whose two I-edges lie in distinct stab(F)-orbits, so
    # the orbit of F covers each I-edge at least twice; if i does not fix
    # F, F and F*i both carry it.  An I-edge is never covered once, and
    # verify rejects the involution as a difference before any orbit
    G = build_group(gid)
    i = G.unique_involution()
    halves = sorted({min(g, G.mul(i, g)) for g in range(len(G))})
    assert len(halves) == len(G) // 2
    for a, b in itertools.combinations(halves, 2):
        ia, ib = G.mul(i, a), G.mul(i, b)
        for quad in ((a, ia, b, ib), (a, ia, ib, b)):
            assert cycle_stabilizer(cycle(G, quad)).member_set == {G.identity, i}


def test_verify_factorization_rejects_wrong_cycle_length():
    # four hexagonal cosets of <a2> span the group but are not C3/C4 factors
    G = build_group("Q24")
    hexagon = cycle_from_texts(G, ["1", "a2", "a4", "a6", "a8", "a10"])
    cert = verify_factorization(
        G, [FactorRecipe("F1", (("C1", hexagon),), "G", G.whole_subgroup())]
    )
    assert not cert.ok
    assert cert.witness["kind"] == "cycle-length"


def test_verify_factorization_expected_mismatch():
    spec, recipes = _recipes("24-9-2")
    cert = verify_factorization(spec.group, recipes, expected=(24, 8, 3))
    assert not cert.ok
    assert cert.witness["kind"] == "expected-mismatch"


def test_verify_factorization_recipe_error_becomes_certificate():
    spec, recipes = _recipes("24-9-2")
    broken = [replace(recipes[3], cycles=recipes[3].cycles[:1])] + recipes[:3]
    cert = verify_factorization(spec.group, broken)
    assert not cert.ok
    assert cert.witness["kind"] == "gap"


def test_verify_factorization_reports_a_cycle_of_another_group():
    # assembly rejects it; the partition is taken over the other cycles
    spec, recipes = _recipes("24-9-2")
    alien = cycle(build_group("2O"), [40, 41, 42])
    bad = FactorRecipe("F9", (("X", alien),), "G", spec.group.whole_subgroup())
    cert = verify_factorization(spec.group, recipes + [bad])
    assert not cert.ok and cert.failure == "F9: cycle bound to a different group"
    assert (cert.partition_ok, cert.partition_size) == (True, 22)


@pytest.mark.parametrize("message", ["empty recipe", "subgroup bound to a different group"])
def test_verify_factorization_reports_a_recipe_assembly_refuses_unread(message):
    # _tile refuses these before it reads a coset mask
    spec, recipes = _recipes("24-9-2")
    if message == "empty recipe":
        bad = replace(recipes[0], cycles=())
    else:
        bad = replace(recipes[0], subgroup=build_group("2O").whole_subgroup())
    cert = verify_factorization(spec.group, recipes[1:] + [bad])
    assert not cert.ok and cert.failure == f"{bad.label}: {message}"
    assert cert.witness is None


def test_originally_listed_quadrangle_fails():
    # the quadrangle the 24-5-6 notes say was originally listed: it walks
    # an I-edge and shares differences with C6, so its orbit cannot tile
    spec = load_solution("24-5-6")
    G = spec.group
    orig = cycle_from_texts(
        G,
        ["[[1,0],[0,1]]", "[[1,0],[2,1]]", "[[2,2],[0,2]]", "[[1,1],[0,1]]"],
    )
    patched = list(spec.factors)
    bad = FactorRecipe("F4", (("C4", orig),), "G", G.whole_subgroup())
    patched[3] = bad
    cert = verify_factorization(G, patched, expected=spec.expected)
    assert not cert.ok
    assert cert.witness is not None


def test_certificate_texts_and_dict():
    cert = verify_solution(load_solution("24-9-2"))
    doc = cert.to_dict()
    assert doc["format"] == CERTIFICATE_FORMAT
    assert doc["verdict"] == "pass"
    assert json.loads(cert.canonical_text()) == doc
    assert cert.canonical_text() == cert.canonical_text()
    human = cert.human_text()
    assert "PASS" in human and "264/264" in human


def test_edge_checksum_distinguishes_solutions():
    a = verify_solution(load_solution("24-9-2")).edges_sha256
    b = verify_solution(load_solution("24-7-4")).edges_sha256
    c = verify_solution(load_solution("24-5-6")).edges_sha256
    # same underlying edge universe for the Q24 pair, hence equal digests;
    # SL23 has different vertex names
    assert a == b
    assert a != c


def _found_or_bundled(source):
    """A bundled solution, or for found-<id> the document the searcher
    finds for the target derived from that solution."""
    if not source.startswith("found-"):
        return load_solution(source)
    target = target_from_solution(load_solution(source[6:]), budget_nodes=10_000_000)
    outcome = search_hwp(target)
    assert outcome.verdict == "found"
    return parse_solution_dict(outcome.solution)


@pytest.mark.parametrize(
    "source", [*SOLUTION_IDS, "found-24-7-4", "found-24-9-2", "found-24-5-6"]
)
def test_passing_documents_meet_the_difference_theorem(source):
    # the necessary half of verify_factorization's theorem: in a solution
    # that passes, the base cycles' Omega are pairwise disjoint, and each
    # base cycle c carries each of its difference pairs on exactly
    # |Stab_G(c)| edges, so 2 * l = |Omega(c)| * |Stab_G(c)|
    spec = _found_or_bundled(source)
    G = spec.group
    assert verify_solution(spec).ok
    seen: set[int] = set()
    for c in spec.cycles.values():
        pairs = Counter()
        for a, b in zip(c.verts, c.verts[1:] + c.verts[:1]):
            d = G.mul(b, G.inv(a))
            pairs[min(d, G.inv(d))] += 1
        stab = cycle_stabilizer(c).order
        assert set(pairs.values()) == {stab}
        omega = {x for d in pairs for x in (d, G.inv(d))}
        assert 2 * c.length == len(omega) * stab
        assert not seen & omega
        seen |= omega
    assert seen == set(range(len(G))) - {G.identity, G.unique_involution()}
