"""verify_solution against its slow-path oracle, document by document.

`verify_oracle.verify_solution` builds every sub-orbit and every factor
orbit as canonical cycles, takes each factor's stabilizer with the full
kernel, counts (min, max) edge tuples and checks the difference
partition last; the library decides that a recipe tiles from its
acting subgroup's coset masks, lists a base cycle's translates only to
name the witness of a recipe that does not, takes a factor's stabilizer
from its difference count or else tests it once per right coset of
that subgroup, and decides by the difference theorem in
`verify_factorization`: the partition first, then |Omega(F)| = 2 * orbit
length for every factor.  Both must give the same verdict, or raise the
same error, on the bundled documents, on a seeded corruption of every
base-cycle vertex (seeds 1 and 2 here, 1 to 40 in `verify_sweep.py`) and
on hand-built failures.  Where the oracle passes, or rejects at assembly
or at the cycle-length gate, the canonical and human certificates must
be byte-identical too.  Target derivation settles each factor's
stabilizer in verify's step, so `target_from_solution` is checked here
against a target derived from assembled factors and brute force.
"""

import copy
import hashlib
import random
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

import action_oracle
import hwpreg.cycles
import hwpreg.factors
import verify_oracle
from helpers import cycle_from_texts, orbit_overlap_document
from hwpreg import SOLUTION_IDS
from hwpreg.cycles import _stabilizer, partial_differences, verify_partition
from hwpreg.factors import (
    FactorRecipe,
    RecipeError,
    TwoFactor,
    _settle,
    _tile,
    assemble_factor,
    factor_stabilizer,
    verify_factorization,
)
from hwpreg.groups import GroupError, Subgroup, build_group
from hwpreg.search import SearchTarget, SignatureEntry, target_from_solution
from hwpreg.solutions import (
    SolutionSpec, load_solution, omega_reports, parse_solution_dict, verify_solution
)

# oracle rejects whose certificates the library must render byte for byte;
# None: an assembly error without a witness
EXACT_KINDS = {None, "overlap", "gap", "cycle-length"}


def _outcome(verify, spec):
    """The certificate, or the error as ("GroupError", message)."""
    try:
        return verify(spec)
    except GroupError as err:
        return "GroupError", str(err)


def _texts(cert):
    return cert.canonical_text(), cert.human_text()


def lockstep(spec):
    """The oracle's and the library's outcome on spec, and whether they
    agree: the same error, or the same verdict with byte-identical texts
    wherever the oracle passes or rejects at an EXACT_KINDS check."""
    want = _outcome(verify_oracle.verify_solution, spec)
    got = _outcome(verify_solution, spec)
    if isinstance(want, tuple) or isinstance(got, tuple):
        return want, got, want == got
    exact = want.ok or (want.witness or {}).get("kind") in EXACT_KINDS
    agree = want.ok == got.ok and (not exact or _texts(want) == _texts(got))
    return want, got, agree


def assert_lockstep(spec):
    """The library's certificate, after checking it against the oracle's."""
    want, got, agree = lockstep(spec)
    assert agree, (want, got)
    return got


def _hand_built(group, recipes, expected=None):
    """A solution made of recipes, its cycles the ones they name."""
    cycles = {cn: c for recipe in recipes for cn, c in recipe.cycles}
    return SolutionSpec("hand-built", group, {}, cycles, tuple(recipes), expected)


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
    assert assert_lockstep(load_solution(sid)).ok


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_corruptions_match_oracle(raw_docs, seed):
    rng = random.Random(seed)
    verdicts = [
        assert_lockstep(parse_solution_dict(bad)).ok
        for sid in SOLUTION_IDS
        for bad in _corruptions(raw_docs[sid], rng)
    ]
    assert len(verdicts) == 225 and not all(verdicts)


def _q24_case(name):
    spec = load_solution("24-9-2")
    G, recipes = spec.group, list(spec.factors)
    if name == "gap":
        return G, [replace(recipes[3], cycles=recipes[3].cycles[:1])] + recipes[:3], None
    if name == "overlap":
        grown = FactorRecipe("F", recipes[3].cycles[:1], "G", G.whole_subgroup())
        return G, recipes[:2] + [grown], None
    if name == "earlier-overlap":
        c = recipes[3].cycles[0][1]
        return G, recipes[:3] + [replace(recipes[3], cycles=(("C5", c), ("C6", c)))], None
    if name == "cycle-length":
        hexagon = cycle_from_texts(G, ["1", "a2", "a4", "a6", "a8", "a10"])
        return G, [FactorRecipe("F1", (("C1", hexagon),), "G", G.whole_subgroup())], None
    if name == "mixed-length":
        A = G.subgroup_closure([G.parse("a")])
        cycles = (
            ("T", cycle_from_texts(G, ["1", "a4", "a8"])),
            ("Q", cycle_from_texts(G, ["b", "a3b", "a6b", "a9b"])),
        )
        return G, [FactorRecipe("F1", cycles, "A", A)], None
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


# the library's witness for each hand-built case
HAND_BUILT_KINDS = {
    "gap": "gap",
    "overlap": "overlap",  # one base cycle's translates under G collide
    "earlier-overlap": "overlap",  # F4's first base cycle twice, as C5 and C6
    "cycle-length": "cycle-length",
    "mixed-length": "cycle-length",  # 4 triangles and 3 quadrangles
    "duplicate-edge": "difference-overlap",  # one recipe twice
    "i-edge": "difference-overlap",  # its cycles share differences
    "missing-edge": "difference-missing",  # one recipe left out
    "expected-mismatch": "expected-mismatch",
}


@pytest.mark.parametrize("name", HAND_BUILT_KINDS)
def test_hand_built_failures_match_oracle(name):
    cert = assert_lockstep(_hand_built(*_q24_case(name)))
    assert not cert.ok and cert.witness["kind"] == HAND_BUILT_KINDS[name]


@pytest.mark.parametrize(
    "forbidden, kind", [(False, "orbit-overlap"), (True, "difference-forbidden")]
)
def test_orbit_overlap_document_matches_oracle(forbidden, kind):
    # every factor assembles; without forbidden the partition holds too,
    # and the oracle finds F1's orbit covering {1, a2} twice
    spec = parse_solution_dict(orbit_overlap_document(forbidden))
    assert assert_lockstep(spec).witness["kind"] == kind
    if not forbidden:
        want = verify_oracle.verify_solution(spec).witness
        assert want == {"kind": "duplicate-edge", "edge": ["1", "a2"], "count": 2}


def test_originally_listed_quadrangle_matches_oracle():
    spec = load_solution("24-5-6")
    G = spec.group
    orig = cycle_from_texts(
        G, ["[[1,0],[0,1]]", "[[1,0],[2,1]]", "[[2,2],[0,2]]", "[[1,1],[0,1]]"]
    )
    patched = list(spec.factors)
    patched[3] = FactorRecipe("F4", (("C4", orig),), "G", G.whole_subgroup())
    assert not assert_lockstep(_hand_built(G, patched, spec.expected)).ok


def _on_factors(fake):
    """A stand-in for factors._stabilizer that answers a call on a factor
    with fake and passes a call on a single cycle, which only _tile
    makes, to the kernel."""
    def kernel(group, paths, what, sub=None):
        if what == "factor":
            return fake(group, paths, what, sub)
        return _stabilizer(group, paths, what, sub)
    return kernel


_trivial_kernel = _on_factors(lambda group, *_: {group.identity})


def _factor_kernel_calls(monkeypatch):
    """A list that gets "factor" for each factor-kernel call from now on."""
    calls = []

    def counting(*args):
        calls.append(args[2])
        return _stabilizer(*args)

    monkeypatch.setattr(hwpreg.factors, "_stabilizer", _on_factors(counting))
    return calls


def _relabelled_24_5_6():
    """24-5-6 with F2 = Orb[G](C2) acting by Q, SL(2,3)'s subgroup of order
    8: Q meets C2's stabilizer, of order 3, trivially, so F2 assembles the
    same 8 triangles with stabilizer G, but |Omega(F2)| * 8 = 16 != 48."""
    spec = load_solution("24-5-6")
    f1, f2, *rest = spec.factors
    f2 = replace(f2, subgroup_name=f1.subgroup_name, subgroup=f1.subgroup)
    return replace(spec, factors=(f1, f2, *rest))


@pytest.mark.parametrize("sid", ["24-9-2", "48-17-6"])
def test_wrong_stabilizer_raises_like_oracle(monkeypatch, sid):
    # a stabilizer that misses elements gives more translates than the
    # orbit has distinct ones: the oracle, expanding them, raises.  The
    # library never asks the kernel on a factor here, as every factor's
    # difference count settles its stabilizer, so it still passes
    def trivial(f):
        one = (f.group.identity,)
        return Subgroup(f.group, one)

    monkeypatch.setattr(hwpreg.factors, "_stabilizer", _trivial_kernel)
    monkeypatch.setattr(verify_oracle, "factor_stabilizer", trivial)
    spec = load_solution(sid)
    with pytest.raises(GroupError, match="factor orbit-stabilizer mismatch"):
        verify_oracle.verify_solution(spec)
    assert verify_solution(spec).ok


def test_wrong_kernel_rejects_a_factor_the_count_does_not_settle(monkeypatch):
    # the real kernel gives the relabelled F2 its stabilizer G and passes,
    # as the oracle does; a kernel that misses elements makes F2's orbit
    # 24 long, and 2 * 24 exceeds its 2 differences
    spec = _relabelled_24_5_6()
    cert = assert_lockstep(spec)
    assert cert.ok and cert.factors[1].stabilizer_order == 24
    monkeypatch.setattr(hwpreg.factors, "_stabilizer", _trivial_kernel)
    cert = verify_solution(spec)
    assert not cert.ok and cert.witness == {
        "kind": "orbit-overlap", "factor": "F2", "differences": 2, "orbit_length": 24,
    }


def _oracle_target(spec):
    """The target of spec derived from assembled factors: each factor's
    stabilizer by brute force, named G or S1, S2, ... as first met."""
    G, names, entries = spec.group, {}, []
    for recipe in spec.factors:
        f = assemble_factor(G, recipe)
        stab = action_oracle.factor_stabilizer(f)
        name = "G" if stab.order == len(G) else names.setdefault(stab, f"S{len(names) + 1}")
        entries.append(SignatureEntry(f.cycle_length, len(G) // stab.order, name))
    r, s = (sum(e.orbit_length for e in entries if e.cycle_length == k) for k in (3, 4))
    return SearchTarget(G, r, s, tuple(entries), {name: stab for stab, name in names.items()})


@pytest.mark.parametrize("sid", [*SOLUTION_IDS, "24-5-6^relabelled"])
def test_target_from_solution_matches_the_oracle(monkeypatch, sid):
    # target derivation settles each factor's stabilizer in verify's step:
    # the difference count settles every bundled factor, and the kernel
    # runs only on the relabelled F2, whose stabilizer it must find is G
    relabelled = sid.endswith("^relabelled")
    spec = _relabelled_24_5_6() if relabelled else load_solution(sid)
    kernel_calls = _factor_kernel_calls(monkeypatch)
    target = target_from_solution(spec)
    assert target == _oracle_target(spec)
    assert kernel_calls == (["factor"] if relabelled else [])
    if relabelled:
        assert target.entries[1] == SignatureEntry(3, 1, "G")


def _raising(*args, **kwargs):
    raise AssertionError("called on a recipe that tiles, with a settled stabilizer")


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_bundled_documents_need_neither_assembly_nor_kernel(monkeypatch, sid):
    # every bundled factor tiles by its coset masks, and |Omega(F)| * |S| = 2v:
    # no base cycle's translates are listed, and the kernel never runs on a
    # factor
    monkeypatch.setattr(hwpreg.factors, "_stabilizer", _on_factors(_raising))
    monkeypatch.setattr(hwpreg.factors, "_rows", _raising)
    assert verify_solution(load_solution(sid)).ok


# SHA-256 of the canonical and human certificate of five hand-built
# rejects: the tiling test refuses gap and both overlaps, and passes the
# others on
HAND_BUILT_CERTIFICATES = {
    "gap": "f10426b5dea8046b1b4189c2cc47f8f14e3dc6ff9dce86e5845d176f7fd718ce",
    "overlap": "a2a672d3aaa4846d35902105d0dfeedfe9092d921396419b7f27d1c81bc5d76e",
    "earlier-overlap": "81c3ac4135b35e348d8739f21a02eb7195796dbfc318c28b0ab1dc058a9b2329",
    "duplicate-edge": "9ab341a65185f58a21603b875d9ce32d9ce4abf8caa6157c166c8e34699271c7",
    "i-edge": "912022d59fbf45937b29af40f8ab91a69e046f7ee4865ff33719f6625e9a6cba",
}


@pytest.mark.parametrize("name", HAND_BUILT_CERTIFICATES)
def test_hand_built_certificates_are_kept(monkeypatch, name):
    # i-edge has i in its Omega, so its stabilizer comes from the kernel
    kernel_calls = _factor_kernel_calls(monkeypatch)
    cert = verify_solution(_hand_built(*_q24_case(name)))
    digest = hashlib.sha256("".join(_texts(cert)).encode()).hexdigest()
    assert digest == HAND_BUILT_CERTIFICATES[name]
    assert kernel_calls == (["factor"] if name == "i-edge" else [])


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


def stabilizers_checked(spec):
    """How many of spec's factors assemble with a stabilizer that the
    difference count settles (i not in Omega(F), |Omega(F)| * |S| = 2v),
    and how many with one verify takes from the kernel, after checking
    that the library assembles each as the oracle does, that _settle,
    the step verify and target derivation share, gives the oracle
    factor's cycle length, cycle count, |Omega(F)| and full-kernel
    stabilizer on every one that assembles, that _tile keeps each base
    cycle's brute-force stabilizer in S, that factor_stabilizer gives the
    factor's stabilizer too, and that it is S on every settled one."""
    G = spec.group
    iota, counts = G.unique_involution(), Counter()
    for recipe in spec.factors:
        got, want = _assembled(recipe, G)
        assert got == want
        if not isinstance(want, tuple):
            assert got.subgroup is recipe.subgroup
            length, count, size, stab = _settle(G, recipe)
            assert (length, count) == (want.cycle_length, len(want.cycles))
            assert _tile(G, recipe)[2] == [
                action_oracle.cycle_orbit(c, recipe.subgroup).stabilizer.member_set
                for _, c in recipe.cycles
            ]
            full = verify_oracle.factor_stabilizer(want)
            assert factor_stabilizer(got) == full and sorted(stab) == list(full.members)
            omega = frozenset().union(*map(partial_differences, want.cycles))
            assert size == len(omega)
            if iota not in omega and len(omega) * recipe.subgroup.order == 2 * len(G):
                assert full.members == recipe.subgroup.members, f"{recipe.label}: not settled"
                counts["settled"] += 1
            else:
                counts["kernel"] += 1
    return counts


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_coset_stabilizer_matches_the_full_kernel(raw_docs, seed):
    # every factor that assembles, in the bundled documents (seed None)
    # and in a seeded corruption of every base-cycle vertex
    rng = random.Random(seed)
    docs = [raw_docs[sid] for sid in SOLUTION_IDS]
    if seed is not None:
        docs = [bad for doc in docs for bad in _corruptions(doc, rng)]
    counts = sum((stabilizers_checked(parse_solution_dict(doc)) for doc in docs), Counter())
    if seed is None:  # all 64 bundled factors, every one settled by the count
        assert counts == {"settled": 64}
    else:
        assert counts.total() >= 225 and counts["kernel"] > 0


def cycle_kernel_calls(spec):
    """The vertex tuple of each base cycle that one verify_solution on spec
    sends to the single-cycle kernel, in call order."""
    calls = []

    def kernel(group, paths, what, sub=None):
        if what == "cycle":
            calls.extend(map(tuple, paths))
        return _stabilizer(group, paths, what, sub)

    with mock.patch.object(hwpreg.cycles, "_stabilizer", kernel), \
            mock.patch.object(hwpreg.factors, "_stabilizer", kernel):
        _outcome(verify_solution, spec)
    return calls


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_no_base_cycle_reaches_the_kernel_twice(raw_docs, seed):
    # _tile keeps each base cycle's stabilizer in S, and the witness scan,
    # the factor kernel's translates and assembly list translates over it
    rng = random.Random(seed)
    docs = [raw_docs[sid] for sid in SOLUTION_IDS]
    if seed is not None:
        docs = [bad for doc in docs for bad in _corruptions(doc, rng)]
    sent = 0
    for doc in docs:
        calls = cycle_kernel_calls(parse_solution_dict(doc))
        assert len(set(calls)) == len(calls), doc
        sent += len(calls)
    assert sent > 0


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_assembly_pass_matches_the_oracle(raw_docs, seed):
    # on every factor, in the bundled documents (seed None) and in a seeded
    # corruption of every base-cycle vertex: where the oracle assembles,
    # _tile gives its factor's cycle length and cycle count; elsewhere it
    # raises the oracle's message and witness
    rng = random.Random(seed)
    docs = [raw_docs[sid] for sid in SOLUTION_IDS]
    if seed is not None:
        docs = [bad for doc in docs for bad in _corruptions(doc, rng)]
    checked = refused = 0
    for spec in map(parse_solution_dict, docs):
        for recipe in spec.factors:
            try:
                want = verify_oracle.assemble_factor(spec.group, recipe)
            except RecipeError as err:
                with pytest.raises(RecipeError) as got:
                    _tile(spec.group, recipe)
                assert (str(got.value), got.value.witness) == (str(err), err.witness)
                refused += 1
                continue
            assert _tile(spec.group, recipe)[:2] == (want.cycle_length, len(want.cycles))
            checked += 1
    assert checked >= (64 if seed is None else 225)
    assert refused == 0 if seed is None else refused > 0


def test_stabilizer_larger_than_the_acting_subgroup(doc_copy):
    # the seed-1 corruption 24-9-2/C3[2]: C3 becomes the coset (1, a4, a8)
    # of <a4>, and F3 = Orb[L](C3) is fixed by all of G, not only by L
    doc = doc_copy("24-9-2")
    doc["cycles"]["C3"][2] = "a8"
    spec = parse_solution_dict(doc)
    f = assemble_factor(spec.group, spec.factors[2])
    assert (f.subgroup.order, factor_stabilizer(f).order) == (8, 24)
    assert factor_stabilizer(f) == verify_oracle.factor_stabilizer(f)


def test_tile_keeps_a_base_cycle_stabilizer_cut_to_the_acting_subgroup():
    # C = (1, b, a6, a6b) is <b>, fixed by its 4 elements; under A = <a>,
    # which holds a6 = b^2 but not b, C meets a coset twice and its 6
    # translates tile Q24, so _tile must keep <b> cut to A, {1, a6}
    G = build_group("Q24")
    A = G.subgroup_closure([G.parse("a")])
    c = cycle_from_texts(G, ["1", "b", "a6", "a6b"])
    spec = _hand_built(G, [FactorRecipe("F", (("C", c),), "A", A)])
    assert stabilizers_checked(spec) == {"kernel": 1}
    assert _tile(G, spec.factors[0])[2] == [{G.identity, G.parse("a6")}]


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


def test_omega_reports_match_the_set_differences(raw_docs):
    # on the bundled documents, and on 24-9-2 with C3's listing gaining
    # C4's first element and C4's losing it, the reports of the Omega
    # masks list what the oracle's sets list, and their derived match and
    # one-sided differences are the oracle's set differences
    bad = copy.deepcopy(raw_docs["24-9-2"])
    omega = bad["annotations"]["omega"]
    omega["C3"].append(omega["C4"].pop(0))
    mismatched = []
    for doc in [*(raw_docs[sid] for sid in SOLUTION_IDS), bad]:
        spec = parse_solution_dict(doc)
        omegas = {cn: verify_oracle.partial_differences(c) for cn, c in spec.cycles.items()}
        masks = {cn: c._omega for cn, c in spec.cycles.items()}
        assert masks == {cn: sum(1 << x for x in om) for cn, om in omegas.items()}
        want = verify_oracle.omega_diffs(spec, omegas)
        sets = verify_oracle.omega_reports(spec, omegas)
        for om, set_om in zip(omega_reports(spec, masks), sets, strict=True):
            assert (om.cycle_name, om.recomputed, om.printed) == (
                set_om.cycle_name, set_om.recomputed, set_om.printed
            )
            assert (om.match, om.only_recomputed, om.only_printed) == want[om.cycle_name]
            if om.match is False:
                mismatched.append((om.cycle_name, om.only_recomputed, om.only_printed))
    assert mismatched == [("C3", (), ("a3b", "a9b")), ("C4", ("a3b", "a9b"), ())]


def _partition_pair(G, masks):
    """verify_partition on masks, and the oracle's on the same sets."""
    sets = [{x for x in range(len(G)) if m >> x & 1} for m in masks]
    return verify_partition(G, masks), verify_oracle.verify_partition(G, sets)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_mask_partition_matches_the_oracle(raw_docs, seed):
    # the bundled documents, then a seeded corruption of every base-cycle
    # vertex: the masks' count and witness are the oracle's on its own sets
    rng, kinds = random.Random(seed), Counter()
    for sid in SOLUTION_IDS:
        docs = [raw_docs[sid]] if seed is None else _corruptions(raw_docs[sid], rng)
        for doc in docs:
            spec = parse_solution_dict(doc)
            masks = [c._omega for c in spec.cycles.values()]
            sets = [verify_oracle.partial_differences(c) for c in spec.cycles.values()]
            got = verify_partition(spec.group, masks)
            assert got == verify_oracle.verify_partition(spec.group, sets)
            kinds[None if got[1] is None else got[1]["kind"]] += 1
    if seed is None:
        assert kinds == {None: 9}
    else:
        assert sum(kinds.values()) == 225
        assert kinds["difference-overlap"] and kinds["difference-missing"]


def test_mask_partition_witnesses_on_hand_built_masks():
    spec = load_solution("48-5-18")
    G, masks = spec.group, [c._omega for c in spec.cycles.values()]
    first = (masks[0] & -masks[0]).bit_length() - 1
    identity, iota = 1 << G.identity, 1 << G.unique_involution()
    cases = {
        # one element in three Omega
        "thrice": masks + [1 << first, 1 << first],
        "missing": masks[1:],
        "identity": masks + [identity],
        "involution": masks + [iota],
        # missing and forbidden at once: missing wins
        "missing-and-forbidden": masks[1:] + [identity | iota],
    }
    witnesses = {}
    for name, case in cases.items():
        got, want = _partition_pair(G, case)
        assert got == want, name
        witnesses[name] = got[1]
    assert witnesses["thrice"] == {
        "kind": "difference-overlap", "element": G.format(first), "count": 3
    }
    assert witnesses["missing"] == witnesses["missing-and-forbidden"] == {
        "kind": "difference-missing", "element": G.format(first)
    }
    assert witnesses["identity"] == {
        "kind": "difference-forbidden", "element": G.format(G.identity)
    }
    assert witnesses["involution"] == {
        "kind": "difference-forbidden", "element": G.format(G.unique_involution())
    }
