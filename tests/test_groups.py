"""Group kernel: exact arithmetic, tables, subgroups, element notation."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hwpreg
from helpers import all_pairs_table, element_order, power, quat_conj, quat_norm2_times4
from hwpreg import cli, groups
from hwpreg.solutions import parse_solution_dict
from hwpreg.groups import (
    GROUP_IDS,
    ElementError,
    FiniteGroup,
    GroupError,
    Subgroup,
    build_group,
    dicyclic_mul,
    format_dicyclic,
    parse_dicyclic,
    quat_mul,
)

ORDERS = {"2O": 48, "Q24": 24, "SL23": 24}

# one SHA-256 per group over its element texts, multiplication table,
# inverse table, identity and involution: canonical bytes depend on all
# of them, so moving an element or changing its notation must fail here
TABLE_DIGESTS = {
    "2O": "5454336ca9d6f6b6525d6d8fd1ad7c30838f3b18851e183747b276a47217da1f",
    "Q24": "9655f3d40b3a144aea46d5f9035da217e1b41fb7ccf0b5088ca36dc00c7e4551",
    "SL23": "733b80d5c76f41bb4d33f065267c3fb9e9c1405e05546f473f838baf60b09fd0",
}


# the generating set each table is built from, picked in index order
WHOLE_GENERATORS = {
    "2O": ("-1", "1/2(-1-i-j-k)", "1/2(-1-i-j+k)", "1/r2(-1-i)"),
    "Q24": ("b", "a"),
    "SL23": ("[[0,1],[2,0]]", "[[0,1],[2,1]]"),
}


def _fresh_q24():
    # a new instance, not the cached one, so first-use state can be seen
    return FiniteGroup(
        "Q24", build_group("Q24").elements, dicyclic_mul, parse_dicyclic, format_dicyclic
    )


def test_group_ids_and_orders():
    assert GROUP_IDS == ("2O", "Q24", "SL23")
    for gid in GROUP_IDS:
        assert len(build_group(gid)) == ORDERS[gid]


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_group_tables_are_pinned(gid):
    G = build_group(gid)
    blob = json.dumps(
        [G.texts, G.table, G.inv_table, G.identity, G.unique_involution()],
        separators=(",", ":"),
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == TABLE_DIGESTS[gid]


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_table_equals_the_all_pairs_table(gid):
    # the columns derived by associativity, against every product
    G = build_group.__wrapped__(gid)
    assert G is not build_group(gid)
    assert G.table == all_pairs_table(G.elements, groups._GROUPS[gid][2])


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_table_build_multiplies_by_the_generators_alone(gid):
    # n products per generator, and n more at most for the first element,
    # which picks the identity
    _, _, mul, parser, formatter = groups._GROUPS[gid]
    right = []

    def counting(a, b):
        right.append(b)
        return mul(a, b)

    elements = build_group(gid).elements
    G = FiniteGroup(gid, elements, counting, parser, formatter)
    gens = G.whole_subgroup().generators
    assert len(right) <= len(G) * (len(gens) + 1)
    assert set(right) <= {elements[0], *(elements[g] for g in gens)}


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_whole_subgroup_generators_are_pinned(gid):
    G = build_group(gid)
    assert tuple(map(G.format, G.whole_subgroup().generators)) == WHOLE_GENERATORS[gid]


def test_table_build_rejects_a_product_outside_the_elements():
    # Q24 without a11b, which a11 * b gives
    _, _, mul, parser, formatter = groups._GROUPS["Q24"]
    elements = build_group("Q24").elements
    assert format_dicyclic(elements[-1]) == "a11b"
    with pytest.raises(GroupError, match=r"product \(11, 1\) escapes the element set"):
        FiniteGroup("Q24", elements[:-1], mul, parser, formatter)


def test_table_build_rejects_generators_that_miss_an_element():
    # x * 0 sends 1 to 0 and 0, 2 to 2, so 1 is taken for the identity and
    # reaches all three, but no word in the generator 0 is 1
    with pytest.raises(GroupError, match="the generators reach 2 of 3 elements"):
        FiniteGroup("M3", (0, 1, 2), lambda x, y: (2, 0, 2)[x], int, str)


def test_quat_mul_refuses_a_product_off_the_lattice():
    half = ((1, 0), (0, 0), (0, 0), (0, 0))
    with pytest.raises(GroupError, match="left the group lattice"):
        quat_mul(((1, 0), (1, 0), (0, 0), (0, 0)), half)  # (1 + i) / 4


def test_set_up_builds_only_the_groups_it_uses():
    # in a fresh interpreter: importing hwpreg builds no group, and a
    # Q24 verify builds Q24 alone
    script = "\n".join([
        "from hwpreg import build_group, cli",
        "assert build_group.cache_info().currsize == 0",
        "assert cli.main(['verify', '24-9-2']) == 0",
        "built = build_group.cache_info()",
        "build_group('Q24')",
        "assert build_group.cache_info().misses == built.misses == built.currsize == 1",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(hwpreg.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("solution 24-9-2: PASS")


def test_build_group_is_cached():
    assert build_group("Q24") is build_group("Q24")


def test_group_refuses_attribute_rebinding(capsys):
    # build_group is cached, and verify caches per-group data, so a caller
    # that could rebind a table or a text would change what every later
    # caller in the process computes
    G = build_group("Q24")
    texts, table = G.texts, G.table
    try:
        with pytest.raises(AttributeError):
            G.texts = tuple(reversed(texts))
        with pytest.raises(AttributeError):
            G.table = table[::-1]
    finally:  # a rebinding that got through spoils no other test
        vars(G).update(texts=texts, table=table)
    assert cli.main(["verify", "24-9-2"]) == 0
    assert capsys.readouterr().out.startswith("solution 24-9-2: PASS")


def _other_spellings(gid, text):
    """Non-canonical texts for the element whose canonical text is text."""
    yield f"  {text}\n"
    if gid == "2O":
        if "1/r2" in text:
            yield text.replace("1/r2", "1/√2")
            yield text.replace("1/r2", " 1/√2 ")
        if not text.startswith("-"):
            yield "+" + text
        if "(" in text and text[text.index("(") + 1] != "-":
            yield text.replace("(", "(+", 1)
    elif gid == "Q24":
        i, j = parse_dicyclic(text)
        b = "b" if j else ""
        if i < 10:  # "a05" for "a5"
            yield f"a0{i}{b}"
        if i < 2:  # "a0b" for "b", "a1" for "a"
            yield f"a{i}{b}"
    else:
        yield text.replace(",", " , ").replace("[", "[ ").replace("]", " ]")


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_parse_lookup_agrees_with_the_groups_parser(gid):
    G = build_group(gid)
    for idx, text in enumerate(G.texts):
        assert G.parse(text) == G._index[G._parser(text)] == idx
        others = set(_other_spellings(gid, text))
        assert others and not others & set(G.texts)
        for other in others:
            assert G.parse(other) == idx, other


def test_build_group_rejects_unknown():
    with pytest.raises(GroupError):
        build_group("S5")


def test_build_group_checks_the_stated_order(monkeypatch):
    order, *rest = groups._GROUPS["Q24"]
    monkeypatch.setitem(groups._GROUPS, "Q24", (order // 2, *rest))
    with pytest.raises(GroupError, match="24 elements, not 12"):
        build_group.__wrapped__("Q24")


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_associativity_exhaustive(gid):
    G = build_group(gid)
    n = len(G)
    t = G.table
    for a in range(n):
        ta = t[a]
        for b in range(n):
            tab = ta[b]
            tb = t[b]
            for c in range(n):
                assert t[tab][c] == ta[tb[c]]


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_identity_and_inverses(gid):
    G = build_group(gid)
    e = G.identity
    for a in range(len(G)):
        assert G.mul(e, a) == a == G.mul(a, e)
        assert G.mul(a, G.inv(a)) == e == G.mul(G.inv(a), a)
        # the inverse is unique
        assert sum(1 for b in range(len(G)) if G.mul(a, b) == e) == 1


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_unique_central_involution(gid):
    G = build_group(gid)
    invs = [x for x in range(len(G)) if x != G.identity and G.mul(x, x) == G.identity]
    assert invs == [G.unique_involution()]
    iota = invs[0]
    assert all(G.mul(iota, g) == G.mul(g, iota) for g in range(len(G)))


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_parse_format_round_trip_every_element(gid):
    # a cleared table sends every canonical text through the group's parser
    FiniteGroup.parse.cache_clear()
    G = build_group(gid)
    assert len(set(G.texts)) == len(G.texts) == len(G)
    for x in range(len(G)):
        assert G.parse(G.format(x)) == x
        assert G.parse(G.texts[x]) == x


def test_octahedral_census():
    els = build_group("2O").elements
    assert len(els) == len(set(els)) == 48
    for q in els:
        assert quat_norm2_times4(q) == (4, 0)  # unit quaternions
    G = build_group("2O")
    units = sum(1 for x in range(48) if "(" not in G.format(x))
    halves = sum(1 for x in range(48) if G.format(x).startswith(("1/2(", "-1/2(")))
    roots = sum(1 for x in range(48) if "r2" in G.format(x))
    assert (units, halves, roots) == (8, 16, 24)


def test_quaternion_identities():
    G = build_group("2O")
    i, j, k = G.parse("i"), G.parse("j"), G.parse("k")
    minus1 = G.parse("-1")
    assert G.mul(i, i) == G.mul(j, j) == G.mul(k, k) == minus1
    assert G.mul(i, j) == k and G.mul(j, k) == i and G.mul(k, i) == j
    assert G.mul(j, i) == G.parse("-k")
    w = G.parse("1/2(1+i+j+k)")
    assert element_order(G, w) == 6
    assert power(G, w, 3) == minus1
    assert element_order(G, G.parse("1/r2(1+i)")) == 8


def test_quat_conj_is_inverse_for_units():
    for q in build_group("2O").elements:
        prod = quat_mul(q, quat_conj(q))
        assert prod == ((2, 0), (0, 0), (0, 0), (0, 0))


def test_fancy_and_ascii_quaternion_notation():
    G = build_group("2O")
    x = G.parse("1/r2(j-k)")
    assert G.parse("1/√2(j-k)") == x
    assert G.format(x) == "1/r2(j-k)"


def test_dicyclic_relations():
    G = build_group("Q24")
    a, b = G.parse("a"), G.parse("b")
    assert element_order(G, a) == 12
    assert element_order(G, b) == 4
    assert G.mul(b, b) == G.parse("a6")
    # b^-1 a b = a^-1
    assert G.mul(G.mul(G.inv(b), a), b) == G.inv(a)
    assert G.format(G.mul(G.parse("a7"), G.parse("a6b"))) == "ab"


def test_sl23_arithmetic():
    G = build_group("SL23")
    x = G.parse("[[1,1],[0,1]]")
    assert element_order(G, x) == 3
    assert G.parse("[[2,0],[0,2]]") == G.unique_involution()
    y = G.parse("[[0,2],[1,0]]")
    assert element_order(G, y) == 4
    assert G.format(G.mul(x, y)) == "[[1,2],[1,0]]"  # plain matrix product


@pytest.mark.parametrize(
    "gid,text",
    [
        ("2O", "q"),
        ("2O", "1/3(1+i)"),
        ("2O", "1/2(1+i)"),  # not a unit quaternion
        ("2O", "1/2(1+i+j k)"),  # missing sign between terms
        ("2O", ""),
        ("Q24", "a12"),
        ("Q24", "a-1"),
        ("Q24", "ba"),
        ("Q24", "c"),
        ("SL23", "[[1,0],[0,2]]"),  # determinant 2
        ("SL23", "[[1,0],[0]]"),
        ("SL23", "[[3,0],[0,1]]"),  # entry out of range
    ],
)
def test_parse_rejects(gid, text):
    with pytest.raises(ElementError):
        build_group(gid).parse(text)


@pytest.mark.parametrize(
    "gid,gens,order",
    [
        ("2O", ["k", "1/r2(j-k)"], 16),
        ("2O", ["1/r2(j-k)", "1/2(-1-i+j+k)"], 12),
        ("Q24", ["b"], 4),
        ("Q24", ["a2"], 6),
        ("Q24", ["a2b", "a3"], 8),
        ("SL23", ["[[0,2],[1,0]]", "[[1,1],[1,2]]"], 8),
        ("SL23", ["[[0,1],[2,1]]"], 6),
    ],
)
def test_subgroup_closures(gid, gens, order):
    G = build_group(gid)
    sub = G.subgroup_closure([G.parse(t) for t in gens])
    assert sub.order == order
    assert len(G) % sub.order == 0
    mset = sub.member_set
    assert all(G.inv(x) in mset for x in mset)
    assert all(G.mul(x, y) in mset for x in mset for y in mset)


def test_whole_and_trivial_subgroups():
    G = build_group("Q24")
    assert G.whole_subgroup().order == 24
    trivial = G.subgroup_closure([])
    assert trivial.members == (G.identity,)
    assert G.identity in trivial
    assert G.parse("a5") not in trivial


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_whole_subgroup_generators_generate_the_group(gid):
    # factor_stabilizer checks a subgroup by its generators alone
    G = build_group(gid)
    whole = G.whole_subgroup()
    assert G.subgroup_closure(whole.generators).members == whole.members == tuple(range(len(G)))
    assert G.identity not in whole.generators


def test_subgroup_closure_rejects_bad_index():
    G = build_group("Q24")
    with pytest.raises(GroupError):
        G.subgroup_closure([99])


def _brute_closure(G, gens):
    """The identity and the generators, grown by every pairwise product
    until nothing new appears, sorted."""
    members = {G.identity, *gens}
    while True:
        grown = members | {G.mul(x, y) for x in members for y in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_subgroup_is_the_closure_of_its_generators(gid):
    # seeded random generator tuples of length 0 to 3, repeats allowed, and
    # member listings as target documents write them: whole subgroups in
    # shuffled order, with and without 1, and with repeats
    G, rng = build_group(gid), random.Random(gid)
    repeats = 0
    listings = [tuple(rng.choices(range(len(G)), k=rng.randrange(4))) for _ in range(200)]
    for _ in range(50):
        whole = list(_brute_closure(G, rng.sample(range(len(G)), rng.randrange(3))))
        for listing in (whole, [x for x in whole if x != G.identity], whole + whole[:3]):
            rng.shuffle(listing)
            listings.append(tuple(listing))
    for gens in listings:
        sub = Subgroup(G, gens)
        assert sub.members == _brute_closure(G, gens)
        assert sub.member_set == frozenset(sub.members)
        assert G.subgroup_closure(gens) == Subgroup(G, tuple(dict.fromkeys(gens)))
        repeats += len(set(gens)) < len(gens)
    assert repeats > 0


def test_subgroup_closure_error_messages_are_unchanged(monkeypatch):
    G = build_group("Q24")
    a, a2 = G.parse("a"), G.parse("a2")
    FiniteGroup._shared_subgroup.cache_clear()
    with pytest.raises(GroupError) as err:
        G.subgroup_closure([a, 99])
    assert str(err.value) == "Q24: generator index 99 out of range"
    # a closure from a correct table never fails the other two checks, so
    # member sets that would are put in its place
    for members, message in [
        ({G.identity, a}, f"Q24: closure not inverse-closed at {a}"),
        ({G.identity, a, G.inv(a), a2, G.inv(a2)}, "Q24: subgroup order 5 violates Lagrange"),
    ]:
        monkeypatch.setattr(Subgroup, "member_set", property(lambda _, m=frozenset(members): m))
        with pytest.raises(GroupError) as err:
            G.subgroup_closure([a])
        assert str(err.value) == message
    monkeypatch.undo()
    assert FiniteGroup._shared_subgroup.cache_info().currsize == 0
    assert G.subgroup_closure([a]).order == 12


def test_subgroup_table_is_shared_and_bounded():
    G, table = build_group("Q24"), FiniteGroup._shared_subgroup
    a, b = G.parse("a"), G.parse("b")
    assert G.subgroup_closure([a, b, a]) is G.subgroup_closure(iter([a, b]))
    assert G.subgroup_closure([b, a]) is not G.subgroup_closure([a, b])  # the listing is kept
    assert G.subgroup_closure([b, a]).generators == (b, a)
    bound = table.cache_info().maxsize
    for x in range(len(G)):
        for y in range(len(G)):
            assert G.subgroup_closure([x, y]).generators == tuple(dict.fromkeys((x, y)))
            assert table.cache_info().currsize <= bound
    assert table.cache_info().currsize == bound < len(G) ** 2
    # an evicted listing is built again, equal to the first build
    assert G.subgroup_closure([a, b, a]) == Subgroup(G, (a, b))
    # a listing that fails a check is never kept: it raises on every call
    table.cache_clear()
    for _ in range(3):
        with pytest.raises(GroupError, match="out of range"):
            G.subgroup_closure([a, -1])
    assert table.cache_info().currsize == 0


def test_non_canonical_spellings_are_parsed_once(raw_docs):
    # every text a read of the nine bundled documents names, canonical or
    # not (54 per read are not: 53 in 2O, 1 in Q24), reaches its group's
    # parser once per cleared table, however often the documents are read
    parsers = (groups.parse_quat, parse_dicyclic, groups.parse_sl23)
    parsers = {f.__code__: f.__name__ for f in parsers}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in parsers:
            calls[parsers[frame.f_code]] += 1

    distinct = set()
    for doc in raw_docs.values():
        G = build_group(doc["group"])
        listings = [*doc["subgroups"].values(), *doc["cycles"].values()]
        listings += doc.get("annotations", {}).get("omega", {}).values()
        distinct |= {(G, t) for texts in listings for t in texts}
    others = Counter(G._parser.__name__ for G, t in distinct if t not in G.texts)
    assert others == Counter(parse_quat=10, parse_dicyclic=1)
    assert len(distinct) <= FiniteGroup.parse.cache_info().maxsize == 1024

    FiniteGroup.parse.cache_clear()
    sys.setprofile(count)
    try:
        for _ in range(3):
            for doc in raw_docs.values():
                parse_solution_dict(doc)
    finally:
        sys.setprofile(None)
    assert calls == Counter(G._parser.__name__ for G, _ in distinct)
    # a text that fails is never kept: it goes to the parser and raises
    # every time
    G = build_group("2O")
    calls.clear()
    sys.setprofile(count)
    try:
        for text in ["1/2(1+i)", "q"] * 3:
            with pytest.raises(ElementError):
                G.parse(text)
    finally:
        sys.setprofile(None)
    assert calls == Counter(parse_quat=6)


def test_element_order_divides_group_order():
    for gid in GROUP_IDS:
        G = build_group(gid)
        for x in range(len(G)):
            assert len(G) % element_order(G, x) == 0
