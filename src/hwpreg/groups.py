"""Exact constructions of the three groups behind the bundled solutions.

Supported groups, by id:

* ``2O``   the binary octahedral group, 48 unit quaternions with
           coordinates in {0, +-1, +-1/2, +-1/sqrt(2)};
* ``Q24``  the dicyclic group of order 24 (a^12 = 1, b^2 = a^6,
           b^-1 a b = a^-1), elements in normal form a^i b^j;
* ``SL23`` the 2x2 matrices over Z_3 with determinant 1 (order 24).

Each group is one row of data: its order, two generators, and its
multiplication, parser and formatter.  ``build_group`` generates the
elements once, as the closure of the generators under multiplication,
and sorts them into a fixed canonical order; ``FiniteGroup`` builds the
multiplication table from them at construction.  The ASCII element texts
(``1/r2``; ``parse`` also accepts ``1/√2``) are built at construction
too, and the right translations on first use.  ``parse`` keeps the
texts it has read, and the subgroups, one per generator listing, are
shared per group; both tables are bounded.  A subgroup builds its
members and its left-coset masks on first use.  Every later operation
works on element indices.  Quaternion coordinates are kept exact as
pairs (p, q) denoting (p + q*sqrt(2))/2, so equality tests are sound.

All three groups have exactly one involution, which is what makes them
usable as regular automorphism groups of a cocktail party graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

_UNIT_NAMES = ("1", "i", "j", "k")


class GroupError(Exception):
    """Structural defect while building or using a group."""


class ElementError(ValueError):
    """Text that is malformed or does not denote a group element."""


# ---------------------------------------------------------------------------
# binary octahedral group: exact arithmetic over Q(sqrt 2)

Coord = tuple[int, int]  # (p, q) encodes the real number (p + q*sqrt(2)) / 2
Quat = tuple[Coord, Coord, Coord, Coord]


def quat_mul(x: Quat, y: Quat) -> Quat:
    """Hamilton product of two exact quaternions (i*j = k, j*k = i, k*i = j)."""
    (a, A), (b, B), (c, C), (d, D) = x
    (e, E), (f, F), (g, G), (h, H) = y
    # each coordinate lands over denominator 4, as (P + Q*sqrt(2)) / 4;
    # reduction back to denominator 2 must be exact for group elements
    p1 = a * e - b * f - c * g - d * h + 2 * (A * E - B * F - C * G - D * H)
    q1 = a * E + A * e - b * F - B * f - c * G - C * g - d * H - D * h
    pi = a * f + b * e + c * h - d * g + 2 * (A * F + B * E + C * H - D * G)
    qi = a * F + A * f + b * E + B * e + c * H + C * h - d * G - D * g
    pj = a * g - b * h + c * e + d * f + 2 * (A * G - B * H + C * E + D * F)
    qj = a * G + A * g - b * H - B * h + c * E + C * e + d * F + D * f
    pk = a * h + b * g - c * f + d * e + 2 * (A * H + B * G - C * F + D * E)
    qk = a * H + A * h + b * G + B * g - c * F - C * f + d * E + D * e
    if (p1 | q1 | pi | qi | pj | qj | pk | qk) & 1:
        raise GroupError("quaternion product left the group lattice")
    return (p1 >> 1, q1 >> 1), (pi >> 1, qi >> 1), (pj >> 1, qj >> 1), (pk >> 1, qk >> 1)


_QUAT_OUTER = re.compile(
    r"^\s*([+-]?)\s*(?:(1/2|1/√2|1/r2)\s*)?(?:\(([^()]+)\)|(1|i|j|k))\s*$"
)
_QUAT_TERM = re.compile(r"\s*([+-]?)\s*(1|i|j|k)")


def parse_quat(text: str) -> Quat:
    """Parse texts like ``k``, ``-1``, ``1/2(-1-i+j+k)``, ``-1/r2(1+j)``.

    ``1/r2`` is the ASCII spelling of ``1/√2``.  A leading sign negates the
    whole expression; inside parentheses every term after the first must be
    signed.
    """
    m = _QUAT_OUTER.match(text)
    if not m:
        raise ElementError(f"malformed quaternion text: {text!r}")
    lead, prefix, inner, bare = m.group(1), m.group(2), m.group(3), m.group(4)
    body = inner if inner is not None else bare
    coeffs = [0, 0, 0, 0]
    pos = 0
    first = True
    while pos < len(body):
        tm = _QUAT_TERM.match(body, pos)
        if not tm:
            raise ElementError(f"malformed quaternion term in {text!r}")
        sign_txt, unit = tm.group(1), tm.group(2)
        if sign_txt == "" and not first:
            raise ElementError(f"missing sign between terms in {text!r}")
        sign = -1 if sign_txt == "-" else 1
        coeffs[_UNIT_NAMES.index(unit)] += sign
        pos = tm.end()
        first = False
    if lead == "-":
        coeffs = [-c for c in coeffs]
    if prefix is None:
        quat = tuple((2 * c, 0) for c in coeffs)
    elif prefix == "1/2":
        quat = tuple((c, 0) for c in coeffs)
    else:
        quat = tuple((0, c) for c in coeffs)
    return quat  # type: ignore[return-value]


def format_quat(q: Quat) -> str:
    """Render an element in the notation accepted by :func:`parse_quat`."""
    ps = [p for p, _ in q]
    qs = [s for _, s in q]
    if all(s == 0 for s in qs):
        nonzero = [(t, p) for t, p in enumerate(ps) if p]
        if len(nonzero) == 1 and abs(nonzero[0][1]) == 2:
            t, p = nonzero[0]
            return ("-" if p < 0 else "") + _UNIT_NAMES[t]
        return "1/2(" + _signed_sum(ps) + ")"
    return "1/r2(" + _signed_sum(qs) + ")"


def _signed_sum(coeffs: Sequence[int]) -> str:
    parts: list[str] = []
    for t, c in enumerate(coeffs):
        if c == 0:
            continue
        if abs(c) != 1:
            raise GroupError(f"coordinate out of range in formatter: {coeffs!r}")
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + _UNIT_NAMES[t])
    return "".join(parts)


# ---------------------------------------------------------------------------
# dicyclic group of order 24, normal form a^i b^j

Dic = tuple[int, int]  # (i, j) encodes a^i b^j, 0 <= i < 12, j in {0, 1}


def dicyclic_mul(x: Dic, y: Dic) -> Dic:
    # rewriting rules: b a^m = a^-m b and b^2 = a^6
    i, s = x
    m, t = y
    if s == 0:
        return (i + m) % 12, t
    if t == 0:
        return (i - m) % 12, 1
    return (i - m + 6) % 12, 0


_DIC_RE = re.compile(r"^\s*(?:(1)|(a(\d{1,2})?)?(b)?)\s*$")


def parse_dicyclic(text: str) -> Dic:
    m = _DIC_RE.match(text)
    if not m or (m.group(1) is None and m.group(2) is None and m.group(4) is None):
        raise ElementError(f"malformed dicyclic text: {text!r}")
    if m.group(1):
        return 0, 0
    exp = 0
    if m.group(2):
        exp = int(m.group(3)) if m.group(3) is not None else 1
        if not 0 <= exp <= 11:
            raise ElementError(f"exponent out of range in {text!r}")
    return exp, 1 if m.group(4) else 0


def format_dicyclic(x: Dic) -> str:
    i, j = x
    if i == 0:
        return "b" if j else "1"
    a = "a" if i == 1 else f"a{i}"
    return a + ("b" if j else "")


# ---------------------------------------------------------------------------
# SL(2, 3): 2x2 matrices over Z_3 with determinant 1

Mat = tuple[int, int, int, int]  # row-major (a, b, c, d)


def sl23_mul(x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % 3,
        (a * f + b * h) % 3,
        (c * e + d * g) % 3,
        (c * f + d * h) % 3,
    )


_MAT_RE = re.compile(
    r"^\s*\[\s*\[\s*(\d)\s*,\s*(\d)\s*\]\s*,\s*\[\s*(\d)\s*,\s*(\d)\s*\]\s*\]\s*$"
)


def parse_sl23(text: str) -> Mat:
    m = _MAT_RE.match(text)
    if not m:
        raise ElementError(f"malformed matrix text: {text!r}")
    entries = tuple(int(g) for g in m.groups())
    if any(e > 2 for e in entries):
        raise ElementError(f"matrix entries must be residues 0..2: {text!r}")
    return entries  # type: ignore[return-value]


def format_sl23(x: Mat) -> str:
    a, b, c, d = x
    return f"[[{a},{b}],[{c},{d}]]"


# ---------------------------------------------------------------------------
# the uniform table-backed group interface


def _closure(start: Iterable, steps: Sequence[Callable]) -> set:
    """Everything reached from ``start`` by repeated right multiplications;
    each of ``steps`` maps x to x * g for one g."""
    members = set(start)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for step in steps:
            y = step(x)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def _generators(
    start: Iterable[int], candidates: Iterable[int], column: Callable[[int], Sequence[int]]
) -> tuple[tuple[int, ...], set[int]]:
    """The candidates, in order, that the earlier ones do not reach from
    ``start``, and the set that they all reach; ``column(g)[x]`` is x * g."""
    gens: list[int] = []
    steps: list[Callable] = []
    reached = set(start)
    for x in candidates:
        if x not in reached:
            gens.append(x)
            steps.append(column(x).__getitem__)
            reached = _closure(reached, steps)
    return tuple(gens), reached


@dataclass(frozen=True)
class Subgroup:
    """A subgroup, given by its generators (element indices): its members,
    sorted, are their closure, built on first use."""

    group: "FiniteGroup"
    generators: tuple[int, ...]

    @cached_property
    def member_set(self) -> frozenset[int]:
        G = self.group
        return frozenset(_generators((G.identity,), self.generators, G._columns.__getitem__)[1])

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.member_set))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in self.member_set

    @cached_property
    def _coset_masks(self) -> tuple[int, ...]:
        """Per vertex v, the mask of v * S: one pass over the cosets, on first
        use, shared by the searcher and the tiling test factors._tile,
        which verify, assemble_factor and the DOT export call."""
        T, masks = self.group.table, [0] * len(self.group)
        for v in range(len(masks)):
            if not masks[v]:
                coset = [T[v][x] for x in self.members]
                mask = sum(1 << u for u in coset)
                for u in coset:
                    masks[u] = mask
        return tuple(masks)

    def __repr__(self) -> str:
        gens = ", ".join(self.group.format(g) for g in self.generators)
        return f"Subgroup(<{gens}>, order {self.order})"


class FiniteGroup:
    """A small finite group with a precomputed multiplication table.

    Elements are referred to by index into :attr:`elements`; ``mul``,
    ``inv`` and ``format`` are table lookups.  ``mul_func`` is called only
    for the columns x -> x * g with g in the generating set that
    ``whole_subgroup`` keeps: each element, in index order, that the
    earlier picks do not reach (the greedy step that also makes a
    ``Subgroup``'s members of its generators).  Each product is checked
    against the elements; every other column follows by associativity,
    x * (p * g) = (x * p) * g, in breadth-first order of words, and the
    tests check the table against all n^2 products.  The identity,
    inverse and involution checks then run on the whole table.
    Instances are immutable after construction, as setting an attribute
    then raises AttributeError, and safe to share; use
    :func:`build_group` to obtain the cached instance for a group id.
    """

    def __init__(
        self,
        gid: str,
        elements: Sequence[object],
        mul_func: Callable,
        parser: Callable[[str], object],
        formatter: Callable[[object], str],
    ) -> None:
        self.id = gid
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise GroupError(f"{gid}: duplicate elements")
        self._parser = parser
        self.texts: tuple[str, ...] = tuple(formatter(e) for e in self.elements)

        n, index = len(self.elements), self._index
        columns: dict[int, tuple[int, ...]] = {}  # g -> (0*g, 1*g, ..., (n-1)*g)

        def column(g: int) -> tuple[int, ...]:
            if g not in columns:
                col = []
                for a in self.elements:
                    idx = index.get(prod := mul_func(a, self.elements[g]))
                    if idx is None:
                        raise GroupError(f"{gid}: product {prod!r} escapes the element set")
                    col.append(idx)
                columns[g] = tuple(col)
            return columns[g]

        # the identity is the x with x * e0 = e0, e0 the first element
        gens = _generators((column(0).index(0),), range(n), column)[0]
        # the column of p * g is p's column read through g's
        words = list(gens)
        for p in words:
            for g in gens:
                if (b := columns[g][p]) not in columns:
                    columns[b] = tuple(map(columns[g].__getitem__, columns[p]))
                    words.append(b)
        if len(columns) != n:
            raise GroupError(f"{gid}: the generators reach {len(columns)} of {n} elements")
        self._columns = tuple(columns[b] for b in range(n))
        self.table: tuple[tuple[int, ...], ...] = tuple(zip(*self._columns))

        identities = [
            e for e in range(n)
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n))
        ]
        if len(identities) != 1:
            raise GroupError(f"{gid}: expected a unique identity, found {len(identities)}")
        self.identity: int = identities[0]

        inv = []
        for a, row, col in zip(range(n), self.table, self._columns):
            hits = [b for b, ab, ba in zip(range(n), row, col) if ab == ba == self.identity]
            if len(hits) != 1:
                raise GroupError(f"{gid}: element {a} lacks a unique two-sided inverse")
            inv.append(hits[0])
        self.inv_table: tuple[int, ...] = tuple(inv)

        involutions = [
            x for x in range(n) if x != self.identity and self.table[x][x] == self.identity
        ]
        if len(involutions) != 1:
            raise GroupError(
                f"{gid}: needs exactly one involution, found {len(involutions)}"
            )
        self._involution: int = involutions[0]
        self._whole = Subgroup(self, gens)
        self._frozen = True

    def __setattr__(self, name: str, value: object) -> None:
        # cached_property writes vars(self) directly, so it is not refused
        if getattr(self, "_frozen", False):
            raise AttributeError(f"{self!r} is immutable: cannot set {name!r}")
        super().__setattr__(name, value)

    # -- basic operations --------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.id}, order {len(self)})"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def unique_involution(self) -> int:
        """The one element x != 1 with x*x = 1 (verified at construction)."""
        return self._involution

    # -- subgroups ---------------------------------------------------------

    def subgroup_closure(self, generators: Iterable[int]) -> Subgroup:
        """The Subgroup of the distinct generators, in their first order,
        after a range, an inverse-closure and a Lagrange check.  Every caller
        gets the one Subgroup kept for the tuple in a table of the last 256
        that passed, so its members and coset masks are built once."""
        return self._shared_subgroup(tuple(dict.fromkeys(generators)))

    @lru_cache(maxsize=256)  # keeps no call that raised
    def _shared_subgroup(self, generators: tuple[int, ...]) -> Subgroup:
        sub = Subgroup(self, generators)
        for g in sub.generators:
            if not 0 <= g < len(self):
                raise GroupError(f"{self.id}: generator index {g} out of range")
        members = sub.member_set
        for x in members:
            if self.inv_table[x] not in members:
                raise GroupError(f"{self.id}: closure not inverse-closed at {x}")
        if len(self) % len(members) != 0:
            raise GroupError(f"{self.id}: subgroup order {len(members)} violates Lagrange")
        return sub

    @cached_property
    def right_translations(self) -> tuple[itemgetter, ...]:
        """For each x, a getter that reads a per-element sequence s as
        (s[0*x], s[1*x], ..., s[(n-1)*x]).  Built on first use."""
        return tuple(itemgetter(*col) for col in self._columns)

    def whole_subgroup(self) -> Subgroup:
        """G, generated by each element that the earlier ones do not reach."""
        return self._whole

    # -- text form ---------------------------------------------------------

    @lru_cache(maxsize=1024)  # keeps no call that raised
    def parse(self, text: str) -> int:
        """Index of the element denoted by ``text``; raises ElementError.
        A bounded table keeps the last 1024 texts that parsed, canonical or
        not, so each reaches the group's parser once while it is kept."""
        idx = self._index.get(self._parser(text))
        if idx is None:
            raise ElementError(f"{text!r} is not an element of {self.id}")
        return idx

    def format(self, idx: int) -> str:
        return self.texts[idx]


# id -> (order, generator texts, multiplication, parser, formatter)
_GROUPS = {
    "2O": (48, ("1/2(1+i+j+k)", "1/r2(1+i)"), quat_mul, parse_quat, format_quat),
    "Q24": (24, ("a", "b"), dicyclic_mul, parse_dicyclic, format_dicyclic),
    "SL23": (24, ("[[1,1],[0,1]]", "[[1,0],[1,1]]"), sl23_mul, parse_sl23, format_sl23),
}
GROUP_IDS = tuple(_GROUPS)


@lru_cache(maxsize=None)
def build_group(gid: str) -> FiniteGroup:
    """Build (once) and return the group for ``gid`` in GROUP_IDS."""
    if gid not in _GROUPS:
        raise GroupError(f"unknown group id {gid!r}; expected one of {GROUP_IDS}")
    order, gen_texts, mul, parser, formatter = _GROUPS[gid]
    gens = [parser(t) for t in gen_texts]
    # in a finite group every inverse is a power, so the words in the
    # generators already hold the identity and every inverse
    elements = sorted(_closure(gens, [lambda x, g=g: mul(x, g) for g in gens]))
    if len(elements) != order:
        raise GroupError(f"{gid}: generators give {len(elements)} elements, not {order}")
    return FiniteGroup(gid, elements, mul, parser, formatter)
