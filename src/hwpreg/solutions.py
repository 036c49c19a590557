"""Bundled 2-factorization solutions and the strict document readers.

A solution document is JSON with exactly these top-level keys:

``id``         non-empty string naming the solution;
``group``      one of ``2O``, ``Q24``, ``SL23``;
``subgroups``  map from subgroup name (not ``G``) to a list of generator
               texts in the group's element notation;
``cycles``     map from cycle name to a list of vertex texts;
``factors``    list of ``{"cycles": [names], "subgroup": name}`` recipes;
               the named subgroup acts on each listed base cycle and the
               union of the orbits must be one 2-factor.  ``G`` denotes
               the whole group.  Every cycle is used exactly once;
``expected``   ``{"v": int, "r": int, "s": int}`` with v the group order;
``annotations``  optional; allowed keys are ``omega`` (map cycle name to
               the difference listing being reproduced, one member per
               inverse pair) and ``notes`` (strings).  The kinds
               ``stabilizers``, ``subgroup_members`` and
               ``omega_mismatches_expected`` are rejected as unknown keys.

Every field is type-checked and unknown keys anywhere are rejected; a
malformed or unreadable document raises ``SolutionFormatError``.  The
field readers below take the caller's error type, so search targets are
read by them too.  ``solution_to_dict`` writes the six required keys.

``verify_solution`` certifies exact edge coverage of K_v minus I with
``verify_factorization``, from the recomputed difference sets of the
base cycles, and diffs those sets against the annotated ``omega``
listings, which are read once into the inverse closure of their element
indices.  Reading a document needs groups and cycles alone: the
certifier in factors.py is imported by the first verify.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Collection, Iterable, Sequence

from .cycles import Cycle, CycleError, FactorRecipe, cycle
from .groups import ElementError, FiniteGroup, GroupError, Subgroup, build_group

if TYPE_CHECKING:
    from .factors import Certificate, OmegaReport
    from .search import SearchTarget

SOLUTION_IDS: tuple[str, ...] = (
    "48-5-18",
    "48-7-16",
    "48-9-14",
    "48-13-10",
    "48-15-8",
    "48-17-6",
    "24-7-4",
    "24-9-2",
    "24-5-6",
)

Err = type[ValueError]  # the format error a field reader raises


class SolutionFormatError(ValueError):
    """Malformed or inconsistent solution document."""


@dataclass(frozen=True)
class SolutionSpec:
    id: str
    group: FiniteGroup
    subgroups: Mapping[str, Subgroup]
    cycles: Mapping[str, Cycle]
    factors: tuple[FactorRecipe, ...]  # labelled F1, F2, ... in document order
    expected: tuple[int, int, int]
    # annotations: each omega listing as the inverse closure of its elements
    printed_omega: Mapping[str, frozenset[int]] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# field readers, shared with the search-target reader; each raises the
# caller's format error type


def _read_map(value, where: str, error: Err) -> Mapping:
    if not isinstance(value, Mapping):
        raise error(f"{where} must be a JSON object")
    return value


def _read_keys(doc, required: set[str], optional: set[str], where: str, error: Err) -> Mapping:
    """doc itself when it is a mapping with all required and no unknown keys."""
    keys = set(_read_map(doc, where, error))
    unknown = keys - required - optional
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown, key=str)}")
    missing = required - keys
    if missing:
        raise error(f"{where}: missing keys {sorted(missing)}")
    return doc


def _read_list(value, where: str, error: Err, allow_empty: bool = False) -> list:
    if not isinstance(value, list) or not (value or allow_empty):
        raise error(f"{where} must be a {'' if allow_empty else 'non-empty '}list")
    return value


def _read_name(value, where: str, error: Err) -> str:
    if not isinstance(value, str) or not value:
        raise error(f"{where} must be a non-empty string, got {value!r}")
    return value


def _read_ref(value, known: Collection[str], what: str, where: str, error: Err) -> str:
    """value when it names one of known; what says what kind of name it is."""
    if not isinstance(value, str) or value not in known:
        raise error(f"{where}: unknown {what} {value!r}")
    return value


def _strict_int(value, where: str, error: Err) -> int:
    """The value itself when it is an int; bools and other types raise error."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{where} must be an integer, got {value!r}")
    return value


def _read_group(value, error: Err) -> FiniteGroup:
    try:
        return build_group(value)
    except (GroupError, TypeError) as err:
        raise error(f"group: {err}") from err


def _read_elements(group: FiniteGroup, texts, where: str, error: Err) -> list[int]:
    """Element indices of a non-empty list of element texts."""
    out = []
    for t in _read_list(texts, where, error):
        if not isinstance(t, str):
            raise error(f"{where}: element text must be a string, got {t!r}")
        try:
            out.append(group.parse(t))
        except (ElementError, GroupError) as err:
            raise error(f"{where}: {err}") from err
    return out


def _read_subgroups(group: FiniteGroup, raw, error: Err) -> dict[str, Subgroup]:
    """Subgroups named in a ``subgroups`` map."""
    subgroups: dict[str, Subgroup] = {}
    for name, gens in _read_map(raw, "subgroups", error).items():
        if _read_name(name, "subgroup name", error) == "G":
            raise error("invalid subgroup name 'G': G denotes the whole group")
        subgroups[name] = group.subgroup_closure(
            _read_elements(group, gens, f"subgroups.{name}", error)
        )
    return subgroups


def _parse_json(text: str, error: Err):
    try:
        return json.loads(text)
    # ValueError: also an integer past the digit limit; RecursionError: deep nesting
    except (ValueError, RecursionError) as err:
        raise error(f"not valid JSON: {err}") from err


def _read_json_file(path: str, what: str, error: Err):
    """The JSON value in a UTF-8 file; any failure to read it raises error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise error(f"cannot read {what}: {err}") from err
    return _parse_json(text, error)


# ---------------------------------------------------------------------------
# solution documents


def _factor_recipes(
    group: FiniteGroup,
    subgroups: Mapping[str, Subgroup],
    cycles: Mapping[str, Cycle],
    factors: Iterable[tuple[Sequence[str], str]],
) -> tuple[FactorRecipe, ...]:
    """The factors of a solution from (cycle names, subgroup name) pairs in
    document order, labelled F1, F2, ...; the subgroup G is the group."""
    return tuple(
        FactorRecipe(
            f"F{n}",
            tuple((cn, cycles[cn]) for cn in names),
            sub,
            group.whole_subgroup() if sub == "G" else subgroups[sub],
        )
        for n, (names, sub) in enumerate(factors, start=1)
    )


def parse_solution_dict(doc: Mapping) -> SolutionSpec:
    """Validate a solution document and resolve it against its group."""
    E = SolutionFormatError
    _read_keys(
        doc,
        {"id", "group", "subgroups", "cycles", "factors", "expected"},
        {"annotations"},
        "solution",
        E,
    )
    sid = _read_name(doc["id"], "id", E)
    group = _read_group(doc["group"], E)
    subgroups = _read_subgroups(group, doc["subgroups"], E)

    raw_cycles = _read_map(doc["cycles"], "cycles", E)
    if not raw_cycles:
        raise E("cycles must be a non-empty mapping")
    cycles: dict[str, Cycle] = {}
    for name, verts in raw_cycles.items():
        where = f"cycles.{_read_name(name, 'cycle name', E)}"
        try:
            cycles[name] = cycle(group, _read_elements(group, verts, where, E))
        except CycleError as err:
            raise E(f"{where}: {err}") from err

    factors: list[tuple[tuple[str, ...], str]] = []
    for n, entry in enumerate(_read_list(doc["factors"], "factors", E)):
        where = f"factors[{n}]"
        _read_keys(entry, {"cycles", "subgroup"}, set(), where, E)
        names = tuple(
            _read_ref(cn, cycles, "cycle", where, E)
            for cn in _read_list(entry["cycles"], f"{where}.cycles", E)
        )
        sub = _read_ref(entry["subgroup"], ("G", *subgroups), "subgroup", where, E)
        factors.append((names, sub))
    if sorted(cn for names, _ in factors for cn in names) != sorted(cycles):
        raise E("every cycle must be used by exactly one factor recipe")

    expected_doc = _read_keys(doc["expected"], {"v", "r", "s"}, set(), "expected", E)
    expected = tuple(_strict_int(expected_doc[k], f"expected.{k}", E) for k in ("v", "r", "s"))
    if expected[0] != len(group):
        raise E(f"expected.v={expected[0]} does not match |{group.id}|={len(group)}")

    ann = _read_keys(doc.get("annotations", {}), set(), {"omega", "notes"}, "annotations", E)
    printed_omega = {}
    for cn, texts in _read_map(ann.get("omega", {}), "annotations.omega", E).items():
        _read_ref(cn, cycles, "cycle", "annotations.omega", E)
        listed = _read_elements(group, texts, f"annotations.omega.{cn}", E)
        printed_omega[cn] = frozenset(listed).union(map(group.inv, listed))
    notes = tuple(_read_list(ann.get("notes", []), "annotations.notes", E, allow_empty=True))
    if not all(isinstance(x, str) for x in notes):
        raise E("annotations.notes must be a list of strings")

    # read-only views: load_solution hands the same spec to every caller
    return SolutionSpec(
        id=sid,
        group=group,
        subgroups=MappingProxyType(subgroups),
        cycles=MappingProxyType(cycles),
        factors=_factor_recipes(group, subgroups, cycles, factors),
        expected=expected,
        printed_omega=MappingProxyType(printed_omega),
        notes=notes,
    )


def solution_to_dict(spec: SolutionSpec) -> dict:
    """The solution document for spec: its six required keys in document
    order, without annotations; parse_solution_dict reads it back."""
    G = spec.group
    return {
        "id": spec.id,
        "group": G.id,
        "subgroups": {n: [G.format(g) for g in s.generators] for n, s in spec.subgroups.items()},
        "cycles": {n: [G.format(v) for v in c.verts] for n, c in spec.cycles.items()},
        "factors": [
            {"cycles": [cn for cn, _ in f.cycles], "subgroup": f.subgroup_name}
            for f in spec.factors
        ],
        "expected": dict(zip(("v", "r", "s"), spec.expected)),
    }


def parse_solution_text(text: str) -> SolutionSpec:
    return parse_solution_dict(_parse_json(text, SolutionFormatError))


@lru_cache(maxsize=None)
def load_solution(sid: str) -> SolutionSpec:
    """Load one of the bundled solutions by id."""
    if sid not in SOLUTION_IDS:
        raise SolutionFormatError(
            f"unknown solution id {sid!r}; known: {', '.join(SOLUTION_IDS)}"
        )
    text = resources.files("hwpreg.data").joinpath(f"{sid}.json").read_text("utf-8")
    spec = parse_solution_text(text)
    if spec.id != sid:
        raise SolutionFormatError(f"data file for {sid} declares id {spec.id!r}")
    return spec


def load_solution_file(path: str) -> SolutionSpec:
    return parse_solution_dict(_read_json_file(path, "solution", SolutionFormatError))


def resolve_subgroup(spec: SolutionSpec | SearchTarget, name: str) -> Subgroup:
    """The subgroup a solution or search target calls name; G is the group."""
    if name == "G":
        return spec.group.whole_subgroup()
    return spec.subgroups[name]


def _closure_texts(group: FiniteGroup, members: AbstractSet[int]) -> tuple[str, ...]:
    return tuple(group.format(x) for x in sorted(members))


def omega_reports(spec: SolutionSpec, omegas: Mapping) -> tuple[OmegaReport, ...]:
    """The recomputed difference sets omegas, by cycle name, beside the
    annotated listings."""
    from .factors import OmegaReport

    G, printed = spec.group, spec.printed_omega
    return tuple(
        OmegaReport(
            cn,
            _closure_texts(G, omegas[cn]),
            _closure_texts(G, printed[cn]) if cn in printed else None,
        )
        for cn in spec.cycles
    )


def verify_solution(spec: SolutionSpec) -> Certificate:
    """Certify a solution end to end (see verify_factorization); the diffs
    against the annotated omega listings never affect the verdict."""
    from .factors import verify_factorization

    cert = verify_factorization(spec.group, spec.factors, expected=spec.expected)
    omegas = {cn: c._omega for cn, c in spec.cycles.items()}
    return replace(
        cert, solution_id=spec.id, omega=omega_reports(spec, omegas), notes=spec.notes
    )
