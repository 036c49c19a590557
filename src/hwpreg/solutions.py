"""Bundled 2-factorization solutions and the strict solution-file format.

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
               inverse pair), ``stabilizers`` (map cycle name to
               ``trivial`` or ``vertices``), ``subgroup_members`` (map
               subgroup name to the full claimed member list),
               ``omega_mismatches_expected`` (cycle names whose annotated
               listing is known not to match), and ``notes`` (strings).

Unknown keys anywhere are rejected.  ``verify_solution`` recomputes all
difference sets, checks they partition the group minus the identity and
its involution, certifies exact edge coverage of K_v minus I, and diffs
the recomputed difference sets against the annotated listings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Mapping, Optional, Sequence

from .cycles import (
    Cycle,
    CycleError,
    cycle_from_texts,
    partial_differences,
    verify_partition,
)
from .factors import (
    Certificate,
    FactorRecipe,
    OmegaReport,
    RecipePart,
    verify_factorization,
)
from .groups import ElementError, FiniteGroup, GroupError, Subgroup, build_group

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

_STABILIZER_CLAIMS = ("trivial", "vertices")


class SolutionFormatError(ValueError):
    """Malformed or inconsistent solution document."""


@dataclass(frozen=True)
class SolutionSpec:
    id: str
    group: FiniteGroup
    subgroups: Mapping[str, Subgroup]
    subgroup_generators: Mapping[str, tuple[str, ...]]
    cycles: Mapping[str, Cycle]
    factors: tuple[tuple[tuple[str, ...], str], ...]  # (cycle names, subgroup)
    expected: tuple[int, int, int]
    printed_omega: Mapping[str, tuple[str, ...]]
    stabilizer_claims: Mapping[str, str]
    subgroup_member_claims: Mapping[str, tuple[str, ...]]
    expected_omega_mismatches: tuple[str, ...]
    notes: tuple[str, ...]


def list_solutions() -> tuple[str, ...]:
    """Deterministically ordered ids of the bundled solutions."""
    return SOLUTION_IDS


def _require_keys(doc: Mapping, required: set[str], optional: set[str], where: str) -> None:
    keys = set(doc)
    unknown = keys - required - optional
    if unknown:
        raise SolutionFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise SolutionFormatError(f"{where}: missing keys {sorted(missing)}")


def _strict_int(value, where: str, error: type[ValueError]) -> int:
    """The value itself when it is an int; bools and other types raise error."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{where} must be an integer, got {value!r}")
    return value


def _parse_elements(group: FiniteGroup, texts: Sequence, where: str) -> list[int]:
    if not isinstance(texts, (list, tuple)) or not texts:
        raise SolutionFormatError(f"{where}: expected a non-empty list of element texts")
    out = []
    for t in texts:
        if not isinstance(t, str):
            raise SolutionFormatError(f"{where}: element text must be a string, got {t!r}")
        try:
            out.append(group.parse(t))
        except (ElementError, GroupError) as err:
            raise SolutionFormatError(f"{where}: {err}") from err
    return out


def parse_solution_dict(doc: Mapping) -> SolutionSpec:
    """Validate a solution document and resolve it against its group."""
    if not isinstance(doc, Mapping):
        raise SolutionFormatError("solution document must be a JSON object")
    _require_keys(
        doc,
        {"id", "group", "subgroups", "cycles", "factors", "expected"},
        {"annotations"},
        "solution",
    )
    sid = doc["id"]
    if not isinstance(sid, str) or not sid:
        raise SolutionFormatError("id must be a non-empty string")
    try:
        group = build_group(doc["group"])
    except (GroupError, TypeError) as err:
        raise SolutionFormatError(f"group: {err}") from err

    raw_subgroups = doc["subgroups"]
    if not isinstance(raw_subgroups, Mapping):
        raise SolutionFormatError("subgroups must be a mapping")
    subgroups: dict[str, Subgroup] = {}
    subgroup_generators: dict[str, tuple[str, ...]] = {}
    for name, gens in raw_subgroups.items():
        if not isinstance(name, str) or not name or name == "G":
            raise SolutionFormatError(f"invalid subgroup name {name!r}")
        idxs = _parse_elements(group, gens, f"subgroups.{name}")
        subgroups[name] = group.subgroup_closure(idxs)
        subgroup_generators[name] = tuple(gens)

    raw_cycles = doc["cycles"]
    if not isinstance(raw_cycles, Mapping) or not raw_cycles:
        raise SolutionFormatError("cycles must be a non-empty mapping")
    cycles: dict[str, Cycle] = {}
    for name, verts in raw_cycles.items():
        if not isinstance(name, str) or not name:
            raise SolutionFormatError(f"invalid cycle name {name!r}")
        _parse_elements(group, verts, f"cycles.{name}")
        try:
            cycles[name] = cycle_from_texts(group, list(verts))
        except CycleError as err:
            raise SolutionFormatError(f"cycles.{name}: {err}") from err

    raw_factors = doc["factors"]
    if not isinstance(raw_factors, list) or not raw_factors:
        raise SolutionFormatError("factors must be a non-empty list")
    factors: list[tuple[tuple[str, ...], str]] = []
    used: list[str] = []
    for n, entry in enumerate(raw_factors):
        where = f"factors[{n}]"
        if not isinstance(entry, Mapping):
            raise SolutionFormatError(f"{where}: expected an object")
        _require_keys(entry, {"cycles", "subgroup"}, set(), where)
        names = entry["cycles"]
        if not isinstance(names, list) or not names:
            raise SolutionFormatError(f"{where}: cycles must be a non-empty list")
        for cn in names:
            if cn not in cycles:
                raise SolutionFormatError(f"{where}: unknown cycle {cn!r}")
            used.append(cn)
        sub = entry["subgroup"]
        if sub != "G" and sub not in subgroups:
            raise SolutionFormatError(f"{where}: unknown subgroup {sub!r}")
        factors.append((tuple(names), sub))
    if sorted(used) != sorted(cycles):
        raise SolutionFormatError(
            "every cycle must be used by exactly one factor recipe"
        )

    expected_doc = doc["expected"]
    if not isinstance(expected_doc, Mapping):
        raise SolutionFormatError("expected must be a mapping")
    _require_keys(expected_doc, {"v", "r", "s"}, set(), "expected")
    expected = tuple(
        _strict_int(expected_doc[k], f"expected.{k}", SolutionFormatError)
        for k in ("v", "r", "s")
    )
    if expected[0] != len(group):
        raise SolutionFormatError(
            f"expected.v={expected[0]} does not match |{group.id}|={len(group)}"
        )

    printed_omega: dict[str, tuple[str, ...]] = {}
    stab_claims: dict[str, str] = {}
    member_claims: dict[str, tuple[str, ...]] = {}
    mismatches: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    ann = doc.get("annotations", {})
    if ann:
        if not isinstance(ann, Mapping):
            raise SolutionFormatError("annotations must be a mapping")
        _require_keys(
            ann,
            set(),
            {"omega", "stabilizers", "subgroup_members", "omega_mismatches_expected", "notes"},
            "annotations",
        )
        for cn, texts in ann.get("omega", {}).items():
            if cn not in cycles:
                raise SolutionFormatError(f"annotations.omega: unknown cycle {cn!r}")
            _parse_elements(group, texts, f"annotations.omega.{cn}")
            printed_omega[cn] = tuple(texts)
        for cn, claim in ann.get("stabilizers", {}).items():
            if cn not in cycles:
                raise SolutionFormatError(f"annotations.stabilizers: unknown cycle {cn!r}")
            if claim not in _STABILIZER_CLAIMS:
                raise SolutionFormatError(
                    f"annotations.stabilizers.{cn}: claim must be one of {_STABILIZER_CLAIMS}"
                )
            stab_claims[cn] = claim
        for sn, texts in ann.get("subgroup_members", {}).items():
            if sn not in subgroups:
                raise SolutionFormatError(
                    f"annotations.subgroup_members: unknown subgroup {sn!r}"
                )
            member_claims[sn] = tuple(texts)
            _parse_elements(group, texts, f"annotations.subgroup_members.{sn}")
        raw_mm = ann.get("omega_mismatches_expected", [])
        if not isinstance(raw_mm, list):
            raise SolutionFormatError("annotations.omega_mismatches_expected must be a list")
        for cn in raw_mm:
            if cn not in cycles:
                raise SolutionFormatError(
                    f"annotations.omega_mismatches_expected: unknown cycle {cn!r}"
                )
        mismatches = tuple(raw_mm)
        raw_notes = ann.get("notes", [])
        if not isinstance(raw_notes, list) or not all(isinstance(x, str) for x in raw_notes):
            raise SolutionFormatError("annotations.notes must be a list of strings")
        notes = tuple(raw_notes)

    return SolutionSpec(
        id=sid,
        group=group,
        subgroups=subgroups,
        subgroup_generators=subgroup_generators,
        cycles=cycles,
        factors=tuple(factors),
        expected=expected,
        printed_omega=printed_omega,
        stabilizer_claims=stab_claims,
        subgroup_member_claims=member_claims,
        expected_omega_mismatches=mismatches,
        notes=notes,
    )


def parse_solution_text(text: str) -> SolutionSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SolutionFormatError(f"not valid JSON: {err}") from err
    return parse_solution_dict(doc)


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solution_text(fh.read())


def resolve_subgroup(spec: SolutionSpec, name: str) -> Subgroup:
    if name == "G":
        return spec.group.whole_subgroup()
    return spec.subgroups[name]


def solution_recipes(spec: SolutionSpec) -> list[FactorRecipe]:
    """The factor recipes of a solution, in document order, labelled F1.."""
    recipes = []
    for n, (names, sub_name) in enumerate(spec.factors, start=1):
        sub = resolve_subgroup(spec, sub_name)
        parts = tuple(
            RecipePart(spec.cycles[cn], sub, cn, sub_name) for cn in names
        )
        recipes.append(FactorRecipe(f"F{n}", parts))
    return recipes


def _closure_texts(group: FiniteGroup, members: set[int]) -> tuple[str, ...]:
    return tuple(group.format(x) for x in sorted(members))


def omega_reports(spec: SolutionSpec) -> tuple[OmegaReport, ...]:
    """Diff recomputed difference sets against the annotated listings."""
    G = spec.group
    reports = []
    for cn, c in spec.cycles.items():
        recomputed = set(partial_differences(c).members)
        printed_texts = spec.printed_omega.get(cn)
        if printed_texts is None:
            reports.append(OmegaReport(cn, _closure_texts(G, recomputed), None, None))
            continue
        printed: set[int] = set()
        for t in printed_texts:
            x = G.parse(t)
            printed.add(x)
            printed.add(G.inv(x))
        reports.append(
            OmegaReport(
                cn,
                _closure_texts(G, recomputed),
                _closure_texts(G, printed),
                printed == recomputed,
                _closure_texts(G, recomputed - printed),
                _closure_texts(G, printed - recomputed),
            )
        )
    return tuple(reports)


def verify_solution(spec: SolutionSpec) -> Certificate:
    """Certify a solution end to end; annotation diffs never affect the verdict,
    except that the recomputed difference sets must partition G."""
    recipes = solution_recipes(spec)
    omegas = omega_reports(spec)
    partition = verify_partition(
        spec.group, [partial_differences(c) for c in spec.cycles.values()]
    )
    cert = verify_factorization(spec.group, recipes, expected=spec.expected)
    cert = replace(
        cert,
        solution_id=spec.id,
        partition_ok=partition.ok,
        partition_size=partition.union_size,
        omega=omegas,
        notes=spec.notes,
    )
    if cert.ok and not partition.ok:
        if partition.overlaps:
            witness = {
                "kind": "difference-overlap",
                "element": spec.group.format(partition.overlaps[0][0]),
                "count": partition.overlaps[0][1],
            }
        elif partition.missing:
            witness = {
                "kind": "difference-missing",
                "element": spec.group.format(partition.missing[0]),
            }
        else:
            witness = {
                "kind": "difference-forbidden",
                "element": spec.group.format(partition.forbidden[0]),
            }
        cert = replace(
            cert,
            ok=False,
            failure="difference sets do not partition G minus the identity and involution",
            witness=witness,
        )
    return cert


def verify_solution_by_id(sid: str) -> Certificate:
    return verify_solution(load_solution(sid))
