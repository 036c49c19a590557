"""One strict reader and one writer for solution and target documents."""

import copy
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hwpreg
from hwpreg.groups import FiniteGroup
from hwpreg.cli import main
from hwpreg.search import TargetFormatError, parse_target_dict, parse_target_text, search_hwp
from hwpreg.solutions import (
    SOLUTION_IDS,
    SolutionFormatError,
    load_solution,
    parse_solution_dict,
    parse_solution_text,
    solution_to_dict,
)

TARGET_24_9_2 = {
    "group": "Q24",
    "target": {"r": 9, "s": 2},
    "signature": [
        {"cycle_length": 4, "orbit_length": 1, "subgroup": "G"},
        {"cycle_length": 4, "orbit_length": 1, "subgroup": "G"},
        {"cycle_length": 3, "orbit_length": 3, "subgroup": "L"},
        {"cycle_length": 3, "orbit_length": 6, "subgroup": "H"},
    ],
    "subgroups": {"L": ["a2b", "a3"], "H": ["b"]},
}

# wrong-typed fields; each must raise the format error, not a TypeError
MALFORMED = {
    "omega-list": (
        "solution",
        lambda d: d["annotations"].update(omega=["C1"]),
        "annotations.omega must be a JSON object",
    ),
    "stabilizers-list": (
        "solution",
        lambda d: d["annotations"].update(stabilizers=["C1"]),
        r"annotations: unknown keys \['stabilizers'\]",
    ),
    "subgroup-members-string": (
        "solution",
        lambda d: d["annotations"].update(subgroup_members="H"),
        r"annotations: unknown keys \['subgroup_members'\]",
    ),
    "mismatches-nested": (
        "solution",
        lambda d: d["annotations"].update(omega_mismatches_expected=[["C1"]]),
        r"annotations: unknown keys \['omega_mismatches_expected'\]",
    ),
    "factor-subgroup-list": (
        "solution",
        lambda d: d["factors"][0].update(subgroup=["G"]),
        r"factors\[0\]: unknown subgroup",
    ),
    "factor-cycles-nested": (
        "solution",
        lambda d: d["factors"][0].update(cycles=[["C1"]]),
        r"factors\[0\]: unknown cycle",
    ),
    "signature-subgroup-list": (
        "target",
        lambda d: d["signature"][0].update(subgroup=["G"]),
        r"signature\[0\]: unknown subgroup",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_wrong_types_raise_the_format_error(doc_copy, case):
    kind, mutate, fragment = MALFORMED[case]
    if kind == "solution":
        doc, parse, error = doc_copy("24-9-2"), parse_solution_dict, SolutionFormatError
    else:
        doc, parse, error = copy.deepcopy(TARGET_24_9_2), parse_target_dict, TargetFormatError
    mutate(doc)
    with pytest.raises(error, match=fragment):
        parse(doc)


@pytest.mark.parametrize(
    "parse,error",
    [(parse_solution_text, SolutionFormatError), (parse_target_text, TargetFormatError)],
)
def test_too_deeply_nested_json_is_not_valid_json(parse, error):
    texts = ["[" * 100_000 + "]" * 100_000]
    # and an integer literal longer than the interpreter's digit limit,
    # where there is one (Python 3.11, and 3.10.7 on)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        texts.append("[" + "7" * (limit + 1) + "]")
    for text in texts:
        with pytest.raises(error, match="not valid JSON"):
            parse(text)


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_solution_to_dict_round_trips(sid):
    spec = load_solution(sid)
    doc = solution_to_dict(spec)
    assert list(doc) == ["id", "group", "subgroups", "cycles", "factors", "expected"]
    bare = replace(spec, printed_omega={}, notes=())
    assert parse_solution_dict(doc) == bare


def test_solution_to_dict_reproduces_a_found_document():
    outcome = search_hwp(parse_target_dict(TARGET_24_9_2))
    assert outcome.verdict == "found"
    again = solution_to_dict(parse_solution_dict(outcome.solution))
    assert json.dumps(again) == json.dumps(outcome.solution)  # key order too


def test_generators_are_written_in_canonical_spelling(doc_copy, tmp_path, capsys):
    doc = doc_copy("24-9-2")
    doc["subgroups"]["L"] = ["a2b", "a03", "a03"]
    spec = parse_solution_dict(doc)
    assert solution_to_dict(spec)["subgroups"]["L"] == ["a2b", "a3"]
    assert parse_solution_dict(solution_to_dict(spec)).subgroups == spec.subgroups
    path = tmp_path / "spelled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["export", str(path), "--format", "canonical"]) == 0
    assert json.loads(capsys.readouterr().out)["subgroups"]["L"] == ["a2b", "a3"]


PUBLIC_NAMES = [
    "CERTIFICATE_FORMAT",
    "Certificate",
    "Cycle",
    "CycleError",
    "CycleOrbit",
    "ElementError",
    "FactorRecipe",
    "FactorReport",
    "FiniteGroup",
    "GROUP_IDS",
    "GroupError",
    "OmegaReport",
    "RecipeError",
    "SOLUTION_IDS",
    "SearchOutcome",
    "SearchStats",
    "SearchTarget",
    "SignatureEntry",
    "SolutionFormatError",
    "SolutionSpec",
    "Subgroup",
    "TargetFormatError",
    "TwoFactor",
    "assemble_factor",
    "build_group",
    "cycle",
    "cycle_orbit",
    "cycle_stabilizer",
    "factor_orbit",
    "factor_stabilizer",
    "load_solution",
    "load_solution_file",
    "load_target_file",
    "omega_representatives",
    "parse_solution_dict",
    "parse_solution_text",
    "parse_target_dict",
    "parse_target_text",
    "partial_differences",
    "resolve_subgroup",
    "search_hwp",
    "solution_to_dict",
    "target_from_solution",
    "verify_factorization",
    "verify_solution",
]


def test_public_surface_is_pinned():
    # adding to or removing from the public surface is a deliberate edit here
    assert sorted(hwpreg.__all__) == PUBLIC_NAMES
    assert all(hasattr(hwpreg, name) for name in PUBLIC_NAMES)


def test_readme_verify_example_is_the_start_of_its_output(capsys):
    # the human certificate README shows, down to its "..." line
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("```\nsolution 24-9-2: PASS\n", 1)[1].split("```", 1)[0]
    example = ["solution 24-9-2: PASS", *block.split("\n  ...\n", 1)[0].splitlines()]
    assert main(["verify", "24-9-2"]) == 0
    assert capsys.readouterr().out.splitlines()[: len(example)] == example
    assert len(example) == 10


def test_readme_search_example_is_found_and_verifies(tmp_path, capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Search targets\n", 1)[1]
    target, found = tmp_path / "target.json", tmp_path / "found.json"
    target.write_text(section.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    assert main(["search", str(target), "--format", "canonical", "--out", str(found)]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["verdict"] == "found"
    assert outcome["stats"]["nodes"] == 5469
    assert main(["verify", str(found)]) == 0
    assert capsys.readouterr().out.startswith("solution search-Q24-9-2: PASS")


def test_reads_share_one_subgroup_per_listing(raw_docs):
    first = parse_target_dict(TARGET_24_9_2)
    again = parse_target_dict(copy.deepcopy(TARGET_24_9_2))
    assert [first.subgroups[n] for n in "LH"] == [again.subgroups[n] for n in "LH"]
    assert all(first.subgroups[n] is again.subgroups[n] for n in "LH")
    for sid, doc in raw_docs.items():
        first, again = parse_solution_dict(doc), parse_solution_dict(copy.deepcopy(doc))
        assert first.subgroups.keys() == again.subgroups.keys()
        assert all(first.subgroups[n] is again.subgroups[n] for n in first.subgroups), sid
    # a listing that cannot be read raises on every read
    bad = copy.deepcopy(TARGET_24_9_2)
    bad["subgroups"]["L"] = ["a2b", "a13"]
    for _ in range(3):
        with pytest.raises(TargetFormatError, match="subgroups.L"):
            parse_target_dict(bad)


def test_outputs_are_the_same_from_a_cold_and_a_warm_table(tmp_path, raw_docs, capsys):
    # what the shared subgroup and element-text tables hold never shows in a
    # canonical search or verify output; only stats.seconds may differ
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TARGET_24_9_2), encoding="utf-8")
    argvs = [["search", str(target), "--format", "canonical"]]
    for sid in SOLUTION_IDS:
        (tmp_path / f"{sid}.json").write_text(json.dumps(raw_docs[sid]), encoding="utf-8")
        argvs.append(["verify", str(tmp_path / f"{sid}.json"), "--format", "canonical"])

    def outputs():
        out = []
        for argv in argvs:
            assert main(argv) == 0
            out.append(re.sub(r'"seconds":[-+.\deE]+', '"seconds":null', capsys.readouterr().out))
        return out

    FiniteGroup._shared_subgroup.cache_clear()
    FiniteGroup.parse.cache_clear()
    cold = outputs()
    assert outputs() == cold
    assert cold[0].count('"seconds":null') == 1


def test_readme_library_section_names_only_public_api():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = [t for t in re.findall(r"`([^`\n]+)`", prose) if t.isidentifier()]
    assert "build_group" in names
    assert [t for t in names if not hasattr(hwpreg, t)] == []
    # and every public function is named there
    assert [t for t in hwpreg.__all__ if t.islower() and t not in names] == []
