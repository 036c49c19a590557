"""Bundled solutions: format strictness, loading, annotations, verification."""

import functools
import json
import re

import pytest

import hwpreg.cycles
from helpers import verify_solution_by_id
from hwpreg import cli
from hwpreg.cycles import Cycle, partial_differences
from hwpreg.factors import OmegaReport
from hwpreg.groups import FiniteGroup
from hwpreg.solutions import (
    SOLUTION_IDS,
    SolutionFormatError,
    load_solution,
    load_solution_file,
    omega_reports,
    parse_solution_dict,
    resolve_subgroup,
    verify_solution,
)


def test_list_solutions_order():
    assert len(SOLUTION_IDS) == 9


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_ids_encode_parameters(sid):
    spec = load_solution(sid)
    v, r, s = spec.expected
    assert sid == f"{v}-{r}-{s}"
    assert v == len(spec.group)


def test_load_solution_unknown_id():
    with pytest.raises(SolutionFormatError):
        load_solution("48-1-22")


@pytest.mark.parametrize("sid", ("24-9-2", "24-5-6", "48-13-10"))
def test_verify_by_id(sid):
    cert = verify_solution_by_id(sid)
    assert cert.ok and cert.solution_id == sid


def test_loaded_spec_mappings_are_read_only(capsys):
    # load_solution is cached, so a caller that could edit its spec would
    # change what every later caller in the process verifies; the attempts
    # below leave a plain dict as it was, so a failure here spoils no other test
    spec = load_solution("24-9-2")
    for mapping in (
        spec.subgroups,
        spec.cycles,
        spec.printed_omega,
    ):
        with pytest.raises(TypeError):
            del mapping["no such key"]
    with pytest.raises(TypeError):
        spec.cycles["C5"] = spec.cycles["C5"]
    assert not hasattr(spec.cycles, "pop")
    assert cli.main(["verify", "24-9-2"]) == 0
    assert capsys.readouterr().out.startswith("solution 24-9-2: PASS")


def test_every_cycle_used_exactly_once():
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        used = [cn for f in spec.factors for cn, _ in f.cycles]
        assert sorted(used) == sorted(spec.cycles)


def test_resolve_subgroup():
    spec = load_solution("24-9-2")
    assert resolve_subgroup(spec, "G").order == 24
    assert resolve_subgroup(spec, "H").order == 4


def _omega_reports(spec):
    return omega_reports(spec, {cn: c._omega for cn, c in spec.cycles.items()})


def test_omega_reports_all_match():
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        for report in _omega_reports(spec):
            assert report.match is True, (sid, report.cycle_name)
            assert report.only_recomputed == () and report.only_printed == ()
            assert set(report.recomputed) == set(report.printed)


def test_verify_solution_parses_no_element_text(monkeypatch):
    # the omega listings are read into element indices with the document
    spec = load_solution("48-17-6")
    calls = []
    orig = FiniteGroup.parse

    def counted(self, text):
        calls.append(text)
        return orig(self, text)

    monkeypatch.setattr(FiniteGroup, "parse", counted)
    assert verify_solution(spec).ok
    assert calls == []


def test_verify_solution_computes_each_difference_set_once(monkeypatch, raw_docs):
    # one Omega mask per base cycle serves the partition, the orbit-length
    # test and the omega reports, and a second verify computes none; no
    # verify builds a difference set
    spec = parse_solution_dict(raw_docs["48-17-6"])
    calls = []
    orig = Cycle.__dict__["_omega"].func

    def counted(c):
        calls.append(c)
        return orig(c)

    mask = functools.cached_property(counted)
    mask.__set_name__(Cycle, "_omega")
    monkeypatch.setattr(Cycle, "_omega", mask)
    monkeypatch.setattr(hwpreg.cycles, "partial_differences", None)
    assert verify_solution(spec).ok and verify_solution(spec).ok
    assert sorted(c.verts for c in calls) == sorted(c.verts for c in spec.cycles.values())
    assert {c._omega for c in calls} == {
        sum(1 << x for x in partial_differences(c)) for c in spec.cycles.values()
    }


def test_hand_built_omega_reports_derive_their_differences():
    # match and the one-sided listings are read off the two listings, so a
    # report built by hand is right whether its sides are equal or not
    unequal = OmegaReport("C1", ("a", "a11", "b"), ("a", "a3b", "b"))
    assert (unequal.match, unequal.only_recomputed, unequal.only_printed) == (
        False, ("a11",), ("a3b",)
    )
    for printed in (("a", "b"), tuple(["a", "b"])):
        equal = OmegaReport("C1", ("a", "b"), printed)
        assert (equal.match, equal.only_recomputed, equal.only_printed) == (True, (), ())
    bare = OmegaReport("C1", ("a", "b"), None)
    assert (bare.match, bare.only_recomputed, bare.only_printed) == (None, (), ())


def test_omega_report_without_annotation(doc_copy):
    doc = doc_copy("24-9-2")
    del doc["annotations"]["omega"]["C1"]
    spec = parse_solution_dict(doc)
    by_name = {r.cycle_name: r for r in _omega_reports(spec)}
    assert by_name["C1"].match is None and by_name["C1"].printed is None
    assert by_name["C2"].match is True


def test_load_solution_file_round_trip(tmp_path, raw_docs):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(raw_docs["24-7-4"]), encoding="utf-8")
    spec = load_solution_file(str(path))
    assert spec.id == "24-7-4"
    assert verify_solution(spec).ok


def _expect_format_error(doc, fragment):
    with pytest.raises(SolutionFormatError, match=fragment):
        parse_solution_dict(doc)


def test_rejects_non_mapping():
    _expect_format_error([], "JSON object")


@pytest.mark.parametrize("value", ["24", 24.0, True, None])
@pytest.mark.parametrize("key", ["v", "r", "s"])
def test_rejects_non_integer_expected(doc_copy, key, value):
    doc = doc_copy("24-9-2")
    doc["expected"][key] = value
    _expect_format_error(doc, re.escape(f"expected.{key} must be an integer"))


def test_rejects_unknown_top_level_key(doc_copy):
    doc = doc_copy("24-9-2")
    doc["comment"] = "hi"
    _expect_format_error(doc, "unknown keys")


def test_rejects_missing_key(doc_copy):
    doc = doc_copy("24-9-2")
    del doc["factors"]
    _expect_format_error(doc, "missing keys")


def test_rejects_bad_group(doc_copy):
    doc = doc_copy("24-9-2")
    doc["group"] = "A5"
    _expect_format_error(doc, "group")


def test_rejects_subgroup_named_g(doc_copy):
    doc = doc_copy("24-9-2")
    doc["subgroups"]["G"] = ["a"]
    _expect_format_error(doc, "subgroup name")


def test_rejects_bad_generator(doc_copy):
    doc = doc_copy("24-9-2")
    doc["subgroups"]["H"] = ["zz"]
    _expect_format_error(doc, "subgroups.H")


def test_rejects_degenerate_cycle(doc_copy):
    doc = doc_copy("24-9-2")
    doc["cycles"]["C1"] = ["1", "a"]
    _expect_format_error(doc, "cycles.C1")


def test_rejects_repeated_vertex(doc_copy):
    doc = doc_copy("24-9-2")
    doc["cycles"]["C3"][1] = doc["cycles"]["C3"][0]
    _expect_format_error(doc, "cycles.C3")


def test_rejects_unknown_cycle_in_factor(doc_copy):
    doc = doc_copy("24-9-2")
    doc["factors"][0]["cycles"] = ["C99"]
    _expect_format_error(doc, "unknown cycle")


def test_rejects_unknown_subgroup_in_factor(doc_copy):
    doc = doc_copy("24-9-2")
    doc["factors"][0]["subgroup"] = "Z"
    _expect_format_error(doc, "unknown subgroup")


def test_rejects_unused_cycle(doc_copy):
    doc = doc_copy("24-9-2")
    doc["cycles"]["C9"] = ["1", "a", "a2"]
    _expect_format_error(doc, "exactly one factor")


def test_rejects_cycle_used_twice(doc_copy):
    doc = doc_copy("24-9-2")
    doc["factors"][0]["cycles"] = ["C1", "C2"]
    _expect_format_error(doc, "exactly one factor")


def test_rejects_expected_order_mismatch(doc_copy):
    doc = doc_copy("24-9-2")
    doc["expected"]["v"] = 48
    _expect_format_error(doc, "expected.v")


def test_rejects_extra_expected_key(doc_copy):
    doc = doc_copy("24-9-2")
    doc["expected"]["t"] = 1
    _expect_format_error(doc, "unknown keys")


def test_rejects_unknown_annotation_key(doc_copy):
    doc = doc_copy("24-9-2")
    doc["annotations"]["remarks"] = "x"
    _expect_format_error(doc, "unknown keys")


# annotation kinds that verify never checked, each with a value it once accepted
REMOVED_ANNOTATIONS = {
    "stabilizers": {"C1": "vertices"},
    "subgroup_members": {"H": ["1", "b", "a6", "a6b"]},
    "omega_mismatches_expected": [],
}


@pytest.mark.parametrize("key", REMOVED_ANNOTATIONS)
def test_removed_annotation_kinds_are_refused(doc_copy, tmp_path, capsys, key):
    doc = doc_copy("24-9-2")
    doc["annotations"][key] = REMOVED_ANNOTATIONS[key]
    _expect_format_error(doc, re.escape(f"annotations: unknown keys ['{key}']"))
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and key in err


def test_rejects_omega_for_unknown_cycle(doc_copy):
    doc = doc_copy("24-9-2")
    doc["annotations"]["omega"]["C99"] = ["a"]
    _expect_format_error(doc, "unknown cycle")


def test_rejects_bad_omega_element(doc_copy):
    doc = doc_copy("24-9-2")
    doc["annotations"]["omega"]["C1"] = ["nope"]
    _expect_format_error(doc, "annotations.omega.C1")


def test_rejects_bad_notes(doc_copy):
    doc = doc_copy("24-9-2")
    doc["annotations"]["notes"] = [1, 2]
    _expect_format_error(doc, "notes")


def test_corrupted_vertex_fails_verification(doc_copy):
    doc = doc_copy("24-9-2")
    doc["cycles"]["C3"][0] = "a7"  # was the identity
    spec = parse_solution_dict(doc)
    cert = verify_solution(spec)
    assert not cert.ok
    assert cert.witness is not None or cert.failure


def test_verify_records_broken_partition(doc_copy):
    # nudging one vertex of C4 shifts its differences onto other cycles,
    # so the partition diagnostics must flag the collision
    doc = doc_copy("24-9-2")
    doc["cycles"]["C4"][1] = "a10b"
    spec = parse_solution_dict(doc)
    cert = verify_solution(spec)
    assert not cert.ok
    assert cert.partition_ok is False
    assert "BROKEN" in cert.human_text()
