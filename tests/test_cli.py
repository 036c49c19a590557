"""End-to-end checks of the command line interface via ``main``."""

import argparse
import hashlib
import json
import re

import pytest

import verify_oracle
from helpers import cycle_edges
from hwpreg import cli
from hwpreg.cli import main
from hwpreg.solutions import SOLUTION_IDS, load_solution, parse_solution_dict, verify_solution

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
    "budget": {"nodes": 10_000_000},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_human(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == len(SOLUTION_IDS) == 9
    assert lines[0].startswith("48-5-18") and "2O" in lines[0]
    assert any("SL23" in line and "r=5" in line for line in lines)


def test_list_canonical_is_byte_deterministic(capsys):
    first = run(capsys, "list", "--format", "canonical")
    second = run(capsys, "list", "--format", "canonical")
    assert first == second
    rows = json.loads(first[1])
    assert [row["id"] for row in rows] == list(SOLUTION_IDS)
    assert rows[0] == {"id": "48-5-18", "group": "2O", "v": 48, "r": 5, "s": 18}


def test_verify_bundled_passes(capsys):
    code, out, _ = run(capsys, "verify", "24-7-4")
    assert code == 0
    assert "PASS" in out and "264/264" in out


def test_verify_canonical_deterministic(capsys):
    first = run(capsys, "verify", "48-9-14", "--format", "canonical")
    second = run(capsys, "verify", "48-9-14", "--format", "canonical")
    assert first == second and first[0] == 0
    doc = json.loads(first[1])
    assert doc["verdict"] == "pass"
    assert (doc["v"], doc["r"], doc["s"]) == (48, 9, 14)


def test_verify_out_writes_canonical_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", "24-9-2", "--out", str(path))
    assert code == 0 and "PASS" in out  # stdout stays human
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["verdict"] == "pass"
    assert doc["edge_coverage"]["covered_once"] == 264


def test_verify_corrupted_file_fails_with_witness(tmp_path, capsys, doc_copy):
    doc = doc_copy("24-9-2")
    doc["cycles"]["C4"][1] = "a10b"
    doc.pop("annotations", None)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_verify_unknown_token(capsys):
    code, out, err = run(capsys, "verify", "no-such-solution")
    assert code == 2 and out == ""
    assert "neither a bundled solution id nor a file" in err


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"id": "x"}', encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "bad solution document" in err


def test_omega_human_exact(capsys):
    code, out, _ = run(capsys, "omega", "48-5-18", "C4")
    assert code == 0
    assert out == "{k}^{±1}\n"


def test_omega_canonical(capsys):
    code, out, _ = run(capsys, "omega", "24-9-2", "C3", "--format", "canonical")
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"] == "24-9-2" and doc["cycle"] == "C3"
    assert len(doc["members"]) == 2 * len(doc["representatives"])


def test_omega_unknown_cycle(capsys):
    code, _, err = run(capsys, "omega", "24-9-2", "C9")
    assert code == 2 and "unknown cycle" in err


def test_orbit_human(capsys):
    code, out, _ = run(capsys, "orbit", "24-9-2", "C4", "H")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Orb[H](C4): 4 cycles of length 3, stabilizer order 1"
    assert len(lines) == 5 and lines[1] == "  (1, a3b, a8b)"


def test_orbit_canonical(capsys):
    code, out, _ = run(capsys, "orbit", "24-9-2", "C4", "H", "--format", "canonical")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_length"] == 4 and doc["stabilizer_order"] == 1
    assert len(doc["cycles"]) == 4 and all(len(c) == 3 for c in doc["cycles"])


def test_orbit_whole_group(capsys):
    # C1 spans a subgroup of order 4, so its G-orbit has 6 translates
    code, out, _ = run(capsys, "orbit", "24-9-2", "C1", "G", "--format", "canonical")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_length"] == 6 and doc["stabilizer_order"] == 4


def test_orbit_unknown_subgroup(capsys):
    code, _, err = run(capsys, "orbit", "24-9-2", "C1", "Z")
    assert code == 2 and "unknown subgroup" in err


def test_search_cli_finds_and_output_verifies(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TARGET_24_9_2), encoding="utf-8")
    found = tmp_path / "found.json"
    code, out, _ = run(capsys, "search", str(target), "--out", str(found))
    assert code == 0
    assert "found" in out
    doc = json.loads(found.read_text(encoding="utf-8"))
    cert = verify_solution(parse_solution_dict(doc))
    assert cert.ok and (cert.v, cert.r, cert.s) == (24, 9, 2)


def test_search_cli_budget_override(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TARGET_24_9_2), encoding="utf-8")
    out_file = tmp_path / "found.json"
    code, out, _ = run(
        capsys, "search", str(target), "--budget-nodes", "30", "--out", str(out_file)
    )
    assert code == 1
    assert "budget-exceeded" in out
    assert not out_file.exists()  # nothing found, nothing written


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_search_cli_rejects_non_positive_budget(tmp_path, capsys, budget):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TARGET_24_9_2), encoding="utf-8")
    code, out, err = run(capsys, "search", str(target), "--budget-nodes", budget)
    assert code == 2 and out == ""
    assert "--budget-nodes must be positive" in err


def test_search_cli_canonical(tmp_path, capsys):
    doc = dict(TARGET_24_9_2)
    doc["budget"] = {"nodes": 30}
    target = tmp_path / "target.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "search", str(target), "--format", "canonical")
    assert code == 1
    parsed = json.loads(out)
    assert parsed["verdict"] == "budget-exceeded"
    assert parsed["stats"]["nodes"] == 31


def test_search_cli_bad_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text('{"group": "Q24"}', encoding="utf-8")
    code, _, err = run(capsys, "search", str(target))
    assert code == 2 and "bad target document" in err
    code, _, err = run(capsys, "search", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read target" in err


def test_verify_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 2 and out == ""
    assert "cannot read solution" in err


@pytest.mark.parametrize("command,what", [("verify", "solution"), ("search", "target")])
def test_non_utf8_file_exits_2(tmp_path, capsys, command, what):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"id": "café"}'.encode("latin-1"))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert f"cannot read {what}" in err


def test_export_roundtrip(capsys):
    code, out, _ = run(capsys, "export", "24-5-6", "--format", "canonical")
    assert code == 0
    doc = json.loads(out)
    assert "annotations" not in doc
    assert verify_solution(parse_solution_dict(doc)).ok


def test_export_pretty_parses(capsys):
    code, out, _ = run(capsys, "export", "48-17-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["id"] == "48-17-6" and doc["expected"] == {"v": 48, "r": 17, "s": 6}


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "24-9-2", "--dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'graph "24-9-2" {' and lines[-1] == "}"
    assert len(lines) == 264 + 2  # one line per edge of K24 minus a 1-factor
    assert all(" -- " in line for line in lines[1:-1])
    labels = {line.split('factor="')[1].rstrip('"];') for line in lines[1:-1]}
    assert labels == {"F1", "F2", "F3", "F4"}


@pytest.mark.parametrize(
    "sid, cn, pos, text", [("24-9-2", "C4", 0, "b"), ("48-7-16", "C2", 0, "-i")]
)
def test_export_dot_of_overlapping_orbits_matches_the_expanded_orbits(
    tmp_path, capsys, doc_copy, sid, cn, pos, text
):
    # seed-1 corruptions whose factors assemble but whose orbits overlap,
    # as two base cycles share a difference: each edge is labelled by the
    # first factor whose expanded orbit has it
    doc = doc_copy(sid)
    doc["cycles"][cn][pos] = text
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--format", "canonical")
    assert code == 1 and json.loads(out)["witness"]["kind"] == "difference-overlap"
    spec = parse_solution_dict(doc)
    G = spec.group
    labels: dict[tuple[int, int], str] = {}
    for recipe in spec.factors:
        for f in verify_oracle.factor_orbit(verify_oracle.assemble_factor(G, recipe)):
            for e in (e for c in f.cycles for e in cycle_edges(c)):
                labels.setdefault(e, recipe.label)
    want = [f'graph "{sid}" {{']
    want += [
        f'  "{G.format(u)}" -- "{G.format(w)}" [factor="{label}"];'
        for (u, w), label in sorted(labels.items())
    ]
    code, out, _ = run(capsys, "export", str(path), "--dot")
    assert code == 0 and out == "\n".join(want + ["}"]) + "\n"


@pytest.mark.parametrize("sid", ['a"b', "a\\"])
def test_export_dot_escapes_the_id(tmp_path, capsys, doc_copy, sid):
    doc = doc_copy("24-9-2")
    doc["id"] = sid
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "export", str(path), "--dot")
    assert code == 0
    assert re.fullmatch(r'graph "(?:[^"\\]|\\.)*" \{', out.splitlines()[0])


@pytest.mark.parametrize(
    "argv",
    [["list"], ["omega", "24-9-2", "C1"], ["orbit", "24-9-2", "C4", "H"], ["export", "24-7-4"]],
    ids=["list", "omega", "orbit", "export"],
)
def test_export_out_writes_file_only(tmp_path, capsys, argv):
    """Outside verify and search, --out replaces stdout."""
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and expected
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("command", ["verify", "export"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    path = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, command, "24-9-2", "--out", str(path))
    assert code == 2 and not path.exists()
    assert err.startswith("hwpreg: cannot write output: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_verify_24_5_6_prints_notes(capsys):
    code, out, _ = run(capsys, "verify", "24-5-6")
    assert code == 0
    assert "(5, 5)" in out  # the parameters it is sometimes quoted with


@pytest.mark.parametrize("sid", SOLUTION_IDS)
def test_verify_every_bundled_solution(capsys, sid):
    code, out, _ = run(capsys, "verify", sid)
    assert code == 0 and "PASS" in out


def _golden_calls(sid):
    """`list`, or every read-only command on one bundled solution, in both
    formats; `export --dot` has one."""
    if sid == "list":
        return [["list", "--format", "human"], ["list", "--format", "canonical"]]
    spec = load_solution(sid)
    commands = [["verify", sid], ["export", sid]]
    for cn in spec.cycles:
        commands.append(["omega", sid, cn])
        commands += [["orbit", sid, cn, sub] for sub in ("G", *spec.subgroups)]
    calls = [[*argv, "--format", fmt] for argv in commands for fmt in ("human", "canonical")]
    return calls + [["export", sid, "--dot"]]


# one SHA-256 per id over argv, exit code, stdout and stderr of each call:
# any change to the text or JSON a command prints moves one of them
GOLDEN_DIGESTS = {
    "list": "f067e910960944608fb2215b53cbf16a06dae2219d3528f19ccb1125b043f94c",
    "48-5-18": "89c099fe6493ad99892834d2ed98c1acfe560ffd5e9584342b6c2af88afecf0e",
    "48-7-16": "fa215e6be37a36e55417401197f0b0917e8e7e30215e3d40ebdae13878eb3f8a",
    "48-9-14": "f3ced7f2ec4b6f50aa4d9939e150f1c7204a2cbbdde52c0e8c4e3db814bb8f7e",
    "48-13-10": "74c403cda43448b1d4a5bc0ea1100470c26a09efa70a788beff4c2559a8f785c",
    "48-15-8": "51bd3252092393726d96fd1cbbff3249a2b7c676fa6adafee2d93e7335763adb",
    "48-17-6": "121dd1ad11cdb03e41b70040388fa3f7451adf64f798f6199a0c412366538f61",
    "24-7-4": "d544907795d46a0524d27a89d8c44ad2cf1704adaa0f3b82888f4603fba87fac",
    "24-9-2": "281a049e9a42b548e36296ad310c28c80a2e71ed1eeaf651ffc78e7ae5a2def0",
    "24-5-6": "496792713bdbf82c09e37050fc690e5c135e24e73a0d6b394743d0dc341d0475",
}


@pytest.mark.parametrize("sid", ["list", *SOLUTION_IDS])
def test_cli_outputs_match_golden_digests(capsys, sid):
    h = hashlib.sha256()
    for argv in _golden_calls(sid):
        code, out, err = run(capsys, *argv)
        h.update(f"{argv} -> {code}\n".encode())
        h.update(out.encode() + b"\0" + err.encode() + b"\0")
    assert h.hexdigest() == GOLDEN_DIGESTS[sid]


def _mixed_calls(tmp_path):
    """Every subcommand, --out, --budget-nodes and --format, an argparse
    error and CliError exits, with the files --out writes to."""
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TARGET_24_9_2), encoding="utf-8")
    cert, found, dot = (tmp_path / name for name in ("cert.json", "found.json", "g.dot"))
    calls = [
        ["list", "--format", "canonical"],
        ["verify", "24-9-2", "--out", str(cert)],
        ["omega", "24-9-2", "C3", "--format", "canonical"],
        ["verify"],  # argparse error: missing positional
        ["orbit", "24-9-2", "C4", "H"],
        ["search", str(target), "--budget-nodes", "30", "--format", "canonical"],
        ["search", str(target), "--budget-nodes", "ten"],  # argparse error
        ["search", str(target), "--out", str(found)],
        ["search", str(target), "--budget-nodes", "0"],  # CliError
        ["export", "24-7-4", "--dot", "--out", str(dot)],
        ["verify", "no-such-id"],  # CliError
        ["orbit", "24-9-2", "C1", "Z"],  # CliError
        ["list"],
    ]
    return calls, (cert, found, dot)


# a search reports its wall-clock time, the one output that may differ
_SECONDS = re.compile(r'"seconds":[0-9.]+|[0-9.]+s$', re.MULTILINE)


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, _SECONDS.sub("<s>", captured.out), captured.err


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._shared_parser.cache_clear()
    calls, outs = _mixed_calls(tmp_path)
    passes = []
    for _ in range(2):
        built.clear()
        results = [_outcome(capsys, argv) for argv in calls]
        files = [path.read_text(encoding="utf-8") for path in outs]
        passes.append((results, files, len(built)))
    (first, first_files, first_built), (second, second_files, second_built) = passes
    assert first == second and first_files == second_files
    assert first_built > 0 and second_built == 0
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 0, "SystemExit(2)", 0, 1, "SystemExit(2)", 0, 2, 0, 2, 2, 0]
    assert "the following arguments are required: solution" in first[3][2]
    assert "invalid int value: 'ten'" in first[6][2]
