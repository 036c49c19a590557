"""Self-checks of the benchmark's oracles: a wrong verdict, a wrong edge
checksum and a wrong node count must each count as a failed operation."""

import copy
import json

import pytest

from hwpreg.groups import build_group
from hwpreg.search import target_from_solution
from hwpreg.solutions import SOLUTION_IDS, load_solution

import inputs
import oracle
import worker

# corruptions that give another valid solution (acceptance test 8)
KNOWN_TWINS = {("48-5-18", "C6"), ("48-7-16", "C4"), ("48-9-14", "C5"), ("48-17-6", "C4")}


@pytest.fixture(scope="module")
def docs():
    return inputs.bundled_documents(SOLUTION_IDS)


def first_absent_corruption(doc, cn):
    """The corruption acceptance test 8 makes first: vertex 0 of the cycle
    replaced by the least element absent from it."""
    G = build_group(doc["group"])
    used = {G.parse(t) for t in doc["cycles"][cn]}
    bad = copy.deepcopy(doc)
    bad["cycles"][cn][0] = G.format(min(x for x in range(len(G)) if x not in used))
    return G, bad


def test_recount_matches_the_pinned_checksums(docs):
    for sid, doc in docs.items():
        ok, sha, why = oracle.expected_certificate(build_group(doc["group"]), doc)
        assert ok, (sid, why)
        assert sha == oracle.EDGE_SHA256[doc["group"]], sid


def test_recount_passes_known_twins_and_fails_other_corruptions(docs):
    for sid, cn in KNOWN_TWINS:
        G, bad = first_absent_corruption(docs[sid], cn)
        ok, sha, _ = oracle.expected_certificate(G, bad)
        assert ok and sha == oracle.EDGE_SHA256[G.id], (sid, cn)
    G, bad = first_absent_corruption(docs["24-9-2"], "C1")
    assert oracle.expected_certificate(G, bad)[0] is False


def _verify_call(tmp_path, doc, want_ok, want_sha):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))

    def check(code, text):
        return oracle.check_certificate(code, text, want_ok, want_sha, doc)

    return worker.Call("doc", "pass", ["verify", str(path), "--format", "canonical"], check)


def _run(call):
    stats = {"attempted": 0, "failed": 0, "problems": []}
    worker.run_call(call, stats)
    return stats


def test_certificate_oracle_counts_wrong_verdict_and_checksum(tmp_path, docs):
    doc = docs["24-9-2"]
    sha = oracle.EDGE_SHA256["Q24"]
    assert _run(_verify_call(tmp_path, doc, True, sha))["failed"] == 0
    # the program's PASS disagrees with an oracle that expects a reject
    assert _run(_verify_call(tmp_path, doc, False, None))["failed"] == 1
    # the program's checksum disagrees with the pinned one
    assert _run(_verify_call(tmp_path, doc, True, "0" * 64))["failed"] == 1
    G, bad = first_absent_corruption(doc, "C1")
    assert _run(_verify_call(tmp_path, bad, False, None))["failed"] == 0
    assert _run(_verify_call(tmp_path, bad, True, sha))["failed"] == 1


def _search_call(tmp_path, budget, pinned):
    spec = load_solution("24-7-4")
    doc = inputs.target_document(target_from_solution(spec), spec.group.identity)
    path = tmp_path / "target.json"
    path.write_text(json.dumps(doc))
    argv = ["search", str(path), "--format", "canonical"]
    if budget is not None:
        argv += ["--budget-nodes", str(budget)]
    check = oracle.SearchCheck(spec.group, doc, budget, pinned)
    return worker.Call("24-7-4", "search", argv, check)


def test_search_oracle_counts_wrong_counters_and_verdict(tmp_path):
    pinned = oracle.SEARCH_COUNTERS_SEED0["search-v24"]["24-7-4"]
    call = _search_call(tmp_path, None, pinned)
    assert _run(call)["failed"] == 0
    assert _run(call)["failed"] == 0  # the same document again
    wrong = dict(pinned, nodes=pinned["nodes"] + 1)
    assert _run(_search_call(tmp_path, None, wrong))["failed"] == 1
    # a budget the search cannot finish under: `found` is expected but not given
    call = _search_call(tmp_path, 10, None)
    call.check.budget = None
    assert _run(call)["failed"] == 1


def test_search_oracle_rejects_a_changed_document(tmp_path):
    call = _search_call(tmp_path, None, None)
    assert _run(call)["failed"] == 0
    call.check.solution_text = call.check.solution_text.replace("C1", "C9")
    assert _run(call)["failed"] == 1
