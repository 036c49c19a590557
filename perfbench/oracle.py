"""Output oracles for the benchmark, independent of hwpreg's verify path.

The oracles use only the group layer (element parsing, the multiplication
table and the element formatter).  Edge coverage is recounted from the
distinct right translates of each base cycle, the way acceptance test 8
does it, so a corrupted document is judged on its own merits rather than
assumed to fail.
"""

from __future__ import annotations

import hashlib
import json

# Canonical `hwpreg verify` results of the nine bundled documents at the
# commit that introduced the benchmark.  Every valid solution covers all
# of K_v - I, so the edge checksum depends only on the group.
EDGE_SHA256 = {
    "2O": "318118d5b0ba0cc54f09df348254ee2125dcf60a0010b5eab7e938b3126b327b",
    "Q24": "f2187b3a775818179904ef23647abb4459f2b7f17eb60b4dfaedf235d07c53c0",
    "SL23": "814463c9e77ddcb2dad746413b6c9c70485b41b47ebe2bdf3e8fe822d87b2d39",
}

COUNTERS = ("nodes", "cycles_closed", "factors_completed", "memo_entries", "memo_hits")

# `search` counters of each derived target at seed 0 (conjugating element
# 1), in the order of COUNTERS; search-v48 runs under inputs.V48_BUDGET.
SEARCH_COUNTERS_SEED0 = {
    workload: {sid: dict(zip(COUNTERS, row)) for sid, row in rows.items()}
    for workload, rows in {
        "search-v24": {
            "24-5-6": (27820, 104, 69, 50, 13),
            "24-7-4": (52, 4, 4, 0, 0),
            "24-9-2": (5469, 254, 31, 12, 15),
        },
        "search-v48": {
            "48-17-6": (501, 80, 1, 0, 0),
            "48-15-8": (501, 80, 1, 0, 0),
        },
    }.items()
}


def _closure(G, gens):
    members = {G.identity}
    frontier = [G.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.table[x][g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return sorted(members)


def _translates(G, verts, elements):
    """Distinct right translates of a cycle, each as a frozenset of edges."""
    out = set()
    for x in elements:
        t = [G.table[v][x] for v in verts]
        out.add(
            frozenset(
                (min(a, b), max(a, b)) for a, b in zip(t, t[1:] + t[:1])
            )
        )
    return out


def expected_certificate(G, doc):
    """What `hwpreg verify` must conclude about a solution document.

    Returns (ok, sha256, why): ok is True exactly when every factor
    recipe's sub-orbits tile the vertex set, the full-group translates of
    the base cycles cover every edge of K_v - I once, and the factor
    counts r and s derived from that cover match the document's
    `expected`.  sha256 is the edge checksum when ok, else None.
    """
    n = len(G)
    cycles = {name: [G.parse(t) for t in texts] for name, texts in doc["cycles"].items()}
    subgroups = {
        name: _closure(G, [G.parse(t) for t in gens])
        for name, gens in doc["subgroups"].items()
    }
    subgroups["G"] = list(range(n))

    for k, factor in enumerate(doc["factors"]):
        seen = []
        for cn in factor["cycles"]:
            for t in _translates(G, cycles[cn], subgroups[factor["subgroup"]]):
                seen.extend(v for e in t for v in e)
        # each vertex of a 2-factor lies on exactly two of its edges
        if sorted(seen) != sorted(list(range(n)) * 2):
            return False, None, f"factor {k + 1} does not tile the vertex set"

    counts: dict[tuple[int, int], int] = {}
    by_length = {3: 0, 4: 0}
    for verts in cycles.values():
        for t in _translates(G, verts, range(n)):
            by_length[len(verts)] = by_length.get(len(verts), 0) + len(t)
            for e in t:
                counts[e] = counts.get(e, 0) + 1
    inv = G.unique_involution()
    host = {
        (a, b) for a in range(n) for b in range(a + 1, n) if G.table[inv][a] != b
    }
    if set(counts) != host or any(k != 1 for k in counts.values()):
        return False, None, "edges of K_v - I are not covered exactly once"
    r, s = by_length[3] // n, by_length[4] // n
    want = doc["expected"]
    if (n, r, s) != (want["v"], want["r"], want["s"]):
        return False, None, f"cover gives (v,r,s)=({n},{r},{s})"
    lines = sorted(f"{G.format(a)}|{G.format(b)}" for a, b in counts)
    return True, hashlib.sha256("\n".join(lines).encode()).hexdigest(), "tiles"


def check_certificate(code, text, want_ok, want_sha, doc):
    """Compare one `verify --format canonical` output with the oracle.

    Returns None when it agrees, else a one-line description.
    """
    try:
        cert = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    verdict = "pass" if want_ok else "fail"
    if cert.get("verdict") != verdict:
        return f"verdict {cert.get('verdict')!r}, oracle says {verdict!r}"
    if code != (0 if want_ok else 1):
        return f"exit code {code} for verdict {verdict!r}"
    if want_ok:
        if cert["edge_coverage"]["sha256"] != want_sha:
            return "edge checksum differs from the oracle"
        want = doc["expected"]
        if (cert["v"], cert["r"], cert["s"]) != (want["v"], want["r"], want["s"]):
            return "certificate (v,r,s) differs from the document"
    elif not (cert.get("failure") or cert.get("witness")):
        return "failing certificate gives no failure or witness"
    return None



class SearchCheck:
    """Checks every `search --format canonical` output for one target.

    The verdict must be `found` without a node budget and
    `budget-exceeded` with one, the deterministic counters must equal
    the pinned ones (seed 0) or else the first output of the run, and a
    found document is re-verified with `expected_certificate`.
    """

    def __init__(self, group, target_doc, budget, pinned):
        self.group = group
        self.target_doc = target_doc
        self.budget = budget
        self.counters = pinned
        self.solution_text = None

    def __call__(self, code, text):
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            return "output is not JSON"
        verdict = "found" if self.budget is None else "budget-exceeded"
        if out.get("verdict") != verdict or code != (0 if verdict == "found" else 1):
            return f"verdict {out.get('verdict')!r} with exit code {code}, wanted {verdict!r}"
        counters = {k: out["stats"][k] for k in COUNTERS}
        if self.budget is not None and counters["nodes"] != self.budget + 1:
            return f"{counters['nodes']} nodes under a budget of {self.budget}"
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            return f"counters {counters} differ from {self.counters}"
        if verdict == "found":
            return self._check_solution(out)
        return None

    def _check_solution(self, out):
        sol = out["solution"]
        text = json.dumps(sol, sort_keys=True)
        if self.solution_text is not None:
            return None if text == self.solution_text else "found a different document"
        if out["certificate"]["verdict"] != "pass":
            return "found document carries a failing certificate"
        if sol["group"] != self.target_doc["group"] or sol["subgroups"] != self.target_doc["subgroups"]:
            return "found document does not use the target's subgroups"
        ok, _, why = expected_certificate(self.group, sol)
        if not ok:
            return f"found document fails the recount: {why}"
        self.solution_text = text
        return None
