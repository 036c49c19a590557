"""The searcher against a k-aware memo on all 336 v=24 signatures.

Searches every signature that `search_oracle.v24_signatures` lists, with
a budget of 2,000,000 nodes each, once with the searcher as it is and
once with `search_oracle.KAwareSearcher` in its place, whose memo reuses
a dead entry state only at a k where that reuse is sound.  The searcher's
own memo leaves k out; the proof in the `hwpreg.search` module docstring
shows that this loses no solution and that the document found does not
depend on the memo, and this comparison checks both on these
signatures.  Exits 1 on any verdict difference, on a `found` signature
whose two documents are not byte-identical, on any `budget-exceeded`, or
unless 62 signatures are `found` and 274 `exhausted`; node counts may
differ, and the number that do is printed, as is the number of
byte-identical documents.

    PYTHONPATH=src python tests/search_signatures.py
"""

from __future__ import annotations

import sys
from collections import Counter

import hwpreg.search
from hwpreg.factors import canonical_json
from hwpreg.search import search_hwp
from search_oracle import KAwareSearcher, v24_signatures

PINNED = Counter(found=62, exhausted=274)


def run(target, cls) -> tuple[str, int, str]:
    """The verdict, node count and canonical document text ("" when none)
    of searching target with searcher cls."""
    plain = hwpreg.search._Searcher
    hwpreg.search._Searcher = cls
    try:
        outcome = search_hwp(target)
    finally:
        hwpreg.search._Searcher = plain
    doc = "" if outcome.solution is None else canonical_json(outcome.solution)
    return outcome.verdict, outcome.stats.nodes, doc


def main() -> int:
    verdicts, node_diffs, same_docs, most = Counter(), 0, 0, 0
    for label, target in v24_signatures():
        verdict, nodes, doc = run(target, hwpreg.search._Searcher)
        k_verdict, k_nodes, k_doc = run(target, KAwareSearcher)
        if verdict != k_verdict or verdict == "budget-exceeded":
            print(f"{label}: searcher {verdict}, k-aware memo {k_verdict}")
            return 1
        if doc != k_doc:
            print(f"{label}: the searcher and the k-aware memo found different documents")
            return 1
        verdicts[verdict] += 1
        same_docs += verdict == "found"
        node_diffs += nodes != k_nodes
        most = max(most, nodes, k_nodes)
    print(
        f"{sum(verdicts.values())} signatures: {verdicts['found']} found, "
        f"{verdicts['exhausted']} exhausted, the same verdicts with a k-aware memo; "
        f"{same_docs} found documents byte-identical; "
        f"node counts differ on {node_diffs}, at most {most:,} nodes"
    )
    if verdicts != PINNED:
        print(f"verdict counts {dict(verdicts)}, pinned {dict(PINNED)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
