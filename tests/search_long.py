"""The two v=48 derived targets that tier-1 cannot afford, run to found.

Searches the targets derived from 48-17-6 and 48-5-18 without a budget
(5–6 s and 29–39 s with Python 3.11.7 on a shared 2-vCPU VM) and checks
each verdict, all five counters and the canonical digest of the found
document against their pins, as
`test_search.test_derived_order_48_searches_are_pinned` does for the
other four v=48 targets.  Exits 1 and names the first mismatch.

    PYTHONPATH=src python tests/search_long.py
"""

from __future__ import annotations

import hashlib
import sys

from hwpreg.factors import canonical_json
from hwpreg.search import search_hwp, target_from_solution
from hwpreg.solutions import load_solution

# sid: (nodes, cycles_closed, factors_completed, memo_entries, memo_hits),
# and the sha256 of the found document's canonical JSON
PINS = {
    "48-17-6": (
        (29418142, 1071387, 239798, 48678, 191110),
        "a8cb2dca36f266fd112425223a275b6646b2e8077c4182362b8cb1ed91a60ee6",
    ),
    "48-5-18": (
        (114281862, 1085594, 347109, 13652, 333448),
        "90aaaab7c1385ba1cbaa46ae0f7254bfc44b4bde02b48145030ae2b34284e368",
    ),
}


def main() -> int:
    for sid, (counters, digest) in PINS.items():
        outcome = search_hwp(target_from_solution(load_solution(sid)))
        st = outcome.stats
        got = (st.nodes, st.cycles_closed, st.factors_completed, st.memo_entries, st.memo_hits)
        if outcome.verdict != "found":
            print(f"{sid}: verdict {outcome.verdict}, pinned found")
            return 1
        if got != counters:
            print(f"{sid}: counters {got}, pinned {counters}")
            return 1
        text = canonical_json(outcome.solution)
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            print(f"{sid}: found document digest differs from its pin")
            return 1
        print(f"{sid}: found in {st.nodes} nodes, {st.seconds:.1f}s, as pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
