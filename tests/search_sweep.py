"""Budget lockstep sweep of the searcher against its slow-path oracle.

Runs the comparison of `test_search_lockstep` (outcome document, counters
and the trail of accepted cycles) at many node budgets: for the targets
derived from 24-5-6, 24-7-4 and 24-9-2 under g = 1 and two seeded
conjugates, every budget up to 2,000 and then every 97th, up to the node
count at which the target is found; for 48-17-6 and 48-15-8 under g = 1,
every budget up to 1,000.  The searcher charges rejected closing
candidates in bulk, so this is where a budget stop one node early or late
would show.  Exits 1 and names the first mismatch as `<sid>^<g> budget <b>`.

    PYTHONPATH=src python tests/search_sweep.py
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from hwpreg.search import search_hwp, target_from_solution
from hwpreg.solutions import load_solution
from search_oracle import SlowSearcher
from test_search_lockstep import FAST, _conjugate, _run


def _conjugates(sid: str, count: int):
    """(g, target) for the derived target of sid under g = 1 and `count`
    seeded conjugating elements g."""
    target = target_from_solution(load_solution(sid))
    G = target.group
    gs = random.Random(f"search-sweep-{sid}").sample(range(len(G)), count)
    return [(G.identity, target)] + [(g, _conjugate(target, g)) for g in gs]


def _budgets(target, to_found: bool) -> list[int]:
    if not to_found:
        return list(range(1, 1001))
    found = search_hwp(target).stats.nodes
    return sorted({*range(1, min(found, 2000) + 1), *range(2000, found, 97), found})


def sweep() -> int:
    runs = [(sid, 2, True) for sid in ("24-5-6", "24-7-4", "24-9-2")]
    runs += [(sid, 0, False) for sid in ("48-17-6", "48-15-8")]
    checked = 0
    with pytest.MonkeyPatch.context() as monkeypatch:
        for sid, count, to_found in runs:
            for g, target in _conjugates(sid, count):
                for budget in _budgets(target, to_found):
                    bounded = replace(target, budget_nodes=budget)
                    fast = _run(monkeypatch, FAST, bounded)
                    stopped = fast[0]["verdict"] == "budget-exceeded"
                    if fast != _run(monkeypatch, SlowSearcher, bounded) or (
                        stopped and fast[0]["stats"]["nodes"] != budget + 1
                    ):
                        print(f"mismatch: {sid}^{target.group.format(g)} budget {budget}")
                        return 1
                    checked += 1
    print(f"{checked} budgeted searches match the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(sweep())
