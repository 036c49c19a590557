"""Budget lockstep sweep of the searcher against its slow-path oracle.

Runs the comparison of `test_search_lockstep` (outcome document, counters
and the trail of accepted cycles that are not refused) at many node
budgets: for the targets derived from 24-5-6, 24-7-4 and 24-9-2 under
g = 1 and two seeded conjugates, every budget up to 2,000 and then every
97th, up to the node count at which the target is found; for 48-17-6 and
48-15-8 under g = 1 and two seeded conjugates, every budget up to 1,000,
as the complete covers that the closing scan refuses in bulk depend on
the conjugated subgroup, and every one from 5,951 to 6,150, where the
first scans that hold refused covers out see a factor's subtree return
(near nodes 5,977, 6,016 and 6,098) and can stop among them; for
48-7-16 under g = 1 and two seeded conjugates, every 97th budget up to
20,000, as its closing scans meet candidates of stabilizer order 2 and
l, whose stabilizers are read off the table, hundreds of times in that
span; for 48-13-10 and 48-9-14 under g = 1, every
budget up to 1,000, every 2,999th up to found, and the node count at
which the search first enters each signature entry, so that some budget
stops inside every entry, the (3, 1, G) and (4, 1, G) entries included.
The searcher charges rejected closing candidates, and paths that have
used up a factor's differences, in bulk, and counts refused complete
covers as closed in bulk, so this is where a budget stop one node early
or late, or a refusal counted out of place, would show.  At every entry start of
every search, the matrix of unused steps that the searcher carries must
equal the one `search_oracle.free_matrix` derives from the consumed
differences, so every budget stop also checks the matrix.  Exits 1 and
names the first mismatch as `<sid>^<g> budget <b>`.

    PYTHONPATH=src python tests/search_sweep.py
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from hwpreg.search import search_hwp, target_from_solution
from hwpreg.solutions import load_solution
from search_oracle import SlowSearcher, free_matrix
from test_search_lockstep import FAST, _conjugate, _run


def _conjugates(sid: str, count: int):
    """(g, target) for the derived target of sid under g = 1 and `count`
    seeded conjugating elements g."""
    target = target_from_solution(load_solution(sid))
    G = target.group
    gs = random.Random(f"search-sweep-{sid}").sample(range(len(G)), count)
    return [(G.identity, target)] + [(g, _conjugate(target, g)) for g in gs]


class FreeMatrixMismatch(AssertionError):
    pass


def _checking(entry_start):
    """entry_start, checking first that the matrix of unused steps it is
    handed is the one derived from the consumed differences."""

    def checking(self, idx, used, free, picked):
        if free != free_matrix(self, used):
            raise FreeMatrixMismatch(f"entry {idx}")
        entry_start(self, idx, used, free, picked)

    return checking


def _found_and_entries(monkeypatch, target) -> tuple[int, set[int]]:
    """The node count at which target is found, and those at which the
    search first enters each signature entry."""
    starts = {}
    entry_start = FAST.entry_start

    def recording(self, idx, used, free, picked):
        starts.setdefault(idx, self.stats.nodes)
        entry_start(self, idx, used, free, picked)

    with monkeypatch.context() as m:
        m.setattr(FAST, "entry_start", recording)
        found = search_hwp(target).stats.nodes
    return found, set(starts.values())


def _budgets(monkeypatch, target, plan: str) -> list[int]:
    if plan == "first 1,000, 5,951-6,150":
        return [*range(1, 1001), *range(5951, 6151)]
    if plan == "every 97th to 20,000":
        return [*range(97, 20_001, 97)]
    found, starts = _found_and_entries(monkeypatch, target)
    if plan == "stride 97":
        return sorted({*range(1, min(found, 2000) + 1), *range(2000, found, 97), found})
    # "every entry": a budget at an entry's first node stops inside it
    return sorted({*range(1, 1001), *range(1000, found, 2999), *starts, found} - {0})


def sweep() -> int:
    runs = [(sid, 2, "stride 97") for sid in ("24-5-6", "24-7-4", "24-9-2")]
    runs += [(sid, 2, "first 1,000, 5,951-6,150") for sid in ("48-17-6", "48-15-8")]
    runs += [("48-7-16", 2, "every 97th to 20,000")]
    runs += [(sid, 0, "every entry") for sid in ("48-13-10", "48-9-14")]
    checked, where = 0, ""
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            # both searchers start entries through FAST.entry_start
            monkeypatch.setattr(FAST, "entry_start", _checking(FAST.entry_start))
            for sid, count, plan in runs:
                for g, target in _conjugates(sid, count):
                    where = name = f"{sid}^{target.group.format(g)}"
                    for budget in _budgets(monkeypatch, target, plan):
                        where = f"{name} budget {budget}"
                        bounded = replace(target, budget_nodes=budget)
                        fast = _run(monkeypatch, FAST, bounded)[:2]
                        stopped = fast[0]["verdict"] == "budget-exceeded"
                        if fast != _run(monkeypatch, SlowSearcher, bounded)[:2] or (
                            stopped and fast[0]["stats"]["nodes"] != budget + 1
                        ):
                            print(f"mismatch: {where}")
                            return 1
                        checked += 1
    except FreeMatrixMismatch as at:
        print(f"mismatch: {where}: the matrix of unused steps at {at}")
        return 1
    print(f"{checked} budgeted searches match the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(sweep())
