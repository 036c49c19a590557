"""The searcher against its slow-path oracle, node by node.

`search_oracle.SlowSearcher` scans every vertex, one frame per vertex,
and rebuilds each closed cycle's masks from its whole path; the searcher
walks the free vertices, runs each closing scan in the frame of the
cycle's penultimate vertex and closes cycles inside it, with masks
carried down the path.  Both must close the same cycles at the same
node counts, stop at the same node under any budget, and end with the
same counters and the same document.  The searcher refuses most
complete covers that `_extend_factor` would refuse inside its closing
scan, without the call, so the trails hold only the cycles that reach
`_extend_factor` and are not refused there (`search_oracle.refuses`).

`search_oracle.KAwareSearcher` keys its memo on the previous factor's
least difference k as well; a seeded sample of the 336 v=24 signatures
must get the same verdicts from it as from the searcher (all 336 run in
tests/search_signatures.py).
"""

import random
from dataclasses import replace

import pytest

import hwpreg.search
from hwpreg.search import search_hwp, target_from_solution
from hwpreg.solutions import load_solution
from search_oracle import KAwareSearcher, SlowSearcher, refuses, v24_signatures

FAST = hwpreg.search._Searcher


def _run(monkeypatch, cls, target):
    """The outcome of searching target with searcher class cls, without
    `stats.seconds`; the trail of accepted cycles that are not refused:
    (nodes, cycles_closed, entry, path, used, covered, fused) at each one;
    and the number of accepted cycles that reach `_extend_factor`."""
    trail, calls = [], [0]

    class Recording(cls):
        def _extend_factor(self, idx, used, covered, fused, acc, picked):
            if acc:  # called right after a cycle was accepted
                calls[0] += 1
                if not refuses(self, idx, covered, fused, picked):
                    st = self.stats
                    trail.append((st.nodes, st.cycles_closed, idx, acc[-1], used, covered, fused))
            super()._extend_factor(idx, used, covered, fused, acc, picked)

    with monkeypatch.context() as m:
        m.setattr(hwpreg.search, "_Searcher", Recording)
        outcome = search_hwp(target)
    doc = outcome.to_dict()
    del doc["stats"]["seconds"]
    return doc, trail, calls[0]


def _conjugate(target, g):
    """target with every subgroup S replaced by g^-1 S g."""
    G = target.group
    gi = G.inv(g)
    return replace(
        target,
        subgroups={
            name: G.subgroup_closure(G.mul(G.mul(gi, x), g) for x in sub.generators)
            for name, sub in target.subgroups.items()
        },
    )


def _targets(sid, budget):
    """The derived target of sid under g = 1 and two seeded conjugates."""
    target = target_from_solution(load_solution(sid), budget)
    n = len(target.group)
    conjugators = random.Random(f"lockstep-{sid}").sample(range(n), 2)
    return [target] + [_conjugate(target, g) for g in conjugators]


@pytest.mark.parametrize(
    "sid,budget",
    [
        ("24-5-6", None),
        ("24-7-4", None),
        ("24-9-2", None),
        ("48-17-6", 2000),
        ("48-15-8", 2000),
        ("48-5-18", 2000),
    ],
)
def test_searcher_accepts_the_oracles_cycles(monkeypatch, sid, budget):
    verdicts = set()
    for target in _targets(sid, budget):
        fast, fast_trail, fast_calls = _run(monkeypatch, FAST, target)
        slow, slow_trail, slow_calls = _run(monkeypatch, SlowSearcher, target)
        assert fast_trail == slow_trail
        assert fast == slow
        # every cycle the oracle closes reaches _extend_factor; the searcher
        # leaves out only refused ones
        assert slow_calls == fast["stats"]["cycles_closed"] >= fast_calls >= len(fast_trail) > 0
        verdicts.add(fast["verdict"])
    assert verdicts == {"found" if budget is None else "budget-exceeded"}


def _verdict_and_counters(monkeypatch, cls, target):
    doc, _, _ = _run(monkeypatch, cls, target)
    return doc["verdict"], doc["stats"]


@pytest.mark.parametrize(
    "sid,budgets",
    [
        ("24-7-4", range(1, 61)),
        ("24-9-2", range(1, 601)),
        ("48-17-6", range(1, 5001, 97)),
        ("48-15-8", range(1, 3001, 89)),
        # the first closing scan that holds refused covers out while a
        # factor's subtree runs, and finds the budget short when it returns
        # (node 5,977): stops between it and the scan's end
        ("48-17-6", range(5970, 6031)),
    ],
)
def test_budget_stops_both_searchers_at_the_same_node(monkeypatch, sid, budgets):
    target = target_from_solution(load_solution(sid))
    verdicts = set()
    for budget in budgets:
        bounded = replace(target, budget_nodes=budget)
        verdict, stats = _verdict_and_counters(monkeypatch, FAST, bounded)
        assert (verdict, stats) == _verdict_and_counters(
            monkeypatch, SlowSearcher, bounded
        ), budget
        if verdict == "budget-exceeded":
            assert stats["nodes"] == budget + 1, budget
        verdicts.add(verdict)
    # 24-7-4 is found at 52 nodes, so its budgets cross that boundary
    assert "budget-exceeded" in verdicts
    assert ("found" in verdicts) == (sid == "24-7-4")


def test_k_aware_memo_gives_the_same_verdicts_on_sampled_signatures(monkeypatch):
    sample = random.Random("k-aware-memo").sample(v24_signatures(), 40)
    verdicts = set()
    for label, target in sample:
        verdict, _ = _verdict_and_counters(monkeypatch, FAST, target)
        assert verdict == _verdict_and_counters(monkeypatch, KAwareSearcher, target)[0], label
        verdicts.add(verdict)
    assert verdicts == {"found", "exhausted"}


@pytest.mark.parametrize(
    "sid,counters",
    [
        # nodes, cycles_closed, factors_completed, memo_entries, memo_hits;
        # the searcher's are (27820, 104, 69, 50, 13) and (66048, 2479, 143, 63, 71)
        ("24-5-6", (28017, 105, 70, 50, 13)),
        ("48-13-10", (66068, 2479, 143, 63, 67)),
    ],
)
def test_k_aware_memo_counters_are_pinned(monkeypatch, sid, counters):
    target = target_from_solution(load_solution(sid))
    verdict, stats = _verdict_and_counters(monkeypatch, KAwareSearcher, target)
    assert verdict == "found"
    names = ("nodes", "cycles_closed", "factors_completed", "memo_entries", "memo_hits")
    assert tuple(stats[n] for n in names) == counters
