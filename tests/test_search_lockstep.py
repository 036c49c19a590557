"""The searcher against its slow-path oracle, node by node.

`search_oracle.SlowSearcher` scans every vertex and rebuilds each closed
cycle's masks from its whole path; the searcher walks the free vertices
and closes cycles inside its candidate scan with masks carried down the
path.  Both must close the same cycles at the same node counts, stop at
the same node under any budget, and end with the same counters and the
same document.
"""

import random
from dataclasses import replace

import pytest

import hwpreg.search
from hwpreg.search import search_hwp, target_from_solution
from hwpreg.solutions import load_solution
from search_oracle import SlowSearcher

FAST = hwpreg.search._Searcher


def _run(monkeypatch, cls, target):
    """The outcome of searching target with searcher class cls, without
    `stats.seconds`, and the trail of accepted cycles: (nodes,
    cycles_closed, entry, path, used, covered, fused) at each one."""
    trail = []

    class Recording(cls):
        def _extend_factor(self, idx, used, covered, fused, acc, picked):
            if acc:  # called right after a cycle was accepted
                st = self.stats
                trail.append((st.nodes, st.cycles_closed, idx, acc[-1], used, covered, fused))
            super()._extend_factor(idx, used, covered, fused, acc, picked)

    with monkeypatch.context() as m:
        m.setattr(hwpreg.search, "_Searcher", Recording)
        outcome = search_hwp(target)
    doc = outcome.to_dict()
    del doc["stats"]["seconds"]
    return doc, trail


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
        fast, fast_trail = _run(monkeypatch, FAST, target)
        slow, slow_trail = _run(monkeypatch, SlowSearcher, target)
        assert fast_trail == slow_trail
        assert fast == slow
        assert len(fast_trail) == fast["stats"]["cycles_closed"] > 0
        verdicts.add(fast["verdict"])
    assert verdicts == {"found" if budget is None else "budget-exceeded"}


def _verdict_and_counters(monkeypatch, cls, target):
    doc, _ = _run(monkeypatch, cls, target)
    return doc["verdict"], doc["stats"]


@pytest.mark.parametrize(
    "sid,budgets",
    [
        ("24-7-4", range(1, 61)),
        ("24-9-2", range(1, 601)),
        ("48-17-6", range(1, 5001, 97)),
        ("48-15-8", range(1, 3001, 89)),
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
