"""Seeded inputs for the benchmark workloads.

The program only ever sees what these functions produce: solution
documents (the bundled ones and seeded corruptions of them) and search
target documents.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import copy
import json
import random
from importlib import resources

V24_IDS = ("24-5-6", "24-7-4", "24-9-2")
V48_IDS = ("48-17-6", "48-15-8")
# Node budget of one search-v48 call: enough nodes that closing cycles
# dominates, few enough that every call repeats several times in a run.
V48_BUDGET = 500
# Conjugates of one target differ in node count (up to 12% at v=24) and
# in time per node (up to 20% at v=48), so each run averages over several.
V24_CONJUGATES = 4
V48_CONJUGATES = 12


def bundled_documents(solution_ids):
    """The bundled solution documents as plain dicts, by id."""
    data = resources.files("hwpreg.data")
    return {
        sid: json.loads(data.joinpath(f"{sid}.json").read_text("utf-8"))
        for sid in solution_ids
    }


def corruptions(docs, groups, rng: random.Random):
    """One seeded corruption for every vertex position of every base cycle.

    Each replaces the vertex with an element absent from that cycle,
    picked by the seed.  A corruption's cost varies a hundredfold with
    where it sits, so taking every position keeps a round's cost steady
    across seeds.  Returns (label, document) pairs in a fixed order.
    """
    out = []
    for sid, doc in docs.items():
        G = groups[doc["group"]]
        for cn, verts in doc["cycles"].items():
            used = {G.parse(t) for t in verts}
            absent = [x for x in range(len(G)) if x not in used]
            for pos in range(len(verts)):
                bad = copy.deepcopy(doc)
                bad["cycles"][cn][pos] = G.format(rng.choice(absent))
                out.append((f"{sid}/{cn}[{pos}]", bad))
    return out


def conjugating_elements(G, seed: int, count: int) -> list[int]:
    """Elements g that the target subgroups are conjugated by: `count`
    distinct ones picked by the seed, or only g = 1 for seed 0."""
    if seed == 0:
        return [G.identity]
    return random.Random(seed).sample(range(len(G)), count)


def target_document(target, g: int) -> dict:
    """A `hwpreg search` target document for `target` with every subgroup
    replaced by its conjugate g^-1 S g."""
    G = target.group
    gi = G.inv(g)
    return {
        "group": G.id,
        "target": {"r": target.r, "s": target.s},
        "signature": [
            {
                "cycle_length": e.cycle_length,
                "orbit_length": e.orbit_length,
                "subgroup": e.subgroup,
            }
            for e in target.entries
        ],
        "subgroups": {
            name: [G.format(G.mul(G.mul(gi, x), g)) for x in sub.members]
            for name, sub in target.subgroups.items()
        },
    }
