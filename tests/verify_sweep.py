"""Lockstep sweep of verify_factorization against its slow-path oracle.

Runs the byte-for-byte comparison of `test_verify_lockstep` on a seeded
corruption of every base-cycle vertex of the nine bundled documents, for
seeds 1 to 40 (9,000 documents); tier-1 runs seeds 1 and 2 only.  Exits
1 and names the first document whose canonical or human certificate
differs from the oracle's, or whose error differs.

    PYTHONPATH=src python tests/verify_sweep.py
"""

from __future__ import annotations

import json
import random
import sys
from importlib import resources

import verify_oracle
from hwpreg import SOLUTION_IDS
from hwpreg.factors import verify_factorization
from hwpreg.solutions import parse_solution_dict
from test_verify_lockstep import _corruptions, _outcome


def _changed(doc: dict, bad: dict) -> str:
    """The corrupted vertex, as cycle[position]=element."""
    return next(
        f"{cn}[{pos}]={text}"
        for cn, verts in bad["cycles"].items()
        for pos, text in enumerate(verts)
        if text != doc["cycles"][cn][pos]
    )


def sweep(seeds: range) -> int:
    docs = {
        sid: json.loads(resources.files("hwpreg.data").joinpath(f"{sid}.json").read_text("utf-8"))
        for sid in SOLUTION_IDS
    }
    checked = 0
    for seed in seeds:
        rng = random.Random(seed)
        for sid in SOLUTION_IDS:
            for bad in _corruptions(docs[sid], rng):
                spec = parse_solution_dict(bad)
                args = (spec.group, spec.factors, spec.expected)
                if _outcome(verify_factorization, *args) != _outcome(
                    verify_oracle.verify_factorization, *args
                ):
                    print(f"mismatch: seed {seed} {sid} {_changed(docs[sid], bad)}")
                    return 1
                checked += 1
    print(f"{checked} documents match the oracle (seeds {seeds.start}-{seeds.stop - 1})")
    return 0


if __name__ == "__main__":
    sys.exit(sweep(range(1, 41)))
