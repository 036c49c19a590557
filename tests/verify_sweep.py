"""Lockstep sweep of verify_solution against its slow-path oracle.

Runs the comparison of `test_verify_lockstep` on the nine bundled
documents and on a seeded corruption of every base-cycle vertex of each,
for seeds 1 to 40 (9,009 documents); tier-1 runs seeds 1 and 2 only.  On
every document the library must give the oracle's verdict, or raise its
error, with byte-identical canonical and human certificates wherever the
oracle passes or rejects at assembly or at the cycle-length gate; and
every factor that assembles must get, from the library's tiling test
`factors._tile`, the oracle factor's cycle length and cycle count, and
the oracle's full-kernel stabilizer, which must be the acting subgroup S
wherever the difference count settles it (i not in Omega(F) and
|Omega(F)| * |S| = 2v, decided here from the oracle's cycles).  Exits 1
and names the first document that differs.  The library's canonical and
human certificate, or the error it raises, on every document in sweep
order is hashed, rejects included, and the sweep exits 1 unless that
SHA-256 is CERTIFICATES_SHA256; otherwise it prints the passes and how
many rejects each witness kind decided, in the library and in the
oracle, and how many assembled factors the count settled and how many
went to the kernel.

    PYTHONPATH=src python tests/verify_sweep.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from importlib import resources

from hwpreg import SOLUTION_IDS
from hwpreg.solutions import parse_solution_dict
from test_verify_lockstep import _corruptions, _texts, lockstep, stabilizers_checked

SEEDS = range(1, 41)
# the hash of every library certificate, or error, in sweep order over SEEDS
CERTIFICATES_SHA256 = "db7e7386eb3b48c4bffa2e232d6052c52c084d99e1b7e2e2d2499bc6726281a5"


def _changed(doc: dict, bad: dict) -> str:
    """The corrupted vertex, as cycle[position]=element; bundled if none."""
    return next(
        (
            f"{cn}[{pos}]={text}"
            for cn, verts in bad["cycles"].items()
            for pos, text in enumerate(verts)
            if text != doc["cycles"][cn][pos]
        ),
        "bundled",
    )


def _kind(outcome) -> str:
    if isinstance(outcome, tuple):
        return outcome[0]
    return "pass" if outcome.ok else (outcome.witness or {}).get("kind", "no witness")


def sweep(seeds: range) -> int:
    docs = {
        sid: json.loads(resources.files("hwpreg.data").joinpath(f"{sid}.json").read_text("utf-8"))
        for sid in SOLUTION_IDS
    }
    kinds: dict[str, Counter] = {"library": Counter(), "oracle": Counter()}
    stabilizer_paths: Counter = Counter()
    digest = hashlib.sha256()
    runs = [(None, sid, [docs[sid]]) for sid in SOLUTION_IDS]
    for seed in seeds:
        rng = random.Random(seed)
        runs += [(seed, sid, list(_corruptions(docs[sid], rng))) for sid in SOLUTION_IDS]
    for seed, sid, batch in runs:
        for bad in batch:
            spec = parse_solution_dict(bad)
            try:
                stabilizer_paths += stabilizers_checked(spec)
                want, got, agree = lockstep(spec)
            except AssertionError:
                agree = False
            if not agree:
                print(f"mismatch: seed {seed} {sid} {_changed(docs[sid], bad)}")
                return 1
            texts = got if isinstance(got, tuple) else _texts(got)
            digest.update("".join(f"{t}\n" for t in texts).encode())
            kinds["library"][_kind(got)] += 1
            kinds["oracle"][_kind(want)] += 1
    checked = sum(kinds["library"].values())
    if digest.hexdigest() != CERTIFICATES_SHA256:
        print(f"certificate digest {digest.hexdigest()} is not {CERTIFICATES_SHA256}")
        return 1
    print(f"{checked} documents match the oracle (bundled, seeds {seeds.start}-{seeds.stop - 1})")
    for side, counts in kinds.items():
        print(f"{side}: " + ", ".join(f"{k} {n}" for k, n in counts.most_common()))
    settled, kernel = stabilizer_paths["settled"], stabilizer_paths["kernel"]
    print(f"factor stabilizers: {settled} settled by the difference count, {kernel} by the kernel")
    return 0


if __name__ == "__main__":
    sys.exit(sweep(SEEDS))
