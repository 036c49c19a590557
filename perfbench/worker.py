"""One workload in its own process: build the seeded inputs, drive
`hwpreg.cli.main` in rounds, check every output and write a result file.

Run by run.py as `python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE
WORKDIR RESULT`.  In trace mode the first half of the time is measured
untraced and the second half with the tracer installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

from hwpreg import cli, search
from hwpreg.groups import GROUP_IDS, build_group
from hwpreg.solutions import SOLUTION_IDS, load_solution

import inputs
import oracle
from reference import reference
from spans import Tracer


class Call:
    """One CLI invocation with the check its output must pass."""

    def __init__(self, label, kind, argv, check):
        self.label, self.kind, self.argv, self.check = label, kind, argv, check


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def certify_calls(seed, workdir):
    docs = inputs.bundled_documents(SOLUTION_IDS)
    groups = {gid: build_group(gid) for gid in GROUP_IDS}
    cases = [(sid, "pass", doc) for sid, doc in docs.items()]
    cases += [
        (label, "reject", doc)
        for label, doc in inputs.corruptions(docs, groups, random.Random(seed))
    ]
    calls = []
    for n, (label, kind, doc) in enumerate(cases):
        G = groups[doc["group"]]
        if kind == "pass":
            want_ok, want_sha = True, oracle.EDGE_SHA256[G.id]
        else:
            want_ok, want_sha, _ = oracle.expected_certificate(G, doc)
        path = _write(os.path.join(workdir, f"doc{n}.json"), doc)

        def check(code, text, want_ok=want_ok, want_sha=want_sha, doc=doc):
            return oracle.check_certificate(code, text, want_ok, want_sha, doc)

        calls.append(
            Call(label, kind, ["verify", path, "--format", "canonical"], check)
        )
    return calls, {}


def search_calls(workload, seed, workdir):
    if workload == "search-v24":
        ids, budget, count = inputs.V24_IDS, None, inputs.V24_CONJUGATES
    else:
        ids, budget, count = inputs.V48_IDS, inputs.V48_BUDGET, inputs.V48_CONJUGATES
    calls, info = [], {"g": {}}
    for sid in ids:
        spec = load_solution(sid)
        G = spec.group
        target = search.target_from_solution(spec)
        gs = inputs.conjugating_elements(G, seed, count)
        info["g"][sid] = [G.format(g) for g in gs]
        for g in gs:
            label = f"{sid}^{G.format(g)}"
            doc = inputs.target_document(target, g)
            path = _write(os.path.join(workdir, f"target{len(calls)}.json"), doc)
            argv = ["search", path, "--format", "canonical"]
            if budget is not None:
                argv += ["--budget-nodes", str(budget)]
            pinned = oracle.SEARCH_COUNTERS_SEED0[workload][sid] if seed == 0 else None
            check = oracle.SearchCheck(G, doc, budget, pinned)
            calls.append(Call(label, "search", argv, check))
    return calls, info


def run_call(call, stats):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        began = time.perf_counter()
        try:
            code, crash = cli.main(call.argv), None
        except Exception as err:  # a crash is a failed operation, not a failed run
            code, crash = None, err
        took = time.perf_counter() - began
    problem = f"raised {crash!r}" if crash else call.check(code, out.getvalue())
    stats["attempted"] += 1
    if problem is not None:
        stats["failed"] += 1
        if len(stats["problems"]) < 20:
            stats["problems"].append(f"{call.label}: {problem}")
    return took, out.getvalue()


def run_rounds(calls, seconds, stats, tracer=None):
    """Whole rounds over `calls` until `seconds` have passed (at least one).

    Returns per-round records: the duration of every call, the mean
    duration of the reference loop right before and after it, the search
    counters of every call, and the tracer totals when tracing."""
    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        mark = tracer.mark() if tracer else None
        took, ref, counters = [], [], {}
        before = reference()
        for call in calls:
            dt, text = run_call(call, stats)
            took.append(dt)
            after = reference()
            ref.append((before + after) / 2)
            before = after
            if call.kind == "search":
                try:
                    counters[call.label] = json.loads(text)["stats"]
                except (ValueError, KeyError):
                    pass  # the check has counted the call as failed
        rounds.append(
            {
                "took": took,
                "ref": ref,
                "counters": counters,
                "layers": tracer.since(mark) if tracer else None,
            }
        )
    return rounds


def derive_ms(workload, tracer):
    """Time of target_from_solution for the workload's targets, traced."""
    ids = {"search-v24": inputs.V24_IDS, "search-v48": inputs.V48_IDS}.get(workload, ())
    mark = tracer.mark()
    for sid in ids:
        search.target_from_solution(load_solution(sid))
    row = tracer.since(mark).get("search.target_from_solution")
    return 0.0 if row is None else row[1] * 1000


def main(argv):
    workload, seed, seconds, trace, workdir, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    os.makedirs(workdir, exist_ok=True)
    if workload == "certify":
        calls, info = certify_calls(seed, workdir)
    else:
        calls, info = search_calls(workload, seed, workdir)

    stats = {"attempted": 0, "failed": 0, "problems": []}
    result = {"workload": workload, "seed": seed, **info}
    if not trace:
        result["rounds"] = run_rounds(calls, seconds, stats)
    else:
        result["rounds"] = run_rounds(calls, seconds / 2, stats)
        tracer = Tracer()
        tracer.install()
        result["derive_target_ms"] = derive_ms(workload, tracer)
        result["traced_rounds"] = run_rounds(calls, seconds / 2, stats, tracer)
        tracer.uninstall()
        tracer.dump(os.path.join(workdir, "spans.txt"))
    result["kinds"] = [c.kind for c in calls]
    result["labels"] = [c.label for c in calls]
    result.update(stats)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
