"""hwpreg benchmark: certify and search workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Each run measures set-up in fresh interpreters (setup_probe.py), then runs
the workload in its own process (worker.py), which checks every output
against the oracles in oracle.py.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  The line before it is the run record: seed, conjugating
element, interpreter, sample counts, wall times and search counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("certify", "search-v24", "search-v48")
SETUP_PROBES = 12  # half before the workload process, half after
DEADLINE_S = 170


def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  With fewer than 21 samples no
    percentile above the median qualifies, and the maximum stands in."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def run_child(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def probe_setup(env, count):
    """Set-up timings of `count` fresh interpreters."""
    probes = []
    for _ in range(count):
        row = json.loads(run_child([HERE / "setup_probe.py"], env, 60))
        if not row["package"].startswith(str(SRC)):
            raise RuntimeError(f"imported hwpreg from {row['package']}, not {SRC}")
        probes.append(row)
    return probes


def scaled(seconds, ref_s):
    """A duration scaled to the reference speed (see reference.py)."""
    return seconds * REFERENCE_S / ref_s


def summarize_setup(probes):
    """Median set-up timings at the reference speed."""
    med = lambda f: statistics.median(scaled(f(p), p["ref_s"]) for p in probes)  # noqa: E731
    return {
        "setup_s": med(lambda p: p["setup_s"]),
        "import_s": med(lambda p: p["import_s"]),
        "load_s": med(lambda p: p["load_s"]),
        "build_s": {g: med(lambda p: p["build_s"][g]) for g in probes[0]["build_s"]},
        "raw_setup_s": statistics.median(p["setup_s"] for p in probes),
        "samples": len(probes),
    }


def scaled_rounds(rounds):
    """Every call's time in every round, at the reference speed."""
    return [[scaled(t, f) for t, f in zip(r["took"], r["ref"])] for r in rounds]


def call_times(rounds):
    """Each call's median time over the rounds, at the reference speed."""
    return [statistics.median(ts) for ts in zip(*scaled_rounds(rounds))]


def units(result):
    """Groups of call indices that form one user-visible operation: a
    valid document's verify (certify), solving the three targets under
    one conjugating element (search-v24), one budgeted search (search-v48)."""
    kinds, workload = result["kinds"], result["workload"]
    if workload == "search-v24":
        per_target = len(next(iter(result["g"].values())))
        return [list(range(j, len(kinds), per_target)) for j in range(per_target)]
    return [[i] for i, k in enumerate(kinds) if k in ("pass", "search")]


def work(result):
    """Work done by each call: one document or target, or its search nodes."""
    if result["workload"] != "search-v48":
        return [1] * len(result["kinds"])
    counters = result["rounds"][0]["counters"]
    return [counters.get(label, {}).get("nodes", 0) for label in result["labels"]]


def end_to_end(result, setup):
    t = call_times(result["rounds"])
    ops = units(result)
    return {
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "throughput_per_s": (sum(work(result)) / sum(t), "1/s"),
        "latency_ms": (1000 * sum(t[i] for op in ops for i in op) / len(ops), "ms"),
    }


def latency_stats(samples):
    value, pct, n = tail(samples)
    return {
        "p50_ms": 1000 * statistics.median(samples),
        "tail_ms": 1000 * value,
        "tail_percentile": round(pct, 2),
        "samples": n,
    }


def by_kind(result, rounds):
    """Calls' times grouped by kind (pass, reject, search)."""
    out: dict[str, list] = {}
    for times in rounds:
        for t, kind in zip(times, result["kinds"]):
            out.setdefault(kind, []).append(t)
    return out


def per_layer(result, setup):
    traced = result["traced_rounds"]
    first = traced[0]["layers"]

    def calls(name):
        return first.get(name, [0])[0]

    def layer_ms(name, col):
        """Median over the traced rounds, at the reference speed."""
        return 1000 * statistics.median(
            scaled(r["layers"].get(name, [0, 0.0, 0.0, 0.0])[col], statistics.median(r["ref"]))
            for r in traced
        )

    total = lambda name: layer_ms(name, 1)  # noqa: E731
    own = lambda name: layer_ms(name, 2)  # noqa: E731
    counters = dict.fromkeys(oracle.COUNTERS, 0)
    for c in traced[0]["counters"].values():
        for k in counters:
            counters[k] += c[k]
    lookups = counters["memo_hits"] + counters["memo_entries"]
    m = {f"groups.build_ms.{g}": (s * 1000, "ms") for g, s in setup["build_s"].items()}
    m.update(
        {
            "groups.format_calls": (calls("groups.format"), "count"),
            "groups.format_ms": (total("groups.format"), "ms"),
            "cayley.cocktail_party_graph_ms": (
                total("cayley.cocktail_party_graph") + total("cayley.edges"), "ms"
            ),
            "cycles.translate_calls": (calls("cycles.translate"), "count"),
            "cycles.stabilizer_calls": (calls("cycles.stabilizer"), "count"),
            "cycles.stabilizer_self_ms": (own("cycles.stabilizer"), "ms"),
            "cycles.orbit_calls": (calls("cycles.orbit"), "count"),
            "cycles.orbit_self_ms": (own("cycles.orbit"), "ms"),
            "cycles.cycle_ms": (total("cycles.cycle"), "ms"),
            "cycles.partial_differences_ms": (total("cycles.partial_differences"), "ms"),
            "factors.assemble_ms": (total("factors.assemble"), "ms"),
            "factors.stabilizer_calls": (calls("factors.stabilizer"), "count"),
            "factors.stabilizer_self_ms": (own("factors.stabilizer"), "ms"),
            "factors.orbit_ms": (total("factors.orbit"), "ms"),
            "factors.verify_factorization_self_ms": (own("factors.verify_factorization"), "ms"),
            "solutions.parse_ms": (total("solutions.parse"), "ms"),
            "solutions.verify_self_ms": (own("solutions.verify"), "ms"),
            "solutions.omega_reports_ms": (total("solutions.omega_reports"), "ms"),
            "solutions.partition_ms": (total("cycles.partition"), "ms"),
            "solutions.reverify_ms": (layer_ms("solutions.verify", 3), "ms"),
            **{f"search.{k}": (v, "count") for k, v in counters.items()},
            "search.closed_per_node": (
                counters["cycles_closed"] / counters["nodes"] if counters["nodes"] else 0.0,
                "ratio",
            ),
            "search.memo_hit_ratio": (counters["memo_hits"] / lookups if lookups else 0.0, "ratio"),
            "search.self_ms": (own("search.search_hwp"), "ms"),
            "search.derive_target_ms": (result["derive_target_ms"], "ms"),
            "search.parse_target_ms": (total("search.parse_target"), "ms"),
            "cli.import_ms": (setup["import_s"] * 1000, "ms"),
            "cli.main_self_ms": (own("cli.main"), "ms"),
            "trace.overhead_ratio": (
                sum(call_times(traced)) / sum(call_times(result["rounds"])), "ratio"
            ),
        }
    )
    kinds = by_kind(result, scaled_rounds(result["rounds"]))
    for kind in ("pass", "reject"):
        stats = latency_stats(kinds[kind]) if kind in kinds else {}
        m[f"certify.{kind}_p50_ms"] = (stats.get("p50_ms", 0.0), "ms")
        m[f"certify.{kind}_tail_ms"] = (stats.get("tail_ms", 0.0), "ms")
    return m


def record(args, result, setup, elapsed):
    rounds = result["rounds"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "g": result.get("g"),
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "rounds": len(rounds),
        "calls_per_round": len(result["kinds"]),
        "wall_clock": {
            kind: latency_stats(ts)
            for kind, ts in by_kind(result, [r["took"] for r in rounds]).items()
        },
        "round_s": [sum(r["took"]) for r in rounds],
        "speed": [REFERENCE_S / statistics.median(r["ref"]) for r in rounds],
        "setup": setup,
        "search_counters": rounds[0]["counters"],
        "problems": result["problems"],
        "wall_s": elapsed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    if not (SRC / "hwpreg" / "__init__.py").is_file():
        print(f"perfbench: no hwpreg sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)

    try:
        probe_setup(env, 1)  # compiles the bytecode cache
        probes = probe_setup(env, SETUP_PROBES // 2)
        run_child(
            [
                HERE / "worker.py",
                args.workload,
                args.seed,
                args.seconds,
                args.trace,
                workdir,
                result_path,
            ],
            env,
            DEADLINE_S - (time.perf_counter() - began),
        )
        probes += probe_setup(env, SETUP_PROBES - len(probes))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text("utf-8"))
    setup = summarize_setup(probes)

    metrics = per_layer(result, setup) if args.trace else end_to_end(result, setup)
    print(json.dumps({"record": record(args, result, setup, time.perf_counter() - began)}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
