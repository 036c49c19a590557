"""Command line front end for the 2-factorization library.

Subcommands: ``list`` the bundled solutions, ``verify`` a solution by id
or file, ``omega`` and ``orbit`` to inspect one base cycle, ``search``
to run the backtracking searcher on a target file, and ``export`` to
dump a solution document or a DOT rendering of its factorization.

Exit codes are a stable contract: 0 success, 1 verification failure or
unsuccessful search, 2 malformed input.  ``--format canonical`` selects
byte-deterministic JSON; human output uses the ASCII element notation
(square root of 2 written as ``r2``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .cycles import CycleError, cycle_orbit, omega_representatives, partial_differences
from .factors import RecipeError, _tile, canonical_json
from .groups import ElementError, GroupError
from .solutions import (
    SOLUTION_IDS,
    SolutionFormatError,
    SolutionSpec,
    load_solution,
    load_solution_file,
    resolve_subgroup,
    solution_to_dict,
    verify_solution,
)


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _bad_input(what: str, err: ValueError) -> CliError:
    """Exit 2: a file that cannot be read, or a malformed document."""
    if isinstance(err.__cause__, (OSError, UnicodeDecodeError)):
        return CliError(2, str(err))
    return CliError(2, f"bad {what} document: {err}")


def _pretty(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load(token: str) -> SolutionSpec:
    """Resolve a bundled solution id or a path to a solution file."""
    try:
        if token in SOLUTION_IDS:
            return load_solution(token)
        if os.path.exists(token):
            return load_solution_file(token)
    except SolutionFormatError as err:
        raise _bad_input("solution", err) from err
    raise CliError(2, f"{token!r} is neither a bundled solution id nor a file")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(2, f"cannot write output: {err}") from err


def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for sid in SOLUTION_IDS:
        spec = load_solution(sid)
        v, r, s = spec.expected
        rows.append({"id": sid, "group": spec.group.id, "v": v, "r": r, "s": s})
    if args.format == "canonical":
        _emit(canonical_json(rows), args.out)
    else:
        lines = [
            f"{row['id']:<10} {row['group']:<5} v={row['v']:<3} r={row['r']:<3} s={row['s']}"
            for row in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load(args.solution)
    cert = verify_solution(spec)
    text = cert.canonical_text() if args.format == "canonical" else cert.human_text()
    sys.stdout.write(text)
    if args.out is not None:
        _emit(cert.canonical_text(), args.out)
    return 0 if cert.ok else 1


def _cycle_of(spec: SolutionSpec, name: str):
    if name not in spec.cycles:
        raise CliError(
            2, f"unknown cycle {name!r}; solution has {', '.join(spec.cycles)}"
        )
    return spec.cycles[name]


def cmd_omega(args: argparse.Namespace) -> int:
    spec = _load(args.solution)
    c = _cycle_of(spec, args.cycle)
    G = spec.group
    reps = [G.format(d) for d in omega_representatives(c)]
    members = [G.format(d) for d in sorted(partial_differences(c))]
    if args.format == "canonical":
        doc = {
            "solution": spec.id,
            "cycle": args.cycle,
            "representatives": reps,
            "members": members,
        }
        _emit(canonical_json(doc), args.out)
    else:
        _emit("{" + ", ".join(reps) + "}^{±1}\n", args.out)
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    spec = _load(args.solution)
    c = _cycle_of(spec, args.cycle)
    name = args.subgroup
    if name != "G" and name not in spec.subgroups:
        raise CliError(
            2,
            f"unknown subgroup {name!r}; solution has G, {', '.join(spec.subgroups)}",
        )
    orb = cycle_orbit(c, resolve_subgroup(spec, name))
    if args.format == "canonical":
        doc = {
            "solution": spec.id,
            "cycle": args.cycle,
            "subgroup": name,
            "orbit_length": len(orb),
            "stabilizer_order": orb.stabilizer.order,
            "cycles": [[spec.group.format(v) for v in cc.verts] for cc in orb.cycles],
        }
        _emit(canonical_json(doc), args.out)
    else:
        lines = [
            f"Orb[{name}]({args.cycle}): {len(orb)} cycles of length {c.length}, "
            f"stabilizer order {orb.stabilizer.order}"
        ]
        lines.extend(f"  {cc.format()}" for cc in orb.cycles)
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from .search import TargetFormatError, load_target_file, search_hwp  # loaded by search alone

    try:
        target = load_target_file(args.target)
    except TargetFormatError as err:
        raise _bad_input("target", err) from err
    if args.budget_nodes is not None:
        if args.budget_nodes < 1:
            raise CliError(2, "--budget-nodes must be positive")
        target = dataclasses.replace(target, budget_nodes=args.budget_nodes)
    outcome = search_hwp(target)
    if args.format == "canonical":
        sys.stdout.write(canonical_json(outcome.to_dict()))
    else:
        sys.stdout.write(outcome.human_text())
    if args.out is not None and outcome.solution is not None:
        _emit(_pretty(outcome.solution), args.out)
    return 0 if outcome.verdict == "found" else 1


def _dot_text(spec: SolutionSpec) -> str:
    """Each edge of a factor's orbit, labelled by the first such factor: an
    orbit holds every translate of its base cycles, so every {g, d*g}."""
    G, taken = spec.group, 0
    owner: dict[int, str] = {}  # difference -> label of the first factor using it
    for recipe in spec.factors:
        _tile(G, recipe)
        for _, c in recipe.cycles:
            new, taken = c._omega & ~taken, taken | c._omega
            owner.update((d, recipe.label) for d in range(len(G)) if new >> d & 1)
    T, inv, n = G.table, G.inv_table, len(G)
    quoted = spec.id.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{quoted}" {{']
    lines += [
        f'  "{G.format(u)}" -- "{G.format(w)}" [factor="{owner[d]}"];'
        for u in range(n) for w in range(u + 1, n) if (d := T[w][inv[u]]) in owner
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export(args: argparse.Namespace) -> int:
    spec = _load(args.solution)
    if args.dot:
        try:
            _emit(_dot_text(spec), args.out)
        except (RecipeError, GroupError) as err:
            raise CliError(1, f"cannot expand factorization: {err}") from err
        return 0
    doc = solution_to_dict(spec)
    _emit(canonical_json(doc) if args.format == "canonical" else _pretty(doc), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwpreg",
        description="construct, inspect and verify group-regular 2-factorizations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "canonical"),
        default="human",
        help="human-readable text or byte-deterministic JSON",
    )
    out_help = "write the output to PATH instead of stdout; verify and search print it"
    out_help += " as usual and write the canonical certificate or the found document to PATH"
    common.add_argument("--out", metavar="PATH", help=out_help)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", parents=[common], help="list bundled solutions")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("verify", parents=[common], help="verify a solution id or file")
    p.add_argument("solution", help="bundled id or path to a solution file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("omega", parents=[common], help="differences of a base cycle")
    p.add_argument("solution")
    p.add_argument("cycle", help="cycle name, e.g. C4")
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("orbit", parents=[common], help="orbit of a cycle under a subgroup")
    p.add_argument("solution")
    p.add_argument("cycle")
    p.add_argument("subgroup", help="subgroup name from the solution, or G")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("search", parents=[common], help="run the backtracking searcher")
    p.add_argument("target", help="path to a search target file")
    p.add_argument(
        "--budget-nodes", type=int, metavar="N", help="override the target's node budget"
    )
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("export", parents=[common], help="dump a solution document")
    p.add_argument("solution")
    p.add_argument(
        "--dot", action="store_true", help="emit the expanded factorization as DOT"
    )
    p.set_defaults(fn=cmd_export)

    return parser


# parse_args leaves a parser as it found it, so main builds one per process,
# on its first call; build_parser itself returns a fresh parser each time
_shared_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as err:
        print(f"hwpreg: {err}", file=sys.stderr)
        return err.code
    except (SolutionFormatError, ElementError, CycleError) as err:
        print(f"hwpreg: {err}", file=sys.stderr)
        return 2
    except (RecipeError, GroupError) as err:
        print(f"hwpreg: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
