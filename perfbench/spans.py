"""Span tracing of hwpreg's public functions, installed from outside.

`Tracer.install` rebinds each traced function in every hwpreg module that
imported it, so calls between modules are seen as well as calls from the
benchmark.  Spans (name, start, end, parent) are kept in memory; a layer's
self time is its spans' duration minus the part covered by child spans.
Functions that are called too often to span are only counted.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("groups", "cayley", "cycles", "factors", "solutions", "search", "cli")

# span name -> (module, attribute); a dotted attribute names a method or
# cached property on a class
SPANNED = {
    "groups.format": ("groups", "FiniteGroup.format"),
    "cayley.cocktail_party_graph": ("cayley", "cocktail_party_graph"),
    "cayley.edges": ("cayley", "CayleyGraph.edges"),
    "cycles.cycle": ("cycles", "cycle"),
    "cycles.stabilizer": ("cycles", "cycle_stabilizer"),
    "cycles.orbit": ("cycles", "cycle_orbit"),
    "cycles.partial_differences": ("cycles", "partial_differences"),
    "cycles.partition": ("cycles", "verify_partition"),
    "factors.assemble": ("factors", "assemble_factor"),
    "factors.stabilizer": ("factors", "factor_stabilizer"),
    "factors.orbit": ("factors", "factor_orbit"),
    "factors.verify_factorization": ("factors", "verify_factorization"),
    "solutions.parse": ("solutions", "parse_solution_dict"),
    "solutions.verify": ("solutions", "verify_solution"),
    "solutions.omega_reports": ("solutions", "omega_reports"),
    "search.parse_target": ("search", "parse_target_dict"),
    "search.target_from_solution": ("search", "target_from_solution"),
    "search.search_hwp": ("search", "search_hwp"),
    "cli.main": ("cli", "main"),
}
COUNTED = {"cycles.translate": ("cycles", "translate_cycle")}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts = {name: 0 for name in COUNTED}
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hwpreg.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("hwpreg")
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for name, (mod, attr) in table.items():
                if "." in attr:
                    self._wrap_member(mods[mod], attr, name, make)
                    continue
                orig = getattr(mods[mod], attr)
                wrapped = make(name, orig)
                for m in mods.values():
                    if getattr(m, attr, None) is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def _wrap_member(self, module, attr, name, make) -> None:
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name)
        orig = cls.__dict__[member]
        if isinstance(orig, functools.cached_property):
            new = functools.cached_property(make(name, orig.func))
            new.__set_name__(cls, member)
        else:
            new = make(name, orig)
        self._undo.append((cls, member, orig))
        setattr(cls, member, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """A position to measure one operation from (see `since`)."""
        return len(self.names), dict(self.counts)

    def since(self, mark) -> dict:
        """Per-name totals of the spans recorded after `mark`:
        {name: [calls, total_s, self_s, under_search_s]}; counted
        functions appear as [calls, 0, 0, 0]."""
        first, counts0 = mark
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        child = [0.0] * (len(names) - first)
        for i in range(first, len(names)):
            p = parents[i]
            if p >= first:
                child[p - first] += ends[i] - starts[i]
        out: dict[str, list] = {}
        for i in range(first, len(names)):
            dur = ends[i] - starts[i]
            row = out.setdefault(names[i], [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i - first]
            if self._under(i, "search.search_hwp"):
                row[3] += dur
        for name, n in self.counts.items():
            out[name] = [n - counts0[name], 0.0, 0.0, 0.0]
        return out

    def _under(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def dump(self, path: str) -> None:
        """Write every span as one `name start end parent` line."""
        with open(path, "w", encoding="utf-8") as fh:
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f"{n} {s:.9f} {e:.9f} {p}\n")
