"""The benchmark's tracer still finds every function it rebinds.

`perfbench/spans.py` wraps hwpreg functions by module and name.  A
refactor that renames or removes one of them breaks only traced
benchmark runs, so this installs and removes the tracer here.
"""

import importlib.util
from pathlib import Path

import hwpreg.cli
import hwpreg.cycles
import hwpreg.search
import hwpreg.solutions

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(capsys):
    spans = _load_spans()
    originals = {name: getattr(hwpreg.cycles, name) for name in ("cycle", "translate_cycle")}
    search_hwp = hwpreg.search.search_hwp
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert hwpreg.search.search_hwp is not search_hwp
        assert hwpreg.search_hwp is hwpreg.search.search_hwp
        assert hwpreg.cli.main(["verify", "24-7-4", "--format", "canonical"]) == 0
        # verify reads every orbit off the table; count a direct call
        c = hwpreg.solutions.load_solution("24-7-4").cycles["C1"]
        assert hwpreg.cycles.translate_cycle(c, c.group.identity) == c
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert hwpreg.search.search_hwp is search_hwp
    # the package namespace reads each name from its module, so a name
    # read while the tracer was in is restored with it
    assert hwpreg.search_hwp is search_hwp
    assert {name: getattr(hwpreg.cycles, name) for name in originals} == originals
    names = set(tracer.names)
    assert {"cli.main", "solutions.verify", "factors.verify_factorization"} <= names
    assert tracer.counts["cycles.translate"] > 0
