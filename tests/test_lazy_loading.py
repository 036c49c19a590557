"""Each layer of the package loads on first use.

`import hwpreg` loads no submodule; reading documents loads groups,
cycles and solutions; certifying loads factors; only a search loads the
searcher.  Module sets are read in a fresh interpreter, as the test
session has long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hwpreg

TARGET = {
    "group": "Q24",
    "target": {"r": 9, "s": 2},
    "signature": [
        {"cycle_length": 4, "orbit_length": 1, "subgroup": "G"},
        {"cycle_length": 4, "orbit_length": 1, "subgroup": "G"},
        {"cycle_length": 3, "orbit_length": 3, "subgroup": "L"},
        {"cycle_length": 3, "orbit_length": 6, "subgroup": "H"},
    ],
    "subgroups": {"L": ["a2b", "a3"], "H": ["b"]},
    "budget": {"nodes": 10},
}

# each step runs after the ones before it, in one fresh interpreter, and
# prints the hwpreg submodules loaded so far
STEPS = {
    "import": "import hwpreg",
    "read": "\n".join([
        "for gid in hwpreg.GROUP_IDS:",
        "    hwpreg.build_group(gid)",
        "for sid in hwpreg.SOLUTION_IDS:",
        "    hwpreg.load_solution(sid)",
    ]),
    "verify": "assert hwpreg.verify_solution(hwpreg.load_solution('48-17-6')).ok",
    "cli verify": "from hwpreg import cli\nassert cli.main(['verify', '24-9-2']) == 0",
    "cli search": "assert cli.main(['search', sys.argv[1]]) == 1",
}


def _loaded_after_each_step(target_path):
    lines = ["import json, sys"]
    for name, code in STEPS.items():
        lines += [
            code,
            f"print(json.dumps([{name!r}, sorted(m for m in sys.modules"
            " if m.startswith('hwpreg.'))]), file=sys.stderr)",
        ]
    env = {**os.environ, "PYTHONPATH": str(Path(hwpreg.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(lines), str(target_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = [json.loads(line) for line in done.stderr.splitlines() if line.startswith("[")]
    return {name: {m.removeprefix("hwpreg.") for m in mods} for name, mods in rows}


def test_each_entry_point_loads_only_its_layers(tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TARGET), encoding="utf-8")
    loaded = _loaded_after_each_step(target)
    assert list(loaded) == list(STEPS)
    assert loaded["import"] == set()
    assert loaded["read"] == {"groups", "cycles", "solutions", "data"}
    assert loaded["verify"] == loaded["read"] | {"factors", "cayley"}
    assert loaded["cli verify"] == loaded["verify"] | {"cli"}
    assert loaded["cli search"] == loaded["cli verify"] | {"search"}


def test_every_public_name_is_its_modules_object():
    for name in hwpreg.__all__:
        module = importlib.import_module(f"hwpreg.{hwpreg._OWNER[name]}")
        value = getattr(hwpreg, name)
        assert value is getattr(module, name), name
        # a class or function is defined by the module that exports it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    # FactorRecipe is read with a document and still reachable from factors
    cycles, factors = (importlib.import_module(f"hwpreg.{m}") for m in ("cycles", "factors"))
    assert hwpreg.FactorRecipe is cycles.FactorRecipe is factors.FactorRecipe


def test_namespace_lists_its_names_and_refuses_others():
    assert set(hwpreg.__all__) <= set(dir(hwpreg))
    assert "__version__" in dir(hwpreg)
    with pytest.raises(AttributeError, match="no_such_name"):
        hwpreg.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hwpreg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hwpreg.__all__)
    assert all(namespace[name] is getattr(hwpreg, name) for name in namespace)


def test_submodules_import_through_the_package():
    from hwpreg import cli, search

    assert cli is sys.modules["hwpreg.cli"]
    assert search is sys.modules["hwpreg.search"]
