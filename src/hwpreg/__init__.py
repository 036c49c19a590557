"""Group-regular 2-factorizations of cocktail party graphs.

The package builds three concrete groups of order 24 and 48 with exact
arithmetic and constructs 2-factorizations of K_v minus a 1-factor from
orbits of base cycles under right translation; verify keeps a difference
set as an int mask, ``partial_differences`` as a frozenset of indices.
Nine solutions of HWP(v; 3, 4; r, s) are bundled and can be re-verified
from scratch; a backtracking searcher looks for new ones with a
prescribed orbit-type signature.

Each public name is imported from its module on first use (PEP 562), so
``import hwpreg`` loads no submodule and a caller pays only for the
layers it touches: groups, cycles and solutions to read a document,
factors (and cayley) to certify one, search to search.
"""

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "groups": ("GROUP_IDS", "ElementError", "FiniteGroup", "GroupError", "Subgroup", "build_group"),
    "cycles": (
        "Cycle", "CycleError", "CycleOrbit", "FactorRecipe", "cycle", "cycle_orbit",
        "cycle_stabilizer", "omega_representatives", "partial_differences",
    ),
    "solutions": (
        "SOLUTION_IDS", "SolutionFormatError", "SolutionSpec", "load_solution",
        "load_solution_file", "parse_solution_dict", "parse_solution_text", "resolve_subgroup",
        "solution_to_dict", "verify_solution",
    ),
    "factors": (
        "CERTIFICATE_FORMAT", "Certificate", "FactorReport", "OmegaReport", "RecipeError",
        "TwoFactor", "assemble_factor", "factor_orbit", "factor_stabilizer",
        "verify_factorization",
    ),
    "search": (
        "SearchOutcome", "SearchStats", "SearchTarget", "SignatureEntry", "TargetFormatError",
        "load_target_file", "parse_target_dict", "parse_target_text", "search_hwp",
        "target_from_solution",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # Not cached here, so a name rebound in its module (a tracer's wrapper,
    # then the original) reads the same through the package.  Any other
    # name raises, so `from hwpreg import cli` imports the submodule.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
