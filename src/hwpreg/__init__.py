"""Group-regular 2-factorizations of cocktail party graphs.

The package builds three concrete groups of order 24 and 48 with exact
arithmetic and constructs 2-factorizations of K_v minus a 1-factor from
orbits of base cycles under right translation; a difference set is a
frozenset of element indices.  Nine solutions of HWP(v; 3, 4; r, s) are
bundled and can be re-verified from scratch; a backtracking searcher
looks for new ones with a prescribed orbit-type signature.
"""

from .cycles import (
    Cycle,
    CycleError,
    CycleOrbit,
    cycle,
    cycle_orbit,
    cycle_stabilizer,
    omega_representatives,
    partial_differences,
)
from .factors import (
    CERTIFICATE_FORMAT,
    Certificate,
    FactorRecipe,
    FactorReport,
    OmegaReport,
    RecipeError,
    TwoFactor,
    assemble_factor,
    factor_orbit,
    factor_stabilizer,
    verify_factorization,
)
from .groups import (
    GROUP_IDS,
    ElementError,
    FiniteGroup,
    GroupError,
    Subgroup,
    build_group,
)
from .search import (
    SearchOutcome,
    SearchStats,
    SearchTarget,
    SignatureEntry,
    TargetFormatError,
    load_target_file,
    parse_target_dict,
    parse_target_text,
    search_hwp,
    target_from_solution,
)
from .solutions import (
    SOLUTION_IDS,
    SolutionFormatError,
    SolutionSpec,
    load_solution,
    load_solution_file,
    parse_solution_dict,
    parse_solution_text,
    resolve_subgroup,
    solution_to_dict,
    verify_solution,
)

__version__ = "1.0.0"

__all__ = [
    "CERTIFICATE_FORMAT",
    "Certificate",
    "Cycle",
    "CycleError",
    "CycleOrbit",
    "ElementError",
    "FactorRecipe",
    "FactorReport",
    "FiniteGroup",
    "GROUP_IDS",
    "GroupError",
    "OmegaReport",
    "RecipeError",
    "SOLUTION_IDS",
    "SearchOutcome",
    "SearchStats",
    "SearchTarget",
    "SignatureEntry",
    "SolutionFormatError",
    "SolutionSpec",
    "Subgroup",
    "TargetFormatError",
    "TwoFactor",
    "assemble_factor",
    "build_group",
    "cycle",
    "cycle_orbit",
    "cycle_stabilizer",
    "factor_orbit",
    "factor_stabilizer",
    "load_solution",
    "load_solution_file",
    "load_target_file",
    "omega_representatives",
    "parse_solution_dict",
    "parse_solution_text",
    "parse_target_dict",
    "parse_target_text",
    "partial_differences",
    "resolve_subgroup",
    "search_hwp",
    "solution_to_dict",
    "target_from_solution",
    "verify_factorization",
    "verify_solution",
]
