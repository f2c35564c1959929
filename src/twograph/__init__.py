"""Exact combinatorics of single-vertex rank-2 graphs and their systems.

Decides periodicity of bicolored single-vertex graphs, classifies the
crossed products built over their balanced-word cores via the doubling
construction, verifies the symbolic word-algebra identities in exact
rational arithmetic, and computes the analogous power-map systems on
compact abelian groups.

The graph-side names load with the package.  The word algebra and the
group systems load on first use of one of their names (PEP 562), so a
process that only decides periodicity or crossed products never pays
for them.  A resolved name is looked up on its module at every access
and never stored here, so a patch of the module shows through the
package and is gone once undone.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .graphs import (
    BLUE,
    RED,
    DEFAULT_PATH_CAP,
    BadRangeError,
    Degree,
    GraphError,
    GroupError,
    IdOutOfRangeError,
    NotBijectiveError,
    Path,
    PatternMismatchError,
    SizeLimitError,
    SpecMismatchError,
    TwoGraph,
    flip_graph,
    random_two_graph,
    twin_graph,
)
from .periodicity import (
    APERIODIC,
    NO_CANDIDATE_PAIRS,
    PERIODIC,
    UNKNOWN,
    DegenerateCountsError,
    PeriodicityVerdict,
    PeriodWitness,
    candidate_pairing,
    decide_periodicity,
    minimal_exponents,
    verify_period,
)
from .doubling import CrossedProductReport, DoubledTwoGraph, crossed_product_report, double

# name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        (
            "GradedElement",
            "LevelMismatchError",
            "ModuleVector",
            "SuiteCheck",
            "identity_suite",
            "shift",
            "transfer",
        ),
        "algebra",
    ),
    **dict.fromkeys(
        (
            "ConditionReport",
            "ConditionVerdict",
            "FiniteAbelian",
            "Padic",
            "Solenoid",
            "SystemReport",
            "TableSizeError",
            "Torus",
            "check_conditions",
            "classify",
            "group_from_json",
            "group_to_json",
            "ker_size",
            "transfer_eval",
        ),
        "groups",
    ),
}

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("algebra", "groups"):
        # the import binds the submodule here, as any import of it does
        return _import_module("." + name, __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module("." + _LAZY[name], __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
