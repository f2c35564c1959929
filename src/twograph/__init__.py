"""Exact combinatorics of single-vertex rank-2 graphs and their systems.

Decides periodicity of bicolored single-vertex graphs, classifies the
crossed products built over their balanced-word cores via the doubling
construction, verifies the symbolic word-algebra identities in exact
rational arithmetic, and computes the analogous power-map systems on
compact abelian groups.
"""

from .graphs import (
    BLUE,
    RED,
    DEFAULT_PATH_CAP,
    BadRangeError,
    Degree,
    GraphError,
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
from .algebra import (
    GradedElement,
    LevelMismatchError,
    ModuleVector,
    SuiteCheck,
    check_covariance,
    identity_suite,
    shift,
    transfer,
)
from .groups import (
    ConditionReport,
    ConditionVerdict,
    FiniteAbelian,
    GroupError,
    Padic,
    Solenoid,
    SystemReport,
    TableSizeError,
    Torus,
    check_conditions,
    classify,
    group_from_json,
    group_to_json,
    ker_size,
    transfer_eval,
)

__version__ = "0.1.0"
