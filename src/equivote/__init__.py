"""Voting rules with symmetric structure.

Evaluation of rule variants over {-1,0,+1} profiles, automorphism-group
computation with certified subgroups, equity and k-equity verdicts,
minimal-winning-coalition search, pivotality, randomized group-symmetric
constructions, and a verification harness for the library's quantitative
guarantees.
"""

from .analysis import (
    AnalysisReport,
    EquityCertificate,
    MinCoalitionSearch,
    analyze_rule,
    assignment_classes,
    automorphism_group,
    certified_subgroup,
    check_sqrt_lower_bound,
    is_cyclic_rule,
    is_equitable,
    is_k_equitable,
    is_winning_coalition,
    min_winning_coalitions,
    pivotality,
    roles_equivalent,
)
from .geometry import (
    ProjectivePlane,
    build_projective_rule,
    pgl2_elements,
    pgl2_order,
    pgl3_elements,
    pgl3_order,
    projective_lines,
    projective_plane,
    projective_points,
)
from .perms import (
    ClosureOverflow,
    PermGroup,
    Permutation,
    generate_closure,
    is_k_transitive,
    orbit,
)
from .profiles import VoteProfile
from .randomized import (
    ConstructionFailed,
    IntersectingSet,
    build_3_equitable_rule,
    build_rule_from_group,
    intersecting_set,
)
from .rules import (
    CCC,
    CoalitionRule,
    Dictatorship,
    GRD,
    InfeasibleError,
    LongestRun,
    Majority,
    VotingRule,
    evaluate,
    is_neutral,
    is_positively_responsive,
    is_symmetric,
    make_coalition_rule,
    outcome,
    uniform_grd,
)
from .serialize import FORMAT_VERSION, dumps_rule, loads_rule
from .verify import VerificationReport, verify_claim

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CCC",
    "ClosureOverflow",
    "CoalitionRule",
    "ConstructionFailed",
    "Dictatorship",
    "EquityCertificate",
    "FORMAT_VERSION",
    "GRD",
    "InfeasibleError",
    "IntersectingSet",
    "LongestRun",
    "Majority",
    "MinCoalitionSearch",
    "PermGroup",
    "Permutation",
    "ProjectivePlane",
    "VerificationReport",
    "VoteProfile",
    "VotingRule",
    "analyze_rule",
    "assignment_classes",
    "automorphism_group",
    "build_3_equitable_rule",
    "build_projective_rule",
    "build_rule_from_group",
    "certified_subgroup",
    "check_sqrt_lower_bound",
    "dumps_rule",
    "evaluate",
    "generate_closure",
    "intersecting_set",
    "is_cyclic_rule",
    "is_equitable",
    "is_k_equitable",
    "is_k_transitive",
    "is_neutral",
    "is_positively_responsive",
    "is_symmetric",
    "is_winning_coalition",
    "loads_rule",
    "make_coalition_rule",
    "min_winning_coalitions",
    "orbit",
    "outcome",
    "pgl2_elements",
    "pgl2_order",
    "pgl3_elements",
    "pgl3_order",
    "pivotality",
    "projective_lines",
    "projective_plane",
    "projective_points",
    "roles_equivalent",
    "uniform_grd",
    "verify_claim",
]
