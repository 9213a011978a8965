"""Bounded plan length planning for SAS+ tasks.

The package decides whether a SAS+ instance has a plan of at most k steps.
For precondition-free instances with at most two effects per action it runs
a fixed-parameter pipeline through directed Steiner tree; everything else
goes to an exhaustive search oracle.  Restriction detection, complexity
table lookups, hardness gadget generators and plain-text file formats round
out the toolkit; the `sasbp` command exposes all of it.
"""

from .core import (
    EMPTY_STATE,
    Action,
    BoundedQuery,
    PartialState,
    PlanningInstance,
    ResourceLimitError,
    SolveResult,
    ValidationReport,
    Variable,
    apply_action,
    is_goal_state,
    is_valid_in,
    validate_plan,
)
from .fileformat import (
    FormatError,
    parse_instance,
    parse_plan,
    parse_steiner,
    write_instance,
    write_plan,
    write_steiner,
)
from .gadgets import (
    GadgetOutput,
    MulticoloredGraph,
    compose_or_02,
    compose_or_pub,
    gen_clique_gadget,
    gen_or_tree,
    or_input_02,
    or_input_pub,
    or_threshold,
)
from .oracle import decide_bfs
from .planner02 import (
    ReductionArtifacts,
    extract_plan,
    pick_method,
    reduce_to_steiner,
    solve,
    solve_02,
)
from .preprocess import Lemma1Output, chain_bound, lemma1_transform, lift_plan
from .restrictions import (
    ARBITRARY,
    ClassificationRecord,
    RestrictionProfile,
    broken_variables,
    detect_profile,
    lookup_pe,
    lookup_pubs,
    split_effects,
)
from .steiner import SteinerInstance, SteinerSolution, brute_dst, extract_arborescence, solve_dst

__version__ = "0.1.0"

__all__ = [
    "ARBITRARY",
    "Action",
    "BoundedQuery",
    "ClassificationRecord",
    "EMPTY_STATE",
    "FormatError",
    "GadgetOutput",
    "Lemma1Output",
    "MulticoloredGraph",
    "PartialState",
    "PlanningInstance",
    "ReductionArtifacts",
    "ResourceLimitError",
    "RestrictionProfile",
    "SolveResult",
    "SteinerInstance",
    "SteinerSolution",
    "ValidationReport",
    "Variable",
    "apply_action",
    "broken_variables",
    "brute_dst",
    "chain_bound",
    "compose_or_02",
    "compose_or_pub",
    "decide_bfs",
    "detect_profile",
    "extract_arborescence",
    "extract_plan",
    "gen_clique_gadget",
    "gen_or_tree",
    "is_goal_state",
    "is_valid_in",
    "lemma1_transform",
    "lift_plan",
    "lookup_pe",
    "lookup_pubs",
    "or_input_02",
    "or_input_pub",
    "or_threshold",
    "parse_instance",
    "parse_plan",
    "parse_steiner",
    "pick_method",
    "reduce_to_steiner",
    "solve",
    "solve_02",
    "solve_dst",
    "split_effects",
    "validate_plan",
    "write_instance",
    "write_plan",
    "write_steiner",
]
