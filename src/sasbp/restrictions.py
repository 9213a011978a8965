"""Syntactic restrictions, the goal-relative effect split, and complexity lookup.

Two restriction families are tracked:

* the four structural flags P (postunique), U (unary), B (Boolean) and
  S (single-valued), and
* the numeric profile (p, e): the maximum number of defined precondition
  and effect entries over all actions.

split_effects splits an action's effects relative to the goal: an effect is
good when it writes the goal value (or the goal leaves the variable free)
and bad otherwise.  An action with only bad effects can be deleted from any
valid plan, so the Steiner reduction and the chain transform both skip it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .core import Action, PlanningInstance

IN_P = "in P"
NP_COMPLETE = "NP-complete"
NP_HARD = "NP-hard"
PSPACE_COMPLETE = "PSPACE-complete"

IN_FPT = "in FPT"
W1_COMPLETE = "W[1]-complete"
W2_COMPLETE = "W[2]-complete"

KERNEL_CONSTANT = "yes (constant)"
KERNEL_NO_POLY = "no unless coNP ⊆ NP/poly"
KERNEL_NA = "n/a (not in FPT)"

#: Marker for "this parameter is unbounded" in complexity table queries.
ARBITRARY = None


@dataclass(frozen=True)
class RestrictionProfile:
    """Structural flags plus the numeric (p, e) profile of an instance."""

    has_P: bool
    has_U: bool
    has_B: bool
    has_S: bool
    max_preconditions: int
    max_effects: int

    def flags(self) -> frozenset[str]:
        return frozenset(flag for flag in "PUBS" if getattr(self, f"has_{flag}"))


@dataclass(frozen=True)
class ClassificationRecord:
    """One entry of the complexity tables."""

    classical: str
    parameterized: str
    poly_kernel: str


def detect_profile(inst: PlanningInstance) -> RestrictionProfile:
    """Compute all four structural flags and the (p, e) profile.

    P: for every variable and value, at most one action writes that value.
    U: every action has exactly one defined effect entry, so actions with no
       effects violate U.
    B: every domain has exactly two values.
    S: all prevail values agree, where a prevail entry of an action is a
       defined precondition on a variable the action does not affect.
    """
    pres = [action.pre for action in inst.actions]
    effs = [action.eff for action in inst.actions]
    written = [entry for eff in effs for entry in eff.items()]
    effect_lengths = set(map(len, effs))
    # distinct prevail (variable, value) entries; S fails when a variable has two
    prevail = any(pres) and {
        entry for pre, eff in zip(pres, effs) for entry in pre.items() if entry[0] not in eff
    }
    return RestrictionProfile(
        has_P=len(set(written)) == len(written),
        has_U=effect_lengths <= {1},
        has_B=all([len(v.domain) == 2 for v in inst.variables]),
        has_S=not prevail or len({name for name, _ in prevail}) == len(prevail),
        max_preconditions=max(map(len, pres), default=0),
        max_effects=max(effect_lengths, default=0),
    )


def split_effects(action: Action, goal: Mapping[str, str]) -> tuple[list[str], list[str]]:
    """The variables of an action's good and of its bad effects, each in
    effect order.  An effect is good when it writes the goal value or the goal
    leaves its variable free."""
    good, bad = [], []
    for var, value in action.eff.items():
        (good if goal.get(var, value) == value else bad).append(var)
    return good, bad


def broken_variables(inst: PlanningInstance) -> tuple[str, ...]:
    """Variables whose initial value differs from a defined goal value.

    Any plan must touch each of these at least once, so their count bounds
    the plan length from below for instances with few effects per action.
    """
    return tuple(
        v.name
        for v in inst.variables
        if v.name in inst.goal and inst.init[v.name] != inst.goal[v.name]
    )


# (p, e) table.  Rows: p = 0, 1, fixed > 1, arbitrary; columns: e = 1, 2,
# fixed > 2, arbitrary.  Bounded plan existence with the bound as parameter.
_R = ClassificationRecord
_PE_TABLE: dict[tuple[str, str], ClassificationRecord] = {
    ("0", "1"): _R(IN_P, IN_FPT, KERNEL_CONSTANT),
    ("0", "2"): _R(NP_COMPLETE, IN_FPT, KERNEL_NO_POLY),
    ("0", ">2"): _R(NP_COMPLETE, W1_COMPLETE, KERNEL_NA),
    ("0", "any"): _R(NP_COMPLETE, W2_COMPLETE, KERNEL_NA),
    ("1", "1"): _R(NP_HARD, W1_COMPLETE, KERNEL_NA),
    ("1", "2"): _R(NP_HARD, W1_COMPLETE, KERNEL_NA),
    ("1", ">2"): _R(NP_HARD, W1_COMPLETE, KERNEL_NA),
    ("1", "any"): _R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA),
    (">1", "1"): _R(NP_HARD, W1_COMPLETE, KERNEL_NA),
    (">1", "2"): _R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA),
    (">1", ">2"): _R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA),
    (">1", "any"): _R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA),
    ("any", "1"): _R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA),
    ("any", "2"): _R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA),
    ("any", ">2"): _R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA),
    ("any", "any"): _R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA),
}


def _pe_bucket(p: int | None, e: int | None) -> tuple[str, str]:
    if p is ARBITRARY:
        row = "any"
    elif p == 0:
        row = "0"
    elif p == 1:
        row = "1"
    else:
        row = ">1"
    if e is ARBITRARY:
        col = "any"
    elif e == 0:
        raise ValueError("outside classified range: the (p, e) table starts at e = 1")
    elif e == 1:
        col = "1"
    elif e == 2:
        col = "2"
    else:
        col = ">2"
    return row, col


def lookup_pe(p: int | None, e: int | None) -> ClassificationRecord:
    """Entry of the (p, e) table; pass ARBITRARY (None) for unbounded."""
    if p is not ARBITRARY and p < 0:
        raise ValueError("p must be non-negative or ARBITRARY")
    if e is not ARBITRARY and e < 0:
        raise ValueError("e must be non-negative or ARBITRARY")
    return _PE_TABLE[_pe_bucket(p, e)]


def lookup_pubs(flags: frozenset[str] | set[str] | str) -> ClassificationRecord:
    """Entry of the flag-subset table, keyed by a subset of {P, U, B, S}."""
    flags = frozenset(flags)
    unknown = flags - set("PUBS")
    if unknown:
        raise ValueError(f"unknown restriction flags: {sorted(unknown)}")
    # Restrictions containing P, U and S are polynomial; other P-containing
    # restrictions are NP-hard but fixed-parameter tractable without a
    # polynomial kernel; the remaining ones split on U, which lowers the
    # parameterized complexity from W[2] to W[1].
    if {"P", "U", "S"} <= flags:
        return _R(IN_P, IN_FPT, KERNEL_CONSTANT)
    if "P" in flags:
        return _R(NP_HARD, IN_FPT, KERNEL_NO_POLY)
    if flags <= {"U", "S", "B"} and {"U", "S"} <= flags:
        # US and UBS stay in NP classically.
        return _R(NP_COMPLETE, W1_COMPLETE, KERNEL_NA)
    if "U" in flags:
        return _R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA)
    return _R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)

