"""Seeded randomized construction of group-symmetric coalition rules.

The target object is a small set of voters meeting every translate under a
given permutation group; its orbit then forms a pairwise-intersecting
coalition family, and the group certifies the equity of the induced rule.

All randomness flows through Python's Mersenne Twister (random.Random)
seeded explicitly, with draws taken by randrange in stream order, so every
construction is reproducible byte for byte from (group, seed).
"""

from __future__ import annotations

import math
import random

from ._record import record
from .geometry import pgl2_elements
from .limits import MAX_ATTEMPTS
from .perms import PermGroup, Permutation, check_group_entries, generate_closure
from .rules import CoalitionRule, Family, canonical_family, preserves_family


class ConstructionFailed(RuntimeError):
    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


@record
class IntersectingSet:
    """A set of points meeting all its translates under a group."""

    points: tuple[int, ...]
    ell: int
    attempts: int
    group_order: int
    certified: bool


def verify_intersecting_set(group: PermGroup, points) -> bool:
    """Re-check translate overlap, written independently of the search loop.
    A set of every voter is its only translate, and needs no element."""
    pts = frozenset(points)
    return pts == set(range(group.n)) or all(
        not pts.isdisjoint(map(g.__getitem__, pts)) for g in group.walk()
    )


def intersecting_set(group: PermGroup, seed: int = 0) -> IntersectingSet:
    """Draw a set of at most 2*ceil(sqrt(n)*ln(m)) points meeting every
    translate.

    The fixed block {0..ell-1} is joined with ell seeded uniform draws;
    failed attempts, up to MAX_ATTEMPTS, redraw the random half on the same
    stream. Success is confirmed twice, by the search predicate and by an
    independent pass.
    """
    n = group.n
    m = group.order
    if m <= 2:
        raise ValueError("group order must exceed 2")
    ell = math.ceil(math.sqrt(n) * math.log(m))
    if ell >= n:
        # the fixed block alone is every voter, whatever the draws
        return IntersectingSet(
            points=tuple(range(n)), ell=ell, attempts=1, group_order=m, certified=True
        )
    rng = random.Random(seed)
    base = tuple(range(ell))
    for attempt in range(1, MAX_ATTEMPTS + 1):
        draws = [rng.randrange(n) for _ in range(ell)]
        point_set = set(base) | set(draws)
        if all(any(g[v] in point_set for v in point_set) for g in group.walk()):
            points = tuple(sorted(point_set))
            if not verify_intersecting_set(group, points):
                raise AssertionError("verification disagrees with search")
            return IntersectingSet(
                points=points,
                ell=ell,
                attempts=attempt,
                group_order=m,
                certified=True,
            )
    raise ConstructionFailed(
        f"no intersecting set within {MAX_ATTEMPTS} attempts", MAX_ATTEMPTS
    )


def group_from_descriptor(desc: dict) -> PermGroup:
    """Rebuild a group from its serializable description; one too large
    for its stabilizer chain raises ClosureOverflow before it is built."""
    kind = desc.get("kind")
    if kind == "cyclic":
        check_group_entries(desc["n"] ** 2, f"a chain of degree {desc['n']}")
        return generate_closure(desc["n"], [Permutation.rotation(desc["n"])])
    if kind == "pgl2":
        return pgl2_elements(desc["p"])
    raise ValueError(f"unknown group descriptor {kind!r}")


def orbit_family(group: PermGroup, members) -> Family:
    """All translates of the member set, deduplicated, in canonical form."""
    whole = tuple(range(group.n))
    if set(members) == set(whole):
        return (whole,)
    return canonical_family((g[v] for v in members) for g in group.walk())


def build_rule_from_group(
    group: PermGroup, descriptor: dict, seed: int = 0
) -> CoalitionRule:
    """Coalition rule whose family is the orbit of a drawn intersecting set.

    Pairwise intersection of the family is re-validated directly by the rule
    constructor, and every generator is checked to permute the family, so
    the whole group does and is a certified automorphism subgroup.
    """
    found = intersecting_set(group, seed=seed)
    rule = CoalitionRule(
        group.n,
        orbit_family(group, found.points),
        provenance={
            "kind": "group_orbit",
            "group": descriptor,
            "seed": seed,
            "ell": found.ell,
            "attempts": found.attempts,
            "points": list(found.points),
        },
    )
    if not preserves_family(rule.family, group.generators):
        raise AssertionError("group generator does not permute the family")
    return rule


@record
class EquitableConstruction:
    rule: CoalitionRule
    points: tuple[int, ...]
    ell: int
    attempts: int
    group_order: int
    set_size_bound: float
    coalition_size_bound: float


def build_3_equitable_rule(p: int, seed: int = 0) -> EquitableConstruction:
    """Rule on p+1 voters with a sharply 3-transitive symmetry group.

    The fractional-linear group on the projective line has order
    n(n-1)(n-2), so the drawn set is within 2*sqrt(n)*ln(n(n-1)(n-2)) + 2
    voters and in particular within 6*sqrt(n)*ln(n) + 2.
    """
    group = pgl2_elements(p)
    n = group.n
    rule = build_rule_from_group(group, {"kind": "pgl2", "p": p}, seed=seed)
    prov = rule.provenance
    m = group.order
    return EquitableConstruction(
        rule=rule,
        points=tuple(prov["points"]),  # drawn in increasing order
        ell=prov["ell"],
        attempts=prov["attempts"],
        group_order=m,
        set_size_bound=2.0 * math.sqrt(n) * math.log(m) + 2.0,
        coalition_size_bound=6.0 * math.sqrt(n) * math.log(n) + 2.0,
    )
