"""Desk-scale re-verification of the library's quantitative guarantees.

Each verifier runs a fixed grid of exact finite checks. It is a generator:
it yields its `CheckResult`s in order and returns its params dict, and it
is private, so `verify_claim` is the one way to run it. `verify_claim`
times the run, collects the checks and builds the `VerificationReport`,
which passes when there is at least one check and every check passes;
`verify all` runs the whole suite. A grid is walked lazily, and its first
size that cannot be checked exactly raises. Reports are deterministic given
(parameters, seeds, caps); wall time is kept out of the machine format.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Generator, Iterable, Sequence

from ._record import record
from .analysis import (
    assignment_classes,
    automorphism_group,
    check_sqrt_lower_bound,
    grd_min_coalition_structural,
    grd_recursion_bound,
    has_uniform_assignment_menu,
    identity_class_realizes_all,
    is_cyclic_rule,
    is_equitable,
    is_k_equitable,
    is_winning_coalition,
    min_winning_coalitions,
    roles_equivalent,
)
from .geometry import build_projective_rule, pgl2_order, pgl3_elements
from .limits import COALITION_BUDGET, PROFILE_SCAN_CAP
from .perms import Permutation, generate_closure, is_k_transitive
from .randomized import (
    build_3_equitable_rule,
    group_from_descriptor,
    intersecting_set,
    verify_intersecting_set,
)
from .serialize import FORMAT_VERSION
from .rules import (
    CCC,
    GRD,
    CoalitionRule,
    Dictatorship,
    InfeasibleError,
    LongestRun,
    Majority,
    VotingRule,
    is_neutral,
    is_positively_responsive,
    is_symmetric,
    make_coalition_rule,
    uniform_grd,
)

@record
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@record
class VerificationReport:
    claim: str
    passed: bool
    checks: tuple[CheckResult, ...]
    params: dict
    wall_time: float


# what a verifier returns: its checks, yielded, then its params dict
Checks = Generator[CheckResult, None, dict]


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def verification_to_dict(report: VerificationReport) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "verification",
        "claim": report.claim,
        "passed": report.passed,
        "params": report.params,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1


def proof_coalition(n: int) -> tuple[int, ...]:
    """One short consecutive block plus evenly spaced run breakers."""
    r = _ceil_sqrt(n)
    return tuple(sorted(set(range(r)) | set(range(0, n, r))))


def _thm1(ns: Sequence[int] = range(4, 17)) -> Checks:
    """A small fixed coalition wins the cycle-run rule at every tested size."""
    if ns:  # a size below 1 is refused first; a range's least size is an end
        LongestRun(min(ns[0], ns[-1]) if isinstance(ns, range) else min(ns))
    for n in ns:
        rule = LongestRun(n)
        w = proof_coalition(n)
        bound = 2 * _ceil_sqrt(n) - 1
        yield _check(
            f"size_bound_n{n}",
            len(w) <= bound,
            f"n={n} |W|={len(w)} bound={bound} W={list(w)}",
        )
        if n <= PROFILE_SCAN_CAP:
            won = is_winning_coalition(rule, w, method="exhaustive")
            detail = "exhaustive"
        else:
            # the stated fast path is the two extremal profiles; the rule has
            # no monotone certificate, so cross-check the whole slab too
            won_fast = is_winning_coalition(
                rule, w, method="monotone", assume_monotone=True
            )
            won_full = is_winning_coalition(rule, w, method="exhaustive")
            won = won_fast and won_full
            detail = f"monotone={won_fast} exhaustive={won_full}"
        yield _check(f"winning_n{n}", won, detail)
        yield _check(
            f"equitable_n{n}",
            is_equitable(rule) is True,
            "validated" if n <= PROFILE_SCAN_CAP else "structural rotation",
        )
    return {"ns": list(ns)}


def equitable_catalog() -> list[VotingRule]:
    """The rules certified equitable at table scale."""
    rules: list[VotingRule] = [LongestRun(n) for n in range(4, 13)]
    rules += [CCC(2, 2), CCC(2, 3), CCC(3, 3)]
    rules.append(uniform_grd((3, 3)))
    rules.append(build_projective_rule(2))
    return rules


def _thm2() -> Checks:
    """Equitable rules never have winning coalitions below sqrt(n)."""
    catalog = equitable_catalog()
    for rule in catalog:
        n = rule.n
        label = rule.label
        need = _ceil_sqrt(n)
        search = min_winning_coalitions(rule)
        size = search.min_size if search.exact else -1
        yield _check(
            f"min_size_{label}",
            search.exact and size >= need,
            f"n={n} min={size} need>={need} witnesses={len(search.witnesses)}",
        )
        audit = check_sqrt_lower_bound(rule, search=search)
        yield _check(
            f"sqrt_audit_{label}",
            audit["bound_ok"] and audit["witness_overlap_ok"],
            f"min^2={size * size} n={n} overlap={audit['witness_overlap_ok']}",
        )
    # the equity hypothesis is necessary: a lopsided two-level rule on five
    # voters has a two-member winning coalition
    control = GRD((0, 1, (2, 3, 4)))
    search = min_winning_coalitions(control)
    yield _check(
        "control_min_size",
        search.min_size == 2 and (0, 1) in search.witnesses,
        f"min={search.min_size} witnesses={[list(w) for w in search.witnesses]}",
    )
    yield _check(
        "control_not_equitable",
        is_equitable(control) is False,
        "exhaustive full group",
    )
    rejected = False
    try:
        check_sqrt_lower_bound(control)
    except ValueError:
        rejected = True
    yield _check("control_rejected", rejected, "bound refuses non-equitable input")
    yield _check(
        "control_below_sqrt",
        2 * 2 < 5,
        "size 2 squared is below n=5, so the hypothesis carries the load",
    )
    return {"catalog_size": len(catalog)}


def _thm3(depths: Sequence[int] = (1, 2, 3)) -> Checks:
    """Uniform ternary trees: minimal coalitions double with each level."""
    # every tree is built, or refused as too large, before any depth is checked
    rules = [uniform_grd((3,) * depth) for depth in depths]
    for depth, rule in zip(depths, rules):
        n = 3**depth
        expected = 2**depth
        structural = grd_min_coalition_structural(rule.tree)
        yield _check(
            f"structural_d{depth}",
            structural == expected,
            f"n={n} structural={structural} expected={expected}",
        )
        recursion = grd_recursion_bound(n)
        yield _check(
            f"recursion_d{depth}",
            recursion == expected,
            f"divisor recursion gives {recursion}",
        )
        yield _check(
            f"equitable_d{depth}",
            is_equitable(rule) is True,
            "level rotations are transitive",
        )
        if n <= PROFILE_SCAN_CAP:
            search = min_winning_coalitions(rule)
            witness_formula = _ternary_witness_count(depth)
            yield _check(
                f"search_d{depth}",
                search.exact and search.min_size == expected,
                f"search min={search.min_size}",
            )
            yield _check(
                f"witness_count_d{depth}",
                len(search.witnesses) == witness_formula
                and search.witnesses_complete,
                f"found={len(search.witnesses)} formula={witness_formula}",
            )
        else:
            witness = _ternary_witness(depth)
            yield _check(
                f"witness_wins_d{depth}",
                len(witness) == expected
                and is_winning_coalition(rule, witness, method="monotone"),
                f"witness={sorted(witness)}",
            )
            refuted = all(
                not is_winning_coalition(rule, witness - {v}, method="monotone")
                for v in witness
            )
            yield _check(
                f"no_smaller_spot_d{depth}",
                refuted,
                "every drop-one subset already fails on extremal profiles",
            )
    return {"depths": list(depths)}


def _ternary_witness(depth: int) -> set[int]:
    """Two cheapest children of each chosen node, recursively."""
    if depth == 0:
        return {0}
    prev = _ternary_witness(depth - 1)
    size = 3 ** (depth - 1)
    return prev | {size + v for v in prev}


def _ternary_witness_count(depth: int) -> int:
    count = 1  # the one-voter tree's only minimal coalition
    for _ in range(depth):
        count = 3 * count * count
    return count


def _thm7() -> Checks:
    """The seven-point plane rule: minimal coalitions are exactly the lines."""
    rule = build_projective_rule(2)
    search = min_winning_coalitions(rule)
    yield _check(
        "min_size",
        search.exact and search.min_size == 3,
        f"min={search.min_size} ceil(sqrt(7))=3",
    )
    yield _check(
        "witnesses_are_lines",
        search.witnesses == rule.family and len(rule.family) == 7,
        f"witnesses={len(search.witnesses)} lines={len(rule.family)}",
    )
    full = automorphism_group(rule, method="exhaustive")
    stab = automorphism_group(rule, method="coalition_preserving")
    yield _check("aut_order", full.order == 168, f"exhaustive order={full.order}")
    yield _check(
        "stabilizer_matches",
        # a subgroup of the same order is the whole group
        stab.order == full.order == 168
        and all(g.images in full for g in stab.generators),
        f"stabilizer order={stab.order}",
    )
    matrix_group = pgl3_elements(2)
    yield _check(
        "matrix_group_matches",
        matrix_group.order == full.order
        and all(g.images in full for g in matrix_group.generators),
        "induced matrix action equals the exhaustive group",
    )
    yield _check(
        "two_transitive",
        is_k_transitive(full, 2) and is_k_equitable(rule, 2) is True,
        "tuple orbit covers all ordered pairs",
    )
    yield _check(
        "not_three_equitable",
        is_k_equitable(rule, 3) is False,
        "order 168 < 210 ordered triples",
    )
    return {"p": 2}


def _thm8(primes: Sequence[int] = (3, 5, 7), seed: int = 0) -> Checks:
    """Seeded pipeline output is 3-equitable with small coalitions."""
    for p in primes:
        built = build_3_equitable_rule(p, seed=seed)
        label = f"p{p}"
        yield _check(
            f"set_within_2ell_{label}",
            len(built.points) <= 2 * built.ell,
            f"|S|={len(built.points)} ell={built.ell}",
        )
        group = group_from_descriptor({"kind": "pgl2", "p": p})
        yield _check(
            f"recertified_{label}",
            verify_intersecting_set(group, built.points),
            "independent translate-overlap pass",
        )
        yield _check(
            f"group_order_{label}",
            built.group_order == pgl2_order(p) == (p + 1) * p * (p - 1),
            f"order={built.group_order}",
        )
        yield _check(
            f"three_transitive_{label}",
            is_k_transitive(group, 3),
            "tuple orbit covers all ordered triples",
        )
        yield _check(
            f"three_equitable_{label}",
            is_k_equitable(built.rule, 3) is True,
            "via the certified construction group",
        )
        max_member = max(len(m) for m in built.rule.family)
        yield _check(
            f"coalition_bound_{label}",
            max_member <= built.coalition_size_bound
            and len(built.points) <= built.set_size_bound,
            f"max member={max_member} bound={built.coalition_size_bound:.3f}",
        )
        rebuilt = build_3_equitable_rule(p, seed=seed)
        yield _check(
            f"deterministic_{label}",
            rebuilt.rule == built.rule and rebuilt.points == built.points,
            "same seed reproduces the same rule document",
        )
    return {"primes": list(primes), "seed": seed}


def coalition_catalog() -> list[CoalitionRule]:
    chair = make_coalition_rule(4, [(0,)])
    return [CCC(2, 2), CCC(2, 3), CCC(3, 3), build_projective_rule(2), chair]


def _lemma1() -> Checks:
    """Intersecting families induce well-behaved consensus rules."""
    catalog = coalition_catalog()
    for rule in catalog:
        label = rule.label
        family = rule.family
        yield _check(
            f"pairwise_intersecting_{label}",
            all(not set(a).isdisjoint(b) for a in family for b in family),
            f"{len(family)} members",
        )
        yield _check(
            f"members_winning_{label}",
            all(
                is_winning_coalition(rule, member, method="exhaustive")
                for member in family
            ),
            "every family member forces both outcomes",
        )
        yield _check(f"neutral_{label}", is_neutral(rule), "full profile scan")
        yield _check(
            f"positively_responsive_{label}",
            is_positively_responsive(rule),
            "full profile scan",
        )
    rejected = False
    try:
        make_coalition_rule(4, [(0,), (1,)])
    except ValueError:
        rejected = True
    yield _check(
        "disjoint_family_rejected", rejected, "disjoint members fail construction"
    )
    return {"catalog_size": len(catalog)}


def _lemma3(ns: Sequence[int] = (3, 4, 5, 6)) -> Checks:
    """Majority rule admits no winning coalition below half the voters."""
    for n in ns:
        search = min_winning_coalitions(Majority(n))
        if not search.exact:
            what = f"the coalition search of Majority({n})"
            raise InfeasibleError(f"{what} needs over {COALITION_BUDGET} subsets")
        expected = n // 2 + 1
        yield _check(
            f"min_size_n{n}",
            search.exact and search.min_size == expected,
            f"min={search.min_size} floor(n/2)+1={expected}",
        )
        yield _check(
            f"above_half_n{n}",
            search.min_size is not None and 2 * search.min_size > n,
            f"2*{search.min_size} > {n}",
        )
    return {"ns": list(ns)}


def roles_catalog() -> list[VotingRule]:
    return [
        Majority(4),
        Dictatorship(4),
        make_coalition_rule(4, [(0,)]),
        LongestRun(4),
    ]


def _prop1A() -> Checks:
    """Tally-only rules are exactly those blind to every seating change."""
    for rule in roles_catalog():
        sym = is_symmetric(rule)
        single = len(assignment_classes(rule)) == 1
        yield _check(
            rule.label,
            sym == single,
            f"symmetric={sym} assignment_classes_single={single}",
        )
    return {"n": 4}


def _prop1B() -> Checks:
    """Equity is exactly indistinguishability of every pair of roles."""
    for rule in roles_catalog():
        label = rule.label
        n = rule.n
        eq = is_equitable(rule)
        all_roles = all(
            roles_equivalent(rule, r1, r2)
            for r1 in range(n)
            for r2 in range(r1 + 1, n)
        )
        yield _check(
            f"roles_{label}",
            eq is not None and eq == all_roles,
            f"equitable={eq} all_roles_equivalent={all_roles}",
        )
        id_menu = identity_class_realizes_all(rule)
        any_menu = has_uniform_assignment_menu(rule)
        yield _check(
            f"menu_{label}",
            id_menu == eq and any_menu == eq,
            f"identity_class_full_menu={id_menu} any_class={any_menu}",
        )
    return {"n": 4}


def _prop3() -> Checks:
    """Prime voter counts force a full rotation among the symmetries."""
    cyclic_rules: list[VotingRule] = [
        LongestRun(7),
        build_projective_rule(2),
        Majority(3),
        Majority(5),
        Majority(7),
    ]
    for rule in cyclic_rules:
        yield _check(
            f"cyclic_{rule.label}",
            is_cyclic_rule(rule) is True,
            "n-cycle automorphism found",
        )
    dictatorship = Dictatorship(5)
    yield _check(
        f"not_cyclic_{dictatorship.label}",
        is_cyclic_rule(dictatorship) is False,
        "full group fixes the dictator",
    )
    return {"rules": len(cyclic_rules) + 1}


def _prop4(
    configs: Iterable[tuple[dict, int]] = (
        ({"kind": "cyclic", "n": 16}, 0),
        ({"kind": "cyclic", "n": 100}, 7),
    ),
) -> Checks:
    """Seeded draws meet every group translate within the stated size."""
    walked = []
    for desc, seed in configs:
        walked.append([desc, seed])
        group = group_from_descriptor(desc)
        label = f"{desc['kind']}{group.n}_seed{seed}"
        found = intersecting_set(group, seed=seed)
        yield _check(
            f"certified_{label}",
            found.certified and verify_intersecting_set(group, found.points),
            f"attempts={found.attempts}",
        )
        yield _check(
            f"size_{label}",
            len(found.points) <= 2 * found.ell,
            f"|S|={len(found.points)} 2*ell={2 * found.ell}",
        )
    small = generate_closure(2, [Permutation.rotation(2)])
    rejected = False
    try:
        intersecting_set(small, seed=0)
    except ValueError:
        rejected = True
    yield _check("small_group_rejected", rejected, "order must exceed 2")
    return {"configs": walked}


# in the order `verify all` runs and prints them
_VERIFIERS: dict[str, Callable[..., Checks]] = {
    "thm1": _thm1,
    "thm2": _thm2,
    "thm3": _thm3,
    "lemma1": _lemma1,
    "lemma3": _lemma3,
    "prop1A": _prop1A,
    "prop1B": _prop1B,
    "prop3": _prop3,
    "prop4": _prop4,
    "thm7": _thm7,
    "thm8": _thm8,
}

CLAIM_IDS = tuple(_VERIFIERS)


def claim_parameters(claim: str) -> frozenset[str]:
    """The names of the parameters a claim's verifier takes."""
    if claim not in _VERIFIERS:
        raise ValueError(f"unknown claim {claim!r}")
    code = _VERIFIERS[claim].__code__  # verifiers take no *args or **kwargs
    return frozenset(code.co_varnames[: code.co_argcount + code.co_kwonlyargcount])


def verify_claim(claim: str, **params) -> VerificationReport:
    """Run one verifier, optionally overriding its default parameter grid."""
    unknown = set(params) - claim_parameters(claim)
    if unknown:
        raise ValueError(
            f"claim {claim!r} does not accept parameters {sorted(unknown)}"
        )
    start = time.monotonic()
    run = _VERIFIERS[claim](**params)
    checks: list[CheckResult] = []
    try:
        while True:
            checks.append(next(run))
    except StopIteration as done:
        used = done.value  # the generator's return value
    return VerificationReport(
        claim=claim,
        passed=bool(checks) and all(c.passed for c in checks),
        checks=tuple(checks),
        params=used,
        wall_time=time.monotonic() - start,
    )
