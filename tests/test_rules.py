import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from profile_oracle import all_profiles, apply_to_profile, profile_code, votes_from_code

from equivote import rules
from equivote.perms import Permutation
from equivote.profiles import VoteProfile
from equivote.rules import (
    CCC,
    CCC_MAX_ENTRIES,
    CoalitionRule,
    Dictatorship,
    GRD,
    InfeasibleError,
    LongestRun,
    Majority,
    canonical_family,
    ccc_family,
    eval_coalition,
    eval_grd,
    eval_longest_run,
    eval_majority,
    evaluate,
    is_neutral,
    is_positively_responsive,
    is_symmetric,
    make_coalition_rule,
    outcome,
    sign,
    tree_leaves,
    uniform_branching,
    uniform_grd,
    uniform_tree,
)
from equivote.geometry import build_projective_rule
from equivote.serialize import canonical_json, rule_from_dict
from equivote.tables import outcome_table, relabel_table, respects_table, voter_outcomes

PAIR_ORACLE_CAP = 5  # all-pairs oracle (9^n pairs) refused above this degree


def is_monotone(rule):
    """Weak coordinatewise monotonicity of the outcome, by table scan."""
    n = rule.n
    table = outcome_table(rule)
    return all(
        np.all(np.diff(voter_outcomes(table, n, v), axis=0) >= 0) for v in range(n)
    )


def is_positively_responsive_by_pairs(rule):
    """Oracle over all comparable profile pairs; kept separate from the
    single-step scan so the two can cross-check each other."""
    n = rule.n
    if n > PAIR_ORACLE_CAP:
        raise InfeasibleError(f"pair oracle limited to n<={PAIR_ORACLE_CAP}")
    profiles = [votes_from_code(c, n) for c in range(3**n)]
    results = [outcome(rule, p) for p in profiles]
    for i, a in enumerate(profiles):
        for j, b in enumerate(profiles):
            if i == j:
                continue
            if all(x >= y for x, y in zip(a, b)):
                if results[j] >= 0 and results[i] != 1:
                    return False
                if results[i] <= 0 and results[j] != -1:
                    return False
    return True


def test_sign():
    assert sign(5) == 1
    assert sign(-2) == -1
    assert sign(0) == 0


def test_majority_basics():
    assert eval_majority((1, 1, -1)) == 1
    assert eval_majority((1, -1)) == 0
    assert eval_majority((0, 0, -1)) == -1


def test_longest_run_frozen():
    assert eval_longest_run((1, 1, 1, -1, -1)) == 1
    assert eval_longest_run((1, 1, -1, -1, 0, 0)) == 0  # length-2 runs tie
    assert eval_longest_run((1, 0, 0, 1)) == 1  # run wraps around the cycle
    assert eval_longest_run((0, 0, 0)) == 0
    assert eval_longest_run((-1, -1, -1, -1)) == -1
    assert eval_longest_run((0, 1, 0, -1, -1)) == -1


def test_longest_run_equals_majority_only_at_low_degree():
    for n in (3, 4):
        assert all(
            eval_longest_run(p.votes) == eval_majority(p.votes)
            for p in all_profiles(n)
        )
    # first divergence: the lone +1 run of length 1 beats two majority zeros
    phi = (1, 0, 1, -1, -1)
    assert eval_longest_run(phi) == -1
    assert eval_majority(phi) == 0


def test_longest_run_monotonicity_breaks_at_ten():
    # raising voter 5 from -1 to 0 merges nothing but shrinks the -1 runs,
    # handing the decision to a -1 block: outcome drops from 0 to -1
    lo = (1, 0, 1, 0, 1, -1, -1, 1, -1, -1)
    hi = (1, 0, 1, 0, 1, 0, -1, 1, -1, -1)
    assert eval_longest_run(lo) == 0
    assert eval_longest_run(hi) == -1
    assert all(a <= b for a, b in zip(lo, hi))
    assert is_monotone(LongestRun(9))
    assert not is_monotone(LongestRun(10))


def test_positive_responsiveness_range():
    for n in (4, 7, 9):
        assert is_positively_responsive(LongestRun(n))
    assert not is_positively_responsive(LongestRun(10))
    assert is_positively_responsive(Majority(6))
    assert not is_positively_responsive(Dictatorship(3))


def test_responsiveness_dual_route_agrees():
    rules = [
        Majority(3),
        Majority(4),
        LongestRun(4),
        LongestRun(5),
        Dictatorship(3),
        Dictatorship(4, dictator=2),
        CCC(2, 2),
        uniform_grd((5,)),
        make_coalition_rule(4, [frozenset({0})]),
    ]
    for rule in rules:
        fast = is_positively_responsive(rule)
        slow = is_positively_responsive_by_pairs(rule)
        assert fast == slow, rule


def test_neutral_catalog():
    for rule in (
        Majority(5),
        LongestRun(6),
        Dictatorship(4, dictator=1),
        uniform_grd((3, 3)),
        CCC(2, 3),
        make_coalition_rule(4, [frozenset({0})]),
    ):
        assert is_neutral(rule)


def test_symmetry():
    assert is_symmetric(Majority(5))
    assert is_symmetric(LongestRun(4))  # coincides with majority here
    assert not is_symmetric(LongestRun(5))
    assert not is_symmetric(Dictatorship(3))
    # A 2x2 cross covers 3 of 4 voters, so consensus always agrees with
    # the majority and the rule is a pure tally rule.
    assert is_symmetric(CCC(2, 2))
    assert not is_symmetric(CCC(3, 4))
    assert not is_symmetric(build_projective_rule(2))


def test_dictatorship():
    rule = Dictatorship(4, dictator=2)
    assert outcome(rule, (1, 1, -1, 1)) == -1
    with pytest.raises(ValueError):
        Dictatorship(3, dictator=3)


def test_grd_eval():
    tree = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    fig = (1, 1, 1, 1, 1, -1, -1, -1, -1)
    assert eval_grd(tree, fig) == 1
    assert eval_grd(tree, (1, 1, -1, 1, 1, -1, -1, -1, -1)) == 1
    lopsided = GRD((0, 1, (2, 3, 4)))
    assert outcome(lopsided, (1, 1, -1, -1, -1)) == 1
    assert outcome(lopsided, (-1, 1, 1, 1, -1)) == 1
    assert outcome(lopsided, (-1, 1, 1, -1, -1)) == -1


def test_grd_tree_validation():
    with pytest.raises(ValueError):
        GRD((0, 2))
    with pytest.raises(ValueError):
        GRD((0, 0, 1))
    with pytest.raises(ValueError):
        tree_leaves((0, (), 1))


def test_uniform_tree_shape():
    assert uniform_tree((2, 2)) == ((0, 1), (2, 3))
    assert uniform_tree((3,)) == (0, 1, 2)
    assert tree_leaves(uniform_tree((3, 3))) == list(range(9))
    assert uniform_branching(uniform_tree((3, 3))) == (3, 3)
    assert uniform_branching(uniform_tree((2, 4, 3))) == (2, 4, 3)
    assert uniform_branching(0) == ()
    assert uniform_branching((0, 1, (2, 3, 4))) is None
    assert uniform_branching(((0, 1), (2, 3, 4))) is None
    assert uniform_grd((3, 3)).n == 9


def _uniform_tree_by_recursion(branching):
    """uniform_tree as first written: a recursive build with a leaf cursor."""

    def build(level, start):
        if level == len(branching):
            return start, start + 1
        children = []
        cursor = start
        for _ in range(branching[level]):
            child, cursor = build(level + 1, cursor)
            children.append(child)
        return tuple(children), cursor

    return build(0, 0)[0]


def _odometer_by_carry(branching):
    """The odometer as first written: decode each leaf's digits, add one to
    the top-level digit and carry."""
    images = []
    for leaf in range(math.prod(branching)):
        digits = []
        rest = leaf
        for b in reversed(branching):
            digits.append(rest % b)
            rest //= b
        digits.reverse()  # digits[0] is the top-level block
        for level in range(len(digits)):
            digits[level] += 1
            if digits[level] < branching[level]:
                break
            digits[level] = 0
        img = 0
        for level, b in enumerate(branching):
            img = img * b + digits[level]
        images.append(img)
    return tuple(images)


@pytest.mark.parametrize("depth", range(6))
def test_uniform_tree_and_odometer_match_their_first_forms(depth):
    # every branching of arity 1..5 at this depth with at most 3,000 leaves
    for branching in itertools.product(range(1, 6), repeat=depth):
        if math.prod(branching) > 3000:
            continue
        assert uniform_tree(branching) == _uniform_tree_by_recursion(branching)
        odometer = rules._odometer(branching).images
        assert odometer == _odometer_by_carry(branching)


def test_ccc_family_frozen():
    fam = ccc_family(2, 2)
    assert fam == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    fam33 = ccc_family(3, 3)
    assert len(fam33) == 9
    assert all(len(m) == 5 for m in fam33)


def _set_union_family(rows, cols):
    """Every row-union-column set, built one set per cell: the reference
    for `ccc_family`'s members and their order."""
    members = []
    for i in range(rows):
        for j in range(cols):
            row = {i * cols + c for c in range(cols)}
            col = {r * cols + j for r in range(rows)}
            members.append(frozenset(row | col))
    ordered = sorted(set(members), key=lambda s: (len(s), sorted(s)))
    return tuple(tuple(sorted(s)) for s in ordered)


def test_ccc_family_matches_the_set_union_construction():
    for rows, cols in itertools.product(range(1, 13), repeat=2):
        assert ccc_family(rows, cols) == _set_union_family(rows, cols)


def test_ccc_family_shares_one_int_per_voter():
    # voters above 256 are not interned, so each is built once, not once
    # per member that holds it
    assert len({id(v) for member in ccc_family(20, 20) for v in member}) == 400


def test_ccc_family_keeps_only_the_last_family():
    CCC(20, 20)
    CCC(21, 21)
    assert ccc_family.cache_info().currsize == 1


@pytest.mark.parametrize(
    "n, family, grid, message",
    [
        (6, ccc_family(2, 3)[:-1], (2, 3), "2 x 3 grid"),  # another family
        (13, ccc_family(3, 4), (3, 4), "3 x 4 grid"),  # one voter too many
        (0, (), (0, 5), "nonempty"),  # an empty grid has no family
    ],
)
def test_grid_rule_holds_exactly_its_grids_family(n, family, grid, message):
    with pytest.raises(ValueError, match=message):
        CoalitionRule(n, family, grid=grid)


def test_label_names_a_plane_only_by_an_int():
    # provenance is an untrusted hint: a malformed one names no plane
    for p in ({}, {"p": [1]}, {"p": "2"}, {"p": True}):
        provenance = {"kind": "projective_plane", **p}
        rule = make_coalition_rule(3, [[0, 1], [1, 2], [0, 2]], provenance=provenance)
        assert rule.label == "coalition3"
    assert build_projective_rule(2).label == "projective_p2"


def test_ccc_matches_its_family():
    assert CCC(2, 3) == make_coalition_rule(6, ccc_family(2, 3))
    with pytest.raises(ValueError, match="grid dimensions must be positive"):
        CCC(0, 3)
    # a thin grid lists n voters in each of its n members: refused before
    # the family is built, while CCC(100, 100) stays within the limit
    with pytest.raises(ValueError, match="1 x 10000 grid"):
        CCC(1, 10_000)
    assert 100 * 100 * 199 <= CCC_MAX_ENTRIES
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        rule = CCC(rows, cols)
        fam = ccc_family(rows, cols)
        for phi in all_profiles(rows * cols):
            assert outcome(rule, phi.votes) == eval_coalition(fam, phi.votes)


def test_coalition_rule_consensus():
    chair = make_coalition_rule(4, [frozenset({0})])
    assert outcome(chair, (1, -1, -1, -1)) == 1
    assert outcome(chair, (-1, 1, 1, 1)) == -1
    assert outcome(chair, (0, 1, 1, -1)) == 1  # no consensus, majority decides


def test_coalition_rule_validation():
    with pytest.raises(ValueError):
        make_coalition_rule(4, [frozenset({0}), frozenset({1})])
    with pytest.raises(ValueError):
        make_coalition_rule(4, [])
    with pytest.raises(ValueError):
        make_coalition_rule(4, [frozenset()])
    with pytest.raises(ValueError):
        make_coalition_rule(4, [frozenset({0, 4})])
    # a grid rule holds exactly its own row-union-column family
    with pytest.raises(ValueError):
        CoalitionRule(4, (frozenset({0}), frozenset({1})), grid=(2, 2))
    # members that share a voter only in part are still compared pairwise
    with pytest.raises(ValueError, match="disjoint"):
        make_coalition_rule(5, [{0, 1}, {0, 2}, {1, 2}, {3, 4}])


def test_star_family_skips_the_pairwise_check():
    # 40,000 members that all hold voter 0: about 800 million pairs, which
    # the pairwise check would take minutes over
    pairs = itertools.combinations(range(1, 400), 2)
    family = [{0, i, j} for i, j in itertools.islice(pairs, 40_000)]
    assert len(make_coalition_rule(400, family).family) == 40_000


def _pairwise_verdict(n, family):
    """The message of the first disjoint pair in `itertools.combinations`
    order, or None: the quadratic reference for the bitmask check."""
    for a, b in itertools.combinations(family, 2):
        if set(a).isdisjoint(b):
            return f"family members {sorted(a)} and {sorted(b)} are disjoint"
    return None


@st.composite
def families(draw):
    """Intersecting families (a random one, a star, or the non-star
    {0,1,x}, {0,2,x}, {1,2,x}), in a random order, with one member
    disjoint from a drawn member put at a random position or not."""
    n = draw(st.integers(4, 12))
    kind = draw(st.sampled_from(["intersecting", "star", "non-star"]))
    member = st.frozensets(st.integers(0, n - 1), min_size=1)
    if kind == "intersecting":
        family = [draw(member)]
        for candidate in draw(st.lists(member, max_size=12)):
            if all(candidate & m for m in family):
                family.append(candidate)
    elif kind == "star":
        centre = draw(st.integers(0, n - 1))
        family = [m | {centre} for m in draw(st.lists(member, min_size=1, max_size=12))]
    else:
        pairs = st.sampled_from([(0, 1), (0, 2), (1, 2)])
        family = [frozenset({*draw(pairs), x}) for x in draw(st.lists(st.integers(3, n - 1)))]
        family += [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    family = draw(st.permutations(family))
    outside = set(range(n)) - draw(st.sampled_from(family))
    if outside and draw(st.booleans()):
        loner = draw(st.frozensets(st.sampled_from(sorted(outside)), min_size=1))
        family.insert(draw(st.integers(0, len(family))), loner)
    return n, tuple(family)


@settings(max_examples=300, deadline=None)
@given(families(), st.sampled_from([1, 2, 3, 5, rules.FAMILY_WINDOW]))
def test_bitmask_intersection_check_matches_the_pairwise_check(case, window):
    n, drawn = case
    family = canonical_family(drawn)  # the loner's place now follows its voters
    got = None
    with mock.patch.object(rules, "FAMILY_WINDOW", window):
        try:
            CoalitionRule(n, family)
        except ValueError as err:
            got = str(err)
    assert got == _pairwise_verdict(n, family)


def test_coalition_rule_canonicalizes():
    rule = make_coalition_rule(3, [[1, 0], [0, 1], [0, 2]])
    assert rule.family == ((0, 1), (0, 2))


def _frozenset_family(family):
    """The distinct members as frozensets in document order, as families
    were held before tuples: the reference for `canonical_family`."""
    return tuple(sorted({frozenset(m) for m in family}, key=lambda s: (len(s), sorted(s))))


@st.composite
def listed_families(draw):
    """(n, members) as a document may list them: a grid of up to 6 x 6 with
    each row-plus-column cell listed twice, as `ccc_family` builds it, or
    pairwise-intersecting members of unsorted voters, some repeated; either
    with members listed again and in a random order."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        n = rows * cols
        family = [
            [*range(i * cols, (i + 1) * cols), *range(j, n, cols)]
            for i in range(rows)
            for j in range(cols)
        ]
    else:
        n = draw(st.integers(1, 8))
        family = []
        for member in draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1), min_size=1)):
            if all(set(member) & set(other) for other in family):
                family.append(member)
    family += draw(st.lists(st.sampled_from(family), max_size=3))
    return n, draw(st.permutations(family))


@settings(max_examples=200, deadline=None)
@given(listed_families())
def test_tuple_family_matches_the_frozenset_family(case):
    n, listed = case
    want = _frozenset_family(listed)
    got = canonical_family(listed)
    assert len(got) == len(want)
    for member, reference in zip(got, want):
        assert type(member) is tuple and member == tuple(sorted(reference))
    rule = rule_from_dict({"format": 1, "type": "coalition", "n": n, "family": listed})
    assert rule.family == got
    doc = canonical_json(rule.to_doc())
    assert doc == canonical_json(
        {"type": "coalition", "n": n, "family": [sorted(m) for m in want]}
    )
    assert canonical_json(rule_from_dict({"format": 1, **rule.to_doc()}).to_doc()) == doc


@pytest.mark.parametrize(
    "family",
    [
        ((1, 0),),  # voters out of order
        ((0, 0, 1),),  # a repeated voter
        ((0, 1), (0, 1)),  # a repeated member
        ((0, 1, 2), (0, 1)),  # a larger member first
        ((0, 2), (0, 1)),  # members of one size out of order
        ([0, 1],),  # a list, not a tuple
    ],
)
def test_a_directly_built_family_must_be_canonical(family):
    with pytest.raises(ValueError, match="not in canonical form"):
        CoalitionRule(3, family)
    assert make_coalition_rule(3, family).family == canonical_family(family)


def test_evaluate_checks_degree():
    with pytest.raises(ValueError):
        evaluate(Majority(3), VoteProfile((1, -1)))
    assert evaluate(Majority(3), VoteProfile((1, 1, -1))) == 1


def test_outcome_rejects_unknown_rule():
    with pytest.raises(AttributeError):
        outcome(object(), (1, -1))


def test_monotone_certificates():
    assert Majority(5).monotone
    assert Dictatorship(5).monotone
    assert uniform_grd((3, 3)).monotone
    assert CCC(3, 3).monotone
    assert make_coalition_rule(4, [frozenset({0})]).monotone
    assert not LongestRun(9).monotone


def test_scan_cap_enforced():
    with pytest.raises(InfeasibleError):
        is_neutral(LongestRun(13))
    with pytest.raises(InfeasibleError):
        is_symmetric(Majority(13))
    with pytest.raises(InfeasibleError):
        is_positively_responsive_by_pairs(Majority(6))


def test_rule_degree():
    assert CCC(2, 3).n == 6
    assert GRD((0, 1, (2, 3, 4))).n == 5


RULE_POOL = [
    Majority(4),
    LongestRun(5),
    Dictatorship(4, dictator=1),
    uniform_grd((2, 2)),
    CCC(2, 2),
    make_coalition_rule(5, [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]),
]


def _axioms_by_brute_force(rule):
    """(symmetric, monotone, positively responsive) over every profile and
    every comparable pair of profiles, from the scalar outcome alone."""
    results = [(phi.votes, outcome(rule, phi.votes)) for phi in all_profiles(rule.n)]
    tallies = {}
    for votes, result in results:
        tallies.setdefault((votes.count(1), votes.count(-1)), set()).add(result)
    symmetric = all(len(seen) == 1 for seen in tallies.values())
    monotone = responsive = True
    for high, f_high in results:
        for low, f_low in results:
            if high == low or not all(a >= b for a, b in zip(high, low)):
                continue
            monotone &= f_high >= f_low
            responsive &= f_low < 0 or f_high == 1
            responsive &= f_high > 0 or f_low == -1
    return symmetric, monotone, responsive


def test_axiom_scans_match_brute_force():
    rules = RULE_POOL + [
        Majority(5),
        LongestRun(4),
        Dictatorship(3),
        GRD(((0, 1, 2), 3, 4)),
        CCC(2, 3),
        make_coalition_rule(3, [frozenset({0})]),
        make_coalition_rule(5, [frozenset({0, 1}), frozenset({1, 2, 3})]),
    ]
    seen = set()
    for rule in rules:
        got = (is_symmetric(rule), is_monotone(rule), is_positively_responsive(rule))
        assert got == _axioms_by_brute_force(rule), rule
        seen.add(got)
    # both verdicts of the symmetry and responsiveness scans; every family is
    # monotone at these degrees (LongestRun first fails at n = 10, above)
    assert {s[0] for s in seen} == {s[2] for s in seen} == {True, False}


def test_table_matches_direct_evaluation():
    for rule in RULE_POOL:
        table = outcome_table(rule)
        n = rule.n
        assert len(table) == 3**n
        for code in range(3**n):
            assert table[code] == outcome(rule, votes_from_code(code, n))


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=3**5 - 1),
    st.permutations(list(range(5))),
)
def test_code_map_matches_profile_action(code, images):
    perm = Permutation(tuple(images))
    phi = VoteProfile(votes_from_code(code, 5))
    # the codes themselves as a table, so each entry names its profile
    table = np.arange(3**5)
    relabelled = relabel_table(table, 5, perm)
    assert relabelled[code] == table[profile_code(apply_to_profile(perm, phi))]


def test_declared_automorphisms_respect_tables():
    lr = LongestRun(7)
    assert respects_table(outcome_table(lr), 7, Permutation.rotation(7))
    grd = uniform_grd((3, 3))
    block_swap = Permutation((3, 4, 5, 0, 1, 2, 6, 7, 8))
    assert respects_table(outcome_table(grd), 9, block_swap)
    within_block = Permutation((1, 0, 2, 3, 4, 5, 6, 7, 8))
    assert respects_table(outcome_table(grd), 9, within_block)
    # moving a single voter across counties is not outcome-preserving
    across = Permutation((3, 1, 2, 0, 4, 5, 6, 7, 8))
    assert not respects_table(outcome_table(grd), 9, across)
