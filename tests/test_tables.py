import itertools
import math
from collections import OrderedDict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from closure_oracle import iter_permutations, listing
from hypothesis import example, given, settings
from hypothesis import strategies as st
from profile_oracle import all_profiles, apply_to_profile, profile_code, votes_from_code

from equivote import analysis, tables
from equivote.analysis import (
    COALITION_BUDGET,
    is_winning_coalition,
    min_winning_coalitions,
    pivotality,
)
from equivote.geometry import build_projective_rule
from equivote.perms import Permutation
from equivote.profiles import VoteProfile
from equivote.rules import (
    CCC,
    GRD,
    CoalitionRule,
    PROFILE_SCAN_CAP,
    Dictatorship,
    LongestRun,
    Majority,
    is_symmetric,
    make_coalition_rule,
    outcome,
    uniform_grd,
)
from equivote.randomized import build_rule_from_group, group_from_descriptor
from equivote.tables import (
    automorphism_filter,
    outcome_table,
    relabel_table,
    respects_table,
    slab,
    voter_outcomes,
)
from equivote.verify import equitable_catalog, proof_coalition
from rule_strategies import coalition_rules, dictatorships, grd_rules

VOTE = st.sampled_from((-1, 0, 1))


RULES = st.one_of(
    st.integers(1, 16).map(Majority),
    st.integers(1, 16).map(LongestRun),
    dictatorships(),
    grd_rules(),
    st.builds(CCC, st.integers(1, 4), st.integers(1, 4)),
    coalition_rules(),
)

# degrees small enough for brute force over every profile
SMALL_RULES = st.one_of(
    st.integers(1, 5).map(Majority),
    st.integers(1, 5).map(LongestRun),
    dictatorships(max_n=5),
    grd_rules(max_n=5),
    st.builds(CCC, st.integers(1, 2), st.integers(1, 2)),
    coalition_rules(max_n=5),
)


@st.composite
def profile_rows(draw, n):
    """Random rows, all-equal rows, and periodic rows; a periodic row that is
    not constant has several equally long longest blocks."""
    kind = draw(st.sampled_from(("random", "uniform", "periodic")))
    if kind == "random":
        return draw(st.lists(VOTE, min_size=n, max_size=n))
    if kind == "uniform":
        return [draw(VOTE)] * n
    period = draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0]))
    return draw(st.lists(VOTE, min_size=period, max_size=period)) * (n // period)


def _ballots(rows):
    """The voter-major int8 block of the profiles listed one per row."""
    return np.array(rows, dtype=np.int8).T.copy()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_matches_outcome(data):
    rule = data.draw(RULES)
    rows = data.draw(st.lists(profile_rows(rule.n), min_size=1, max_size=24))
    got = rule.batch(_ballots(rows))
    assert got.dtype == np.int8
    assert got.tolist() == [outcome(rule, tuple(row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_longest_run_kernel_across_its_run_length_dtypes(data):
    # run lengths reach n, and 2n on a row with no block end: the kernel
    # counts in int8 while 2n <= 127 and in int32 above
    rule = LongestRun(data.draw(st.sampled_from((1, 2, 3, 63, 64, 65, 130))))
    # one voter against a block of n - 1 that wraps round the ring
    x = data.draw(st.sampled_from((-1, 1)))
    against = [x] * rule.n
    against[rule.n // 2] = -x
    rows = [against, *data.draw(st.lists(profile_rows(rule.n), max_size=8))]
    got = rule.batch(_ballots(rows))
    assert got.tolist() == [outcome(rule, tuple(row)) for row in rows]


def _rules_of_degree(n):
    """A rule of every family with exactly n voters."""
    grids = [(r, n // r) for r in range(1, n + 1) if n % r == 0]
    return st.one_of(
        st.just(Majority(n)),
        st.just(LongestRun(n)),
        dictatorships(min_n=n, max_n=n),
        grd_rules(min_n=n, max_n=n),
        st.sampled_from(grids).map(lambda grid: CCC(*grid)),
        coalition_rules(min_n=n, max_n=n),
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_matches_outcome_on_sampled_profiles(data):
    n = data.draw(st.integers(10, 12))
    rule = data.draw(_rules_of_degree(n))
    # block edges of the 3^9-profile blocks, and codes anywhere
    edges = st.sampled_from([0, 3**9 - 1, 3**9, 2 * 3**9, 3**n - 1])
    code = st.one_of(edges, st.integers(0, 3**n - 1))
    codes = data.draw(st.lists(code, min_size=1, max_size=16))
    table = outcome_table(rule)
    assert [table[c] for c in codes] == [
        outcome(rule, votes_from_code(c, n)) for c in codes
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(_rules_of_degree), st.sampled_from((1, 2, 3, 10)))
def test_table_matches_outcome_when_blocks_hold_few_voters(rule, batch_rows):
    # blocks of 1, 3 and 9 profiles: voters past the first 0, 1 or 2 are
    # set once per block
    with mock.patch.object(tables, "BATCH_ROWS", batch_rows), mock.patch.object(
        tables, "_TABLES", OrderedDict()
    ):
        table = outcome_table(rule)
    assert table.tolist() == [outcome(rule, phi.votes) for phi in all_profiles(rule.n)]


@pytest.mark.parametrize("batch_rows", [1, 3, 10, tables.BATCH_ROWS])
@pytest.mark.parametrize("f", range(5))
def test_profile_blocks_run_in_code_order(f, batch_rows, monkeypatch):
    monkeypatch.setattr(tables, "BATCH_ROWS", batch_rows)
    blocks = [block.copy() for block in tables.profile_blocks(f, f or 1)]
    assert len({block.shape for block in blocks}) == 1
    got = np.concatenate(blocks, axis=1).T.tolist()
    assert got == [list(votes_from_code(c, f)) for c in range(3**f)]


def test_table_of_one_voter():
    rules = [Majority(1), LongestRun(1), Dictatorship(1), GRD(0), CCC(1, 1)]
    for rule in rules + [make_coalition_rule(1, [{0}])]:
        assert outcome_table(rule).tolist() == [-1, 0, 1]


def test_longest_run_kernel_on_tied_and_uniform_profiles():
    rows = [
        (1, 1, -1, -1, 0, 0),  # two longest nonzero blocks tie: majority, 0
        (1, 1, 0, -1, -1, -1),  # unique longest block decides
        (0, 0, 0, 0, 0, 0),
        (-1, -1, -1, -1, -1, -1),
        (1, 1, 0, 0, 0, 1),  # the +1 block wraps round the ring
    ]
    got = LongestRun(6).batch(_ballots(rows))
    assert got.tolist() == [0, -1, 0, -1, 1]
    assert got.tolist() == [outcome(LongestRun(6), row) for row in rows]


def test_longest_run_table_matches_scalar_loop():
    for n in range(1, 10):
        rule = LongestRun(n)
        scalar = np.empty(3**n, dtype=np.int8)
        for code in range(3**n):
            scalar[code] = outcome(rule, votes_from_code(code, n))
        assert np.array_equal(outcome_table(rule), scalar)


def _scalar_winning(rule, members):
    n = rule.n
    others = [v for v in range(n) if v not in members]
    for x in (1, -1):
        for fill in itertools.product((-1, 0, 1), repeat=len(others)):
            votes = [x] * n
            for v, val in zip(others, fill):
                votes[v] = val
            if outcome(rule, tuple(votes)) != x:
                return False
    return True


def test_winning_slab_above_table_cap():
    rule = LongestRun(13)
    proof = proof_coalition(13)
    assert is_winning_coalition(rule, proof) is _scalar_winning(rule, proof) is True
    block = tuple(range(6))  # the other seven can outrun it
    assert is_winning_coalition(rule, block) is _scalar_winning(rule, block) is False


@pytest.mark.parametrize(
    "rule", [Majority(4), LongestRun(13), Dictatorship(3, 2), CCC(2, 2), GRD((0, (1, 2)))]
)
def test_grand_coalition_leaves_no_voter_free(rule):
    # the completions of every voter are the one empty profile of no voter
    everyone = range(rule.n)
    assert is_winning_coalition(rule, everyone) is _scalar_winning(rule, everyone) is True


def test_direct_search_matches_scalar_reference():
    rule = Majority(13)
    checked = 0
    for k in range(1, 14):
        winners = []
        for ms in itertools.combinations(range(13), k):
            checked += 1
            if all(
                outcome(rule, tuple(x if v in ms else -x for v in range(13))) == x
                for x in (1, -1)
            ):
                winners.append(ms)
        if winners:
            break
    got = min_winning_coalitions(rule)
    assert got.method == "direct+monotone"
    assert got.witnesses == tuple(winners)
    assert got.subsets_checked == checked


def test_binary_pivotality_above_table_cap():
    assert pivotality(LongestRun(13)) == (Fraction(225, 1024),) * 13


def test_results_do_not_depend_on_block_size(monkeypatch):
    lr = LongestRun(9)
    expected = (
        outcome_table(lr).copy(),
        is_winning_coalition(lr, (0, 1, 2, 3, 6)),
        is_winning_coalition(lr, (0, 1, 2)),
        pivotality(lr),
        min_winning_coalitions(Majority(9)),
        min_winning_coalitions(CCC(2, 3), scan_cap=4),
    )
    monkeypatch.setattr(tables, "_TABLES", OrderedDict())
    monkeypatch.setattr(tables, "BATCH_ROWS", 7)
    got = (
        outcome_table(lr),
        is_winning_coalition(lr, (0, 1, 2, 3, 6)),
        is_winning_coalition(lr, (0, 1, 2)),
        pivotality(lr),
        min_winning_coalitions(Majority(9)),
        min_winning_coalitions(CCC(2, 3), scan_cap=4),
    )
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:]


def test_table_cache_keeps_every_catalog_table(monkeypatch):
    monkeypatch.setattr(tables, "_TABLES", OrderedDict())
    catalog = equitable_catalog()
    built = [outcome_table(rule) for rule in catalog]
    assert all(outcome_table(rule) is t for rule, t in zip(catalog, built))
    assert list(tables._TABLES) == catalog


def test_table_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(tables, "_TABLES", OrderedDict())
    monkeypatch.setattr(tables, "_TABLE_CACHE_BYTES", 2 * 3**5)
    a, b, c = Majority(5), LongestRun(5), Dictatorship(5)
    first = outcome_table(a)
    outcome_table(b)
    assert outcome_table(a) is first  # a is now the most recently used
    outcome_table(c)
    assert list(tables._TABLES) == [a, c]


@st.composite
def filter_tables(draw, max_n=5):
    """A random, constant or majority table, with a few entries overwritten."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(("random", "constant", "majority")))
    if kind == "random":
        values = draw(st.lists(VOTE, min_size=3**n, max_size=3**n))
        table = np.array(values, dtype=np.int8)
    elif kind == "constant":
        table = np.full(3**n, draw(VOTE), dtype=np.int8)
    else:
        table = outcome_table(Majority(n)).copy()
    for code in draw(st.lists(st.integers(0, 3**n - 1), max_size=3)):
        table[code] = draw(VOTE)
    return n, table


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_automorphism_filter_matches_respects_table(data):
    # a whole permutation is a prefix of length n, checked on every profile
    n, table = data.draw(filter_tables())
    perm = st.permutations(range(n)).map(lambda images: Permutation(tuple(images)))
    perms = data.draw(st.lists(perm, max_size=30))
    batch_rows = data.draw(st.sampled_from((1, 4, tables.BATCH_ROWS)))
    with mock.patch.object(tables, "BATCH_ROWS", batch_rows):
        got = automorphism_filter(table, n, iter([p.images for p in perms]))
    assert got == [p.images for p in perms if respects_table(table, n, p)]


def _prefix_agrees(table, n, prefix):
    """Brute force: whether the table agrees on each profile where voters
    j..n-1 vote alike and voter j-1 votes otherwise, relabelled by the
    prefix with the voters outside its images taking that common vote."""
    j = len(prefix)
    for phi in all_profiles(n):
        rest = set(phi.votes[j:])
        if j == 0 or len(rest) > 1 or phi.votes[j - 1] in rest:
            continue
        image = [next(iter(rest), None)] * n
        for u, y in enumerate(prefix):
            image[y] = phi.votes[u]
        if table[profile_code(VoteProfile(tuple(image)))] != table[profile_code(phi)]:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_automorphism_filter_prefix_contract(data):
    n, table = data.draw(filter_tables())
    j = data.draw(st.integers(0, n))
    perm = st.permutations(range(n)).map(lambda images: tuple(images[:j]))
    prefixes = data.draw(st.lists(perm, max_size=6))
    batch_rows = data.draw(st.sampled_from((1, 2, tables.BATCH_ROWS)))
    with mock.patch.object(tables, "BATCH_ROWS", batch_rows):
        got = automorphism_filter(table, n, prefixes)
    assert got == [p for p in prefixes if _prefix_agrees(table, n, p)]
    # down one permutation's prefixes, every profile is compared by n - 1
    images = data.draw(st.permutations(range(n)))
    chain = all(automorphism_filter(table, n, [images[:i]]) for i in range(1, n))
    assert chain == respects_table(table, n, Permutation(tuple(images)))


@pytest.mark.parametrize(
    "free, lead", [(c, d) for c in (-1, 0, 1) for d in (-1, 0, 1) if c != d]
)
def test_automorphism_filter_checks_every_pair_of_votes(free, lead):
    # Majority(4) with one change where voters 2, 3 vote alike and voter 1
    # otherwise: the prefix (0, 2) moves that profile, (0, 1) does not
    table = outcome_table(Majority(4)).copy()
    code = profile_code(VoteProfile((1, lead, free, free)))
    table[code] = -table[code] if table[code] else 1
    assert automorphism_filter(table, 4, [(0, 1), (0, 2)]) == [(0, 1)]
    assert _prefix_agrees(table, 4, (0, 1)) and not _prefix_agrees(table, 4, (0, 2))


def test_automorphism_filter_rejects_in_a_late_block(monkeypatch):
    # Majority(5) with one change at the profile (+1, +1, +1, 0, -1). The
    # prefix (0, 1, 2, 4) first decides its image at length 4, where the
    # votes of voters 0..2 run over 27 digit strings; that profile has the
    # last of them, and with 4 strings a block it lies in the last block
    table = outcome_table(Majority(5)).copy()
    late = profile_code(VoteProfile((1, 1, 1, 0, -1)))
    table[late] = -1
    monkeypatch.setattr(tables, "BATCH_ROWS", 4)
    children = [(0, 1, 2, 3), (0, 1, 2, 4)]
    assert automorphism_filter(table, 5, children) == [(0, 1, 2, 3)]
    assert [p for p in children if _prefix_agrees(table, 5, p)] == [(0, 1, 2, 3)]
    assert automorphism_filter(outcome_table(Majority(5)), 5, children) == children


def test_automorphism_filter_empty_perms():
    table = outcome_table(Majority(3))
    assert automorphism_filter(table, 3, []) == []
    assert automorphism_filter(table, 3, iter(())) == []
    with pytest.raises(ValueError):
        automorphism_filter(table, 3, [(0,), (0, 1)])


def _table_group(table, n):
    """The chain search of `analysis`, run on an arbitrary table."""
    with mock.patch.object(analysis, "outcome_table", lambda rule: table):
        return analysis._scanned_group.__wrapped__(Majority(n), "exhaustive")


@settings(max_examples=100, deadline=None)
@given(filter_tables(max_n=6))
def test_chain_search_matches_permutation_scan(case):
    n, table = case
    want = [p for p in iter_permutations(n) if respects_table(table, n, p)]
    assert list(listing(_table_group(table, n))) == want


def test_chain_search_finds_the_stabilizer_of_one_profile():
    # Majority(8) with the 3/3/2 profile flipped: an automorphism must fix
    # that profile, so it permutes each block of equal votes within itself
    table = outcome_table(Majority(8)).copy()
    code = profile_code(VoteProfile((-1, -1, -1, 0, 0, 0, 1, 1)))
    table[code] = -table[code]
    group = _table_group(table, 8)
    assert group.order == 72  # 3! 3! 2!
    assert all(respects_table(table, 8, p) for p in listing(group))
    assert all(set(p.images[:3]) == {0, 1, 2} for p in listing(group))


# Brute-force oracles over `profile_oracle.all_profiles` and the scalar `outcome`
# for the views and transposes of the table in `tables`. A table that holds
# its own codes shows which profile each entry of a view reads.


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.permutations(range(n))))
def test_relabel_table_matches_profile_action(images):
    perm = Permutation(tuple(images))
    n = perm.n
    table = np.arange(3**n)
    expected = [
        table[profile_code(apply_to_profile(perm, phi))] for phi in all_profiles(n)
    ]
    assert relabel_table(table, n, perm).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slab_holds_the_unanimous_profiles(data):
    n = data.draw(st.integers(1, 5))
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    value = data.draw(VOTE)
    expected = [
        profile_code(phi)
        for phi in all_profiles(n)
        if all(phi.votes[v] == value for v in members)
    ]
    got = slab(np.arange(3**n), n, sorted(members), value)
    assert got.ndim == n - len(members)
    assert sorted(got.ravel().tolist()) == expected


def test_slab_with_no_free_voter():
    for value in (-1, 0, 1):
        phi = VoteProfile((value,) * 4)
        got = slab(np.arange(3**4), 4, range(4), value)
        assert got.ravel().tolist() == [profile_code(phi)]


@settings(max_examples=100, deadline=None)
@given(filter_tables())
@example((1, np.array([1, 0, -1], dtype=np.int8)))
# invariant under the rotation alone, and under the transposition (0 1) alone
@example((5, outcome_table(LongestRun(5))))
@example((3, outcome_table(Dictatorship(3, dictator=2))))
def test_is_symmetric_matches_tally_definition(case):
    n, table = case
    tallies = {}
    for phi in all_profiles(n):
        tally = (phi.votes.count(1), phi.votes.count(-1))
        tallies.setdefault(tally, set()).add(int(table[profile_code(phi)]))
    with mock.patch.object(tables, "outcome_table", lambda rule: table):
        got = is_symmetric(Majority(n))
    assert got == all(len(seen) == 1 for seen in tallies.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_voter_outcomes_match_outcome(data):
    rule = data.draw(SMALL_RULES)
    n = rule.n
    v = data.draw(st.integers(0, n - 1))
    columns = [
        [outcome(rule, phi.votes[:v] + (x,) + phi.votes[v + 1 :]) for x in (-1, 0, 1)]
        for phi in all_profiles(n)
        if phi.votes[v] == -1
    ]
    got = voter_outcomes(outcome_table(rule), n, v)
    assert got.shape == (3, 3 ** (n - 1))
    assert got.T.tolist() == columns


@settings(max_examples=60, deadline=None)
@given(SMALL_RULES)
def test_ternary_pivotality_matches_outcome(rule):
    n = rule.n
    profiles = [phi.votes for phi in all_profiles(n)]
    counts = [
        sum(
            any(
                outcome(rule, votes[:v] + (x,) + votes[v + 1 :]) != outcome(rule, votes)
                for x in (-1, 0, 1)
            )
            for votes in profiles
        )
        for v in range(n)
    ]
    expected = tuple(Fraction(c, 3**n) for c in counts)
    assert pivotality(rule, distribution="ternary") == expected


def _orbit_rule(kind, size, seed):
    desc = {"kind": "cyclic", "n": size} if kind == "cyclic" else {"kind": "pgl2", "p": size}
    return build_rule_from_group(group_from_descriptor(desc), desc, seed=seed)


# every family at degrees where the full scan is quick, with and without a
# certified group, transitive or not
SEARCH_RULES = st.one_of(
    st.integers(1, 9).map(Majority),
    st.integers(1, 8).map(LongestRun),
    dictatorships(max_n=7),
    grd_rules(max_n=8),
    st.sampled_from([uniform_grd((3, 3)), uniform_grd((2, 2, 2)), uniform_grd((2, 3))]),
    st.builds(CCC, st.integers(1, 3), st.integers(1, 3)),
    coalition_rules(max_n=7),
    st.builds(_orbit_rule, st.just("cyclic"), st.integers(3, 9), st.integers(0, 3)),
    st.builds(_orbit_rule, st.just("pgl2"), st.sampled_from([2, 3, 5, 7]), st.just(0)),
    st.just(build_projective_rule(2)),
)


def _every_voter(rule):
    """No group: each voter is its own orbit, so every subset is scanned."""
    return 0, tuple(range(rule.n))


@settings(max_examples=150, deadline=None)
@given(SEARCH_RULES, st.data())
def test_reduced_search_matches_full_scan(rule, data):
    n = rule.n
    # a scan cap below n sends a monotone rule down the direct path
    scan_cap = data.draw(st.sampled_from([12, n - 1] if rule.monotone else [12]))
    budget = data.draw(st.one_of(st.just(COALITION_BUDGET), st.integers(0, 2**n)))
    limit = data.draw(st.sampled_from([3, analysis.WITNESS_LIMIT]))
    rows = data.draw(st.sampled_from([4, 7, tables.BATCH_ROWS]))
    with mock.patch.object(analysis, "WITNESS_LIMIT", limit), mock.patch.object(
        tables, "BATCH_ROWS", rows
    ):
        got = min_winning_coalitions(rule, budget=budget, scan_cap=scan_cap)
        with mock.patch.object(analysis, "_symmetry", _every_voter):
            assert got == min_winning_coalitions(rule, budget=budget, scan_cap=scan_cap)


@settings(max_examples=80, deadline=None)
@given(SEARCH_RULES)
def test_pivotality_per_orbit_matches_every_voter(rule):
    got = [pivotality(rule, distribution=d) for d in ("binary", "ternary")]
    with mock.patch.object(analysis, "_symmetry", _every_voter):
        assert got == [pivotality(rule, distribution=d) for d in ("binary", "ternary")]


@pytest.mark.parametrize(
    "rule, reps",
    [
        (Dictatorship(5, 2), (0, 1, 2, 3, 4)),
        # a chair: no grid and no provenance, so no group and no search
        (make_coalition_rule(5, [{0}]), (0, 1, 2, 3, 4)),
        (GRD((0, 1, (2, 3, 4))), (0, 1, 2, 3, 4)),
    ],
)
def test_pivotality_of_rules_without_a_transitive_group(rule, reps):
    assert analysis._symmetry(rule) == (0, reps)
    for dist in ("binary", "ternary"):
        got = pivotality(rule, distribution=dist)
        with mock.patch.object(analysis, "_symmetry", _every_voter):
            assert got == pivotality(rule, distribution=dist)


def test_search_and_pivotality_run_no_automorphism_search(monkeypatch):
    # the family stabilizer search is governed by the factorial cap alone
    def refuse(rule, method):
        raise AssertionError(f"ran the {method} search")

    monkeypatch.setattr(analysis, "_scanned_group", refuse)
    report = analysis.analyze_rule(
        make_coalition_rule(5, [{0}]),
        want_min_coalition=True,
        pivot_distributions=("binary",),
        factorial_cap=0,
    )
    assert report.equitable == "unknown"
    assert report.min_coalition["size"] == 1
    assert report.pivotality == {"binary": ["1", "0", "0", "0", "0"]}


def test_binary_pivotality_evaluates_three_votes_per_profile_of_the_others(monkeypatch):
    evaluated = []
    batch = LongestRun.batch

    def counting(rule, ballots):
        evaluated.append(ballots.shape[1])
        return batch(rule, ballots)

    monkeypatch.setattr(LongestRun, "batch", counting)
    pivotality(LongestRun(10))
    # one voter for the transitive rotation: its three votes against each of
    # the others' 2^9 profiles
    assert sum(evaluated) == 1536


@pytest.mark.parametrize("batch_rows", [tables.BATCH_ROWS, 7])
def test_every_kernel_block_is_voter_major_int8_within_the_block_width(
    batch_rows, monkeypatch
):
    monkeypatch.setattr(tables, "BATCH_ROWS", batch_rows)
    monkeypatch.setattr(tables, "_TABLES", OrderedDict())
    blocks = []
    for cls in (Majority, LongestRun, Dictatorship, GRD, CoalitionRule):

        def spy(rule, ballots, batch=cls.batch):
            flags = (ballots.dtype, ballots.flags.c_contiguous, len(ballots))
            blocks.append((flags, ballots.shape[1], rule.n))
            return batch(rule, ballots)

        monkeypatch.setattr(cls, "batch", spy)

    lr, far = LongestRun(9), Dictatorship(100, 3)
    calls = [
        lambda: outcome_table(lr),
        lambda: outcome_table(CCC(2, 3)),
        lambda: outcome_table(GRD((0, 1, (2, 3, 4)))),
        lambda: is_winning_coalition(lr, (0, 1, 2, 3, 6)),
        lambda: is_winning_coalition(Majority(7), (0, 1, 2, 3), method="monotone"),
        # the table search reaches the kernel through its table alone
        lambda: min_winning_coalitions(LongestRun(8)),
        lambda: min_winning_coalitions(Majority(9), scan_cap=0),
        lambda: pivotality(lr),
        lambda: pivotality(make_coalition_rule(5, [{0, 1}, {1, 2}])),
        lambda: min_winning_coalitions(far),
        lambda: is_winning_coalition(far, range(95)),
        lambda: is_winning_coalition(far, (3, 50), method="monotone"),
    ]
    for i, call in enumerate(calls):
        blocks.clear()
        call()
        assert blocks, i
        for flags, width, n in blocks:
            assert flags == (np.int8, True, n)
            assert 1 <= width <= max(2, tables.block_width(n))
            # BATCH_ROWS profiles, and once n > 64 BATCH_ROWS << 6 votes
            assert width <= max(2, batch_rows)
            assert n * width <= max(2 * n, batch_rows << 6)


def test_symmetry_reads_the_transitivity_of_the_certified_group():
    assert analysis._symmetry(Majority(7)) == (7, (0,) * 7)
    assert analysis._symmetry(LongestRun(7)) == (1, (0,) * 7)
    assert analysis._symmetry(LongestRun(2))[0] == 2  # Sym(2)
    assert analysis._symmetry(CCC(2, 3))[0] == 1
    assert analysis._symmetry(build_projective_rule(2))[0] == 2  # PGL(3,2)
    assert analysis._symmetry(_orbit_rule("pgl2", 5, 0))[0] == 3
    # a rotation too large for its chain is still transitive
    assert analysis._symmetry(LongestRun(1100))[0] == 1


def test_reduced_search_evaluates_one_subset_per_size_below_the_minimum(monkeypatch):
    evaluated = []
    extremal = analysis._extremal_profiles

    def counting(n, subsets):
        evaluated.append(len(subsets))
        return extremal(n, subsets)

    monkeypatch.setattr(analysis, "_extremal_profiles", counting)
    got = min_winning_coalitions(Majority(13))
    assert got.subsets_checked == sum(math.comb(13, k) for k in range(1, 8))
    # Sym(13) decides each size with one subset: sizes 1..6 lose, and size 7
    # wins, so all 1,716 subsets of size 7 win unevaluated
    assert sum(evaluated) == 7
    evaluated.clear()
    min_winning_coalitions(LongestRun(9))
    # the rotation is transitive: the subsets that hold voter 0, then size 5
    assert sum(evaluated) == sum(math.comb(8, k - 1) for k in range(1, 5)) + 126
    evaluated.clear()
    got = min_winning_coalitions(Majority(19))
    # {0..9} wins, so every size-10 subset does
    assert sum(evaluated) == 10
    combos = itertools.combinations(range(19), 10)
    assert got.witnesses == tuple(itertools.islice(combos, analysis.WITNESS_LIMIT))
    # the first `keep` winners are returned, evaluated or not
    got = analysis._scan_size(Majority(7), 7, 4, True, None, keep=5, prefix=1)
    assert got == list(itertools.islice(itertools.combinations(range(7), 4), 5))


@pytest.mark.parametrize("scan_cap", [PROFILE_SCAN_CAP, 0], ids=["table", "direct"])
@pytest.mark.parametrize("n", [*range(1, 14), 19, 21])
def test_majority_search_matches_the_subset_count(n, scan_cap):
    got = min_winning_coalitions(Majority(n), scan_cap=scan_cap)
    size = n // 2 + 1  # a coalition wins majority iff it is more than half
    limit = analysis.WITNESS_LIMIT
    combos = itertools.combinations(range(n), size)
    assert got == analysis.MinCoalitionSearch(
        min_size=size,
        witnesses=tuple(itertools.islice(combos, limit)),
        exact=True,
        lower_bound=size,
        subsets_checked=sum(math.comb(n, k) for k in range(1, size + 1)),
        method=("table" if n <= scan_cap else "direct") + "+monotone",
        witnesses_complete=math.comb(n, size) <= limit,
    )


def test_sparse_winners_keep_coalition_blocks_large(monkeypatch):
    # 171 of the 1,140 size-3 subsets hold voter 19, spread through the
    # order; a block sized to the winners still needed alone would shrink
    # to one subset at the end
    sizes = []
    extremal = analysis._extremal_profiles

    def counting(n, subsets):
        sizes.append(subsets.shape)
        return extremal(n, subsets)

    monkeypatch.setattr(analysis, "_extremal_profiles", counting)
    monkeypatch.setattr(analysis, "WITNESS_LIMIT", 19)
    monkeypatch.setattr(tables, "BATCH_ROWS", 64)  # blocks of 32 subsets
    pairs = itertools.combinations(range(19), 2)
    rule = make_coalition_rule(20, ({a, b, 19} for a, b in pairs))
    got = min_winning_coalitions(rule)
    assert got.witnesses == tuple((0, a, 19) for a in range(1, 19)) + ((1, 2, 19),)
    assert not got.witnesses_complete
    # 19 of the first 192 subsets win, so the 20th is looked for at that rate
    assert [rows for rows, k in sizes if k == 3] == [32] * 6 + [192 // 19] * 2


def test_coalition_search_never_validates_generators(monkeypatch):
    # validation scans the whole outcome table once more per generator
    def refuse(rule):
        raise AssertionError("validated the certificate's generators")

    monkeypatch.setattr(analysis, "_validated_generators", refuse)
    assert min_winning_coalitions(LongestRun(12)).min_size == 6
    for dist in ("binary", "ternary"):
        assert len(set(pivotality(LongestRun(10), distribution=dist))) == 1
