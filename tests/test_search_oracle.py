"""The minimal winning coalition search and binary pivotality against brute
force: every subset on every profile, and every voter on every binary
profile of the others, through the scalar `outcome` alone."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivote.analysis import _scan_size, min_winning_coalitions, pivotality
from equivote.perms import PermGroup, Permutation, symmetric_generators
from equivote.rules import (
    Dictatorship,
    EquityCertificate,
    LongestRun,
    eval_majority,
    outcome,
)
from equivote.tables import outcome_table
from rule_strategies import coalition_rules, grd_rules


@dataclass(frozen=True)
class AbstentionFlip:
    """Majority, reversed on every profile where some voter abstains. It is
    invariant under every relabelling and not monotone: a majority wins its
    two extremal profiles, where no voter abstains, but only the whole
    electorate wins every profile of its slabs. With `symmetric` it names
    Sym(n) as its certificate, so the search decides each size from one
    subset; without, it names none and every subset is scanned."""

    n: int
    symmetric: bool

    monotone = False
    family = None

    def scalar(self, votes):
        return -eval_majority(votes) if 0 in votes else eval_majority(votes)

    def batch(self, ballots):
        tally = np.sign(ballots.sum(axis=0, dtype=np.int32)).astype(np.int8)
        return np.where((ballots == 0).any(axis=0), -tally, tally).astype(np.int8)

    def certificate(self):
        if not self.symmetric:
            return None
        group = PermGroup(self.n, symmetric_generators(self.n))
        return EquityCertificate(group, "symmetric", cycle=Permutation.rotation(self.n))


def _brute_force_wins(rule):
    """Whether a subset wins: every profile on which it votes x unanimously
    has outcome x, for x = +1 and x = -1."""
    n = rule.n
    outcomes = {
        votes: outcome(rule, votes)
        for votes in itertools.product((-1, 0, 1), repeat=n)
    }

    def wins(ms):
        others = [v for v in range(n) if v not in ms]
        for x in (1, -1):
            for fill in itertools.product((-1, 0, 1), repeat=len(others)):
                votes = [x] * n
                for v, vote in zip(others, fill):
                    votes[v] = vote
                if outcomes[tuple(votes)] != x:
                    return False
        return True

    return wins


def _brute_force_winners(rule):
    """The winning coalitions of the smallest size that has one, in
    combination order."""
    wins = _brute_force_wins(rule)
    for k in range(1, rule.n + 1):
        winners = [ms for ms in itertools.combinations(range(rule.n), k) if wins(ms)]
        if winners:
            return k, winners
    return None, []


def _brute_force_binary_pivotality(rule):
    """Each voter's share of the others' profiles over {-1, +1} on which
    its three votes do not all give one outcome."""
    n = rule.n
    shares = []
    for v in range(n):
        swings = 0
        for others in itertools.product((-1, 1), repeat=n - 1):
            votes = [others[:v] + (d,) + others[v:] for d in (-1, 0, 1)]
            swings += len({outcome(rule, vs) for vs in votes}) > 1
        shares.append(Fraction(swings, 2 ** (n - 1)))
    return tuple(shares)


# LongestRun is monotone below n = 10, so the AbstentionFlip rules are the
# ones whose extremal winners lose a slab: they catch a search that skips
# the slab check, deciding a size from one subset or scanning every subset
FIXED_RULES = [
    *(LongestRun(n) for n in range(2, 8)),
    *(Dictatorship(n, d) for n in (1, 4, 7) for d in {0, n // 2, n - 1}),
    *(AbstentionFlip(n, symmetric) for n in range(1, 8) for symmetric in (True, False)),
]
RANDOM_RULES = st.one_of(grd_rules(max_n=7), coalition_rules(max_n=7))


def _check_search(rule):
    size, winners = _brute_force_winners(rule)
    got = min_winning_coalitions(rule)
    assert (got.min_size, got.exact, got.witnesses_complete) == (size, True, True)
    assert got.witnesses == tuple(winners)


@pytest.mark.parametrize("rule", FIXED_RULES, ids=repr)
def test_search_matches_brute_force(rule):
    _check_search(rule)


@settings(max_examples=100, deadline=None)
@given(RANDOM_RULES)
def test_search_matches_brute_force_on_random_trees_and_families(rule):
    _check_search(rule)


def _check_scan(rule):
    """Every size's scan of every subset, with no witness limit and, for a
    rule that is not monotone, its table, against brute force."""
    n = rule.n
    wins = _brute_force_wins(rule)
    table = None if rule.monotone else outcome_table(rule)
    for k in range(1, n + 1):
        got = list(_scan_size(rule, k, table, math.comb(n, k)))
        assert got == [ms for ms in itertools.combinations(range(n), k) if wins(ms)], k


@pytest.mark.parametrize("rule", FIXED_RULES, ids=repr)
def test_scan_of_every_size_matches_brute_force(rule):
    _check_scan(rule)


@settings(max_examples=50, deadline=None)
@given(RANDOM_RULES)
def test_scan_of_every_size_matches_brute_force_on_random_trees_and_families(rule):
    _check_scan(rule)


@pytest.mark.parametrize("rule", FIXED_RULES, ids=repr)
def test_binary_pivotality_matches_brute_force(rule):
    assert pivotality(rule, distribution="binary") == _brute_force_binary_pivotality(rule)


@settings(max_examples=100, deadline=None)
@given(RANDOM_RULES)
def test_binary_pivotality_matches_brute_force_on_random_trees_and_families(rule):
    assert pivotality(rule, distribution="binary") == _brute_force_binary_pivotality(rule)
