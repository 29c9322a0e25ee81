"""Vectorized rule evaluation and outcome tables over the full profile space.

`evaluate_batch` is the one evaluator behind every exhaustive scan: it maps
a matrix of profiles (one per row, votes in {-1, 0, +1}) to their outcomes
in row blocks of at most BATCH_ROWS, handing each block, voter-major, to
the numpy kernel the rule class carries (`rule.batch`).
The table of a degree-n rule is its value on every base-3 profile code (voter
v's vote plus one is the digit of weight 3^v); the axiom, automorphism and
winningness scans reduce to code arithmetic on it, with no digit matrix kept.
The automorphism search extends permutations one voter at a time:
`automorphism_filter` checks each prefix of images on the profiles it is
the first to decide, those where every voter it leaves free votes alike,
so a permutation has been compared on every profile once its prefixes
have all been kept.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Sequence

from ._numpy import np
from .perms import Permutation
from .rules import VotingRule

BATCH_ROWS = 1 << 15  # profiles evaluated per block, bounding temporaries

_TABLES: "OrderedDict[VotingRule, np.ndarray]" = OrderedDict()
_TABLE_CACHE_BYTES = 32 << 20


def digits(codes: np.ndarray, n: int) -> np.ndarray:
    """Shape (len(codes), n) int8: the base-3 digits of each code, stored
    voter-major so that `evaluate_batch` hands its kernel a contiguous block.
    The codes are decoded in int32, which holds every code while 3^n <= 2^31."""
    if 3**n > 1 << 31:
        raise ValueError(f"codes of {n} voters do not fit in int32")
    codes = np.asarray(codes, dtype=np.int32)
    out = np.empty((n, len(codes)), dtype=np.int8)
    for v in range(n):
        quotient = codes // 3
        out[v] = codes - 3 * quotient
        codes = quotient
    return out.T


def code_sums(rows: Sequence[np.ndarray]) -> np.ndarray:
    """For every code over len(rows) voters, in code order, the sum over
    voters u of rows[u][d_u], where d_u is voter u's digit."""
    acc = np.zeros(1, dtype=np.int64)
    # voter 0 is the lowest digit, so it is added last and varies fastest
    for row in reversed(rows):
        acc = (acc[:, None] + row).ravel()
    return acc


def evaluate_batch(rule: VotingRule, votes: np.ndarray) -> np.ndarray:
    """Outcome of the rule on each row of an (m, n) vote matrix, as int8[m]."""
    votes = np.asarray(votes, dtype=np.int8)
    n = rule.n
    if votes.ndim != 2 or votes.shape[1] != n:
        raise ValueError(f"expected a vote matrix with {n} columns")
    out = np.empty(len(votes), dtype=np.int8)
    for lo in range(0, len(votes), BATCH_ROWS):
        ballots = np.ascontiguousarray(votes[lo : lo + BATCH_ROWS].T)
        out[lo : lo + BATCH_ROWS] = rule.batch(ballots)
    return out


def outcome_table(rule: VotingRule) -> np.ndarray:
    """Full outcome table of the rule, cached; read-only.

    The cache keeps the most recently used tables within a byte budget.
    """
    table = _TABLES.get(rule)
    if table is not None:
        _TABLES.move_to_end(rule)
        return table
    n = rule.n
    table = np.empty(3**n, dtype=np.int8)
    for lo in range(0, 3**n, BATCH_ROWS):
        codes = np.arange(lo, min(lo + BATCH_ROWS, 3**n), dtype=np.int32)
        table[lo : lo + len(codes)] = evaluate_batch(rule, digits(codes, n) - 1)
    table.setflags(write=False)
    _TABLES[rule] = table
    cached = sum(t.nbytes for t in _TABLES.values())
    while len(_TABLES) > 1 and cached > _TABLE_CACHE_BYTES:
        cached -= _TABLES.popitem(last=False)[1].nbytes
    return table


def permutation_code_map(n: int, perm: Permutation) -> np.ndarray:
    """codes such that entry c is the code of the perm-relabelled profile."""
    # voter u's digit lands at the place of voter perm(u)
    return code_sums(
        [np.arange(3, dtype=np.int64) * 3 ** perm.images[u] for u in range(n)]
    )


def respects_table(table: np.ndarray, n: int, perm: Permutation) -> bool:
    """Whether relabelling voters by perm leaves every outcome unchanged."""
    mapped = permutation_code_map(n, perm)
    return bool(np.array_equal(table[mapped], table))


def automorphism_filter(
    table: np.ndarray, n: int, perms: Iterable[Sequence[int]]
) -> list[tuple[int, ...]]:
    """The prefixes, in order, under which the table agrees on every
    profile they newly decide.

    Each prefix lists the images of voters 0..j-1, with one j for all.
    It decides the image of every profile where voters j..n-1 vote alike:
    voter u's vote moves to voter prefix[u], and every other voter takes
    the common vote. A prefix is checked on the decided profiles where
    voter j-1 votes otherwise, which its parent prefix did not decide; at
    j = n, on every profile. So along a chain of kept prefixes each
    profile is compared once by length n - 1, and a permutation is an
    automorphism iff it is kept. The codes go in blocks of BATCH_ROWS.
    """
    prefixes = [tuple(p) for p in perms]
    j = len(prefixes[0]) if prefixes else 0
    if any(len(p) != j for p in prefixes):
        raise ValueError("prefixes must share one length")
    if j == 0:
        return prefixes  # the constant profiles, which no relabelling moves
    # place[k, u]: the place value of voter u's digit once prefix k relabels
    place = 3 ** np.array(prefixes, dtype=np.int64)
    lead = 3 ** (j - 1)  # voter j-1's place value
    # the place values of the free voters j..n-1, before and after relabelling
    free = (3**n - 1) // 2 - (3**j - 1) // 2
    free_image = (3**n - 1) // 2 - place.sum(axis=1)
    # (c, d): the free voters all have digit c, voter j-1 digit d
    if j < n:
        pairs = [(c, d) for c in range(3) for d in range(3) if c != d]
    else:
        pairs = [(0, d) for d in range(3)]  # no free voter
    live = np.arange(len(prefixes))
    # the voters below j-1 run over every digit string, a block at a time
    for lo in range(0, lead, BATCH_ROWS):
        low = np.arange(lo, min(lo + BATCH_ROWS, lead), dtype=np.int64)
        low_image = digits(low, j - 1) @ place[live, : j - 1].T
        for c, d in pairs:
            codes = low + d * lead + c * free
            image = low_image + (d * place[live, j - 1] + c * free_image[live])
            agree = (table[image] == table[codes][:, None]).all(axis=0)
            live, low_image = live[agree], low_image[:, agree]
        if not len(live):
            break
    return [prefixes[k] for k in live]


def slab_unanimous_codes(n: int, members: Sequence[int], value: int) -> np.ndarray:
    """Codes of every profile where the members all vote value."""
    others = sorted(set(range(n)) - set(members))
    base = sum((value + 1) * 3**v for v in members)
    return base + code_sums([np.arange(3, dtype=np.int64) * 3**v for v in others])


def voter_outcomes(table: np.ndarray, n: int, v: int) -> np.ndarray:
    """Shape (3, 3^(n-1)): row d holds the outcomes with voter v voting
    d - 1, column j the j-th profile of the other voters."""
    low = slab_unanimous_codes(n, (v,), -1)
    return np.stack([table[low + d * 3**v] for d in range(3)])


def binary_voter_outcomes(rule: VotingRule, v: int) -> Iterator[np.ndarray]:
    """The binary counterpart of `voter_outcomes`, evaluated in blocks of
    at most BATCH_ROWS columns: row d holds the outcomes with voter v voting
    d - 1, column j the profile of the other voters whose votes, in voter
    order, are the bits of j (1 for +1)."""
    n = rule.n
    others = [u for u in range(n) if u != v]
    for lo in range(0, 2 ** (n - 1), BATCH_ROWS):
        codes = np.arange(lo, min(lo + BATCH_ROWS, 2 ** (n - 1)), dtype=np.int32)
        # voter-major, so that evaluate_batch hands it to the kernel uncopied
        ballots = np.empty((n, len(codes)), dtype=np.int8)
        for bit, u in enumerate(others):
            ballots[u] = 2 * (codes >> bit & 1) - 1
        block = np.empty((3, len(codes)), dtype=np.int8)
        for d in range(3):
            ballots[v] = d - 1
            block[d] = evaluate_batch(rule, ballots.T)
        yield block
