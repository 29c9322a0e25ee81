"""Vectorized rule evaluation and outcome tables over the full profile space.

Every scan hands the numpy kernel the rule class carries (`rule.batch`)
voter-major, C-contiguous int8 blocks of at most `block_width(n)` profiles
(one per column, votes in {-1, 0, +1}); `profile_blocks` yields every
profile of some voters over some vote values that way, in code order,
without codes; binary pivotality reads it over {-1, +1}.
The table of a degree-n rule is its value on every base-3 profile code (voter
v's vote plus one is the digit of weight 3^v), so it is also an n-axis
3 x 3 x ... x 3 array whose axis v is voter v's vote, and this module alone
knows that layout: relabelling voters transposes the axes, a coalition's
unanimous slab fixes the members' axes, and one voter's outcomes over the
others' profiles move that voter's axis to the front. No profile code is
ever computed.
The automorphism search extends permutations one voter at a time:
`automorphism_filter` checks each prefix of images on the profiles it is
the first to decide, those where every voter it leaves free votes alike,
so a permutation has been compared on every profile once its prefixes
have all been kept.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._numpy import np

if TYPE_CHECKING:
    from .perms import Permutation
    from .rules import VotingRule

BATCH_ROWS = 1 << 15  # profiles evaluated per block, bounding temporaries

_TABLES: "OrderedDict[VotingRule, np.ndarray]" = OrderedDict()
_TABLE_CACHE_BYTES = 32 << 20


def block_width(n: int) -> int:
    """Profiles per kernel block: BATCH_ROWS, cut once n > 64 so that a
    block of profiles of n voters holds at most BATCH_ROWS << 6 votes."""
    return max(1, min(BATCH_ROWS, (BATCH_ROWS << 6) // n))


def profile_blocks(f: int, n: int, values: tuple = (-1, 0, 1)) -> Iterator[np.ndarray]:
    """The votes of f voters over all b^f of their profiles over b vote
    values, in code order (digit d of the code is a vote of values[d]), as
    voter-major int8 blocks of b^k profiles for a kernel of n voters: k is
    at most f and the largest with b^k within `block_width`. The low k
    voters run through one fixed digit pattern and each higher voter votes
    alike across a block. Every block is the same array, refilled."""
    b, k = len(values), 0
    while k < f and b ** (k + 1) <= block_width(n):
        k += 1
    block = np.empty((f, b**k), dtype=np.int8)
    # np.indices varies its last axis fastest, and voter 0 is the lowest digit
    digits = np.indices((b,) * k, dtype=np.int8)[::-1].reshape(k, b**k)
    np.take(np.array(values, dtype=np.int8), digits, out=block[:k])
    for high in itertools.product(values, repeat=f - k):
        block[k:] = np.array(high[::-1], dtype=np.int8)[:, None]
        yield block


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
    lo = 0
    for block in profile_blocks(n, n):
        table[lo : lo + block.shape[1]] = rule.batch(block)
        lo += block.shape[1]
    table.setflags(write=False)
    _TABLES[rule] = table
    cached = sum(t.nbytes for t in _TABLES.values())
    while len(_TABLES) > 1 and cached > _TABLE_CACHE_BYTES:
        cached -= _TABLES.popitem(last=False)[1].nbytes
    return table


def _cube(table: np.ndarray, n: int) -> np.ndarray:
    """The table as an n-axis view whose axis v is voter v's digit; voter 0
    is the lowest digit, so the axes run in Fortran order."""
    return table.reshape((3,) * n, order="F")


def relabel_table(table: np.ndarray, n: int, perm: Permutation) -> np.ndarray:
    """The table after relabelling voters by perm: entry c is the outcome
    of profile c with voter u's vote moved to voter perm(u)."""
    return _cube(table, n).transpose(perm.images).flatten(order="F")


def respects_table(table: np.ndarray, n: int, perm: Permutation) -> bool:
    """Whether relabelling voters by perm leaves every outcome unchanged."""
    cube = _cube(table, n)
    return bool(np.array_equal(cube.transpose(perm.images), cube))


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
    automorphism iff it is kept. Each check compares a view of the table
    with the same view of its transpose whose axis u is voter prefix[u]'s.
    """
    prefixes = [tuple(p) for p in perms]
    j = len(prefixes[0]) if prefixes else 0
    if any(len(p) != j for p in prefixes):
        raise ValueError("prefixes must share one length")
    if j == 0:
        return prefixes  # the constant profiles, which no relabelling moves
    cube = _cube(table, n)
    # (c, d): voters j..n-1 all have digit c, voter j-1 digit d
    if j < n:
        pairs = [(c, d) for c in range(3) for d in range(3) if c != d]
    else:
        pairs = [(0, d) for d in range(3)]  # no voter votes c
    views = [(slice(None),) * (j - 1) + (d,) + (c,) * (n - j) for c, d in pairs]

    def agrees(p: tuple[int, ...]) -> bool:
        # the voters outside p, all fixed at c, follow in any order
        moved = cube.transpose(p + tuple(v for v in range(n) if v not in p))
        return all(np.array_equal(moved[view], cube[view]) for view in views)

    return [p for p in prefixes if agrees(p)]


def slab(table: np.ndarray, n: int, members: Iterable[int], value: int) -> np.ndarray:
    """A view of the outcomes of every profile where the members all vote
    value, one axis per other voter."""
    index: list = [slice(None)] * n
    for v in members:
        index[v] = value + 1
    return _cube(table, n)[tuple(index)]


def voter_outcomes(table: np.ndarray, n: int, v: int) -> np.ndarray:
    """Shape (3, 3^(n-1)): row d holds the outcomes with voter v voting
    d - 1, column j the j-th profile of the other voters."""
    # code = (higher voters) * 3^(v+1) + d * 3^v + (lower voters)
    return table.reshape(3 ** (n - 1 - v), 3, 3**v).transpose(1, 0, 2).reshape(3, -1)


def binary_voter_outcomes(rule: VotingRule, v: int) -> Iterator[np.ndarray]:
    """The binary counterpart of `voter_outcomes`, in blocks: row d holds
    the outcomes with voter v voting d - 1, column j the j-th profile, in
    code order, of the other voters over {-1, +1}."""
    for profiles in profile_blocks(rule.n - 1, rule.n, (-1, 1)):
        ballots = np.insert(profiles, v, 0, axis=0)
        block = np.empty((3, profiles.shape[1]), dtype=np.int8)
        for d in range(3):
            ballots[v] = d - 1
            block[d] = rule.batch(ballots)
        yield block
