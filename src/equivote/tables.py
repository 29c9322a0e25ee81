"""Vectorized rule evaluation and outcome tables over the full profile space.

Every profile where some voters vote fixed ways reaches the numpy kernel
the rule class carries (`rule.batch`) one way, `profile_blocks`: voter-major,
C-contiguous int8 blocks of at most `block_width(n)` profiles, built in that
layout, so no block is transposed or copied on its way in. Given a table,
`slab` is the one view of those profiles' outcomes.
The table of a degree-n rule is its value on every base-3 profile code (voter
v's vote plus one is the digit of weight 3^v), so it is also an n-axis
3 x 3 x ... x 3 array whose axis v is voter v's vote, and this module alone
knows that layout: relabelling voters transposes the axes, and fixing
voters fixes their axes. No profile code is ever computed.
The automorphism search extends permutations one voter at a time:
`automorphism_filter` checks each prefix of images on the profiles it is
the first to decide, those where every voter it leaves free votes alike,
so a permutation has been compared on every profile once its prefixes
have all been kept.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from ._numpy import np
from .limits import _TABLE_CACHE_BYTES, BATCH_ROWS

if TYPE_CHECKING:
    from .perms import Permutation
    from .rules import VotingRule

_TABLES: "OrderedDict[VotingRule, np.ndarray]" = OrderedDict()


def block_width(n: int) -> int:
    """Profiles per kernel block: BATCH_ROWS, cut once n > 64 so that a
    block of profiles of n voters holds at most BATCH_ROWS << 6 votes."""
    return max(1, min(BATCH_ROWS, (BATCH_ROWS << 6) // n))


def profile_blocks(
    n: int, fixed: Mapping[int, int], values: tuple = (-1, 0, 1)
) -> Iterator[np.ndarray]:
    """Every profile of n voters where each voter in `fixed` votes its value
    and the f others run over `values` in code order (the lowest is the
    lowest digit), in blocks of b^k profiles, k <= f the largest with b^k
    within `block_width(n)`: the low k free voters run through one digit
    pattern, and each higher one votes alike across a block. Every block is
    the same array; fixed rows are written once, so a caller may overwrite them."""
    free = np.array([v for v in range(n) if v not in fixed], dtype=np.intp)
    f, b, k = len(free), len(values), 0
    while k < f and b ** (k + 1) <= block_width(n):
        k += 1
    block = np.empty((n, b**k), dtype=np.int8)
    for v, x in fixed.items():
        block[v] = x
    # np.indices varies its last axis fastest, the lowest digit's voter first
    digits = np.indices((b,) * k, dtype=np.int8)[::-1].reshape(k, b**k)
    block[free[:k]] = np.take(np.array(values, dtype=np.int8), digits)
    for votes in itertools.product(values, repeat=f - k):
        block[free[k:]] = np.array(votes[::-1], dtype=np.int8)[:, None]
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
    for block in profile_blocks(n, {}):
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


def slab(table: np.ndarray, n: int, fixed: Mapping[int, int]) -> np.ndarray:
    """A view of the outcomes of every profile where each voter in `fixed`
    votes its value, one axis per other voter, in voter order."""
    index: list = [slice(None)] * n
    for v, x in fixed.items():
        index[v] = x + 1
    return _cube(table, n)[tuple(index)]
