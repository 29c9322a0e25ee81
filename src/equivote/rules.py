"""Voting rule variants, evaluation, and the profile-space axiom checks.

A rule maps profiles over {-1, 0, +1} to a collective vote in {-1, 0, +1}.
Variants: plain majority, cyclic longest-run, dictatorship, recursive majority
over a partition tree (GRD), and rules induced by a pairwise-intersecting
family of coalitions (consensus on a family member wins, otherwise majority
decides). Crosscutting committees (CCC) are the coalition rule whose family
is every row union column of a voter grid.

Each rule class carries everything that differs between families: whether
it is monotone by construction, its coalition family (None outside coalition
rules), its scalar evaluator, its vectorized batch kernel, its rule document,
its label in verification reports and its by-construction symmetry
certificate.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence, Union

from ._numpy import np
from ._record import record
from .perms import PermGroup, Permutation, compose, symmetric_generators
from .profiles import VoteProfile

GRDTree = Union[int, tuple]

PROFILE_SCAN_CAP = 12  # 3^n table scans refused above this degree
CCC_MAX_ENTRIES = 1 << 21  # voters listed over all CCC members; (100, 100) has 1,990,000
# voters a rule document or a uniform tree may have; above CCC(100, 100)'s
# 10,000, and low enough that n-sized permutations and orbits stay small
MAX_DEGREE = 1 << 14


class InfeasibleError(ValueError):
    """The requested exhaustive computation exceeds its cap."""


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def eval_majority(votes: tuple[int, ...]) -> int:
    return sign(sum(votes))


@record
class EquityCertificate:
    """A subgroup of the automorphism group with how it was justified, and
    an automorphism that is an n-cycle when the construction provides one;
    the cycle need not lie in the group (a GRD's odometer is not in its
    torus group). A rule's own `certificate()` comes unvalidated."""

    group: PermGroup
    kind: str
    validated: bool = False
    cycle: Optional[Permutation] = None


@record
class Majority:
    n: int

    monotone = True
    family = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")

    def scalar(self, votes: tuple[int, ...]) -> int:
        return eval_majority(votes)

    def batch(self, ballots: np.ndarray) -> np.ndarray:
        return _majority(ballots)

    def to_doc(self) -> dict:
        return {"type": "majority", "n": self.n}

    def certificate(self) -> Optional[EquityCertificate]:
        group = PermGroup(self.n, symmetric_generators(self.n))
        return EquityCertificate(group, "symmetric", cycle=Permutation.rotation(self.n))

    @property
    def label(self) -> str:
        return f"majority{self.n}"


@record
class LongestRun:
    """Unique strictly-longest cyclic block of identical nonzero votes decides,
    otherwise majority."""

    n: int

    # no monotone certificate: the rule fails monotonicity for some
    # degrees, first at n=10
    monotone = False
    family = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")

    def scalar(self, votes: tuple[int, ...]) -> int:
        return eval_longest_run(votes)

    def batch(self, ballots: np.ndarray) -> np.ndarray:
        return _longest_run(ballots)

    def to_doc(self) -> dict:
        return {"type": "longest_run", "n": self.n}

    def certificate(self) -> Optional[EquityCertificate]:
        rotation = Permutation.rotation(self.n)
        group = PermGroup(self.n, (rotation,))
        return EquityCertificate(group, "rotation", cycle=rotation)

    @property
    def label(self) -> str:
        return f"longest_run{self.n}"


@record
class Dictatorship:
    n: int
    dictator: int = 0

    monotone = True
    family = None

    def __post_init__(self) -> None:
        if not 0 <= self.dictator < self.n:
            raise ValueError("dictator out of range")

    def scalar(self, votes: tuple[int, ...]) -> int:
        return votes[self.dictator]

    def batch(self, ballots: np.ndarray) -> np.ndarray:
        return ballots[self.dictator]

    def to_doc(self) -> dict:
        return {"type": "dictatorship", "n": self.n, "dictator": self.dictator}

    def certificate(self) -> Optional[EquityCertificate]:
        return None  # every automorphism fixes the dictator

    @property
    def label(self) -> str:
        return f"dictatorship{self.n}"


@record
class GRD:
    """Recursive majority over a partition tree; leaves are voter indices."""

    tree: GRDTree

    monotone = True
    family = None

    def __post_init__(self) -> None:
        leaves = tree_leaves(self.tree)
        if sorted(leaves) != list(range(len(leaves))):
            raise ValueError("leaves must be exactly 0..n-1")

    @cached_property
    def n(self) -> int:
        return len(tree_leaves(self.tree))

    def scalar(self, votes: tuple[int, ...]) -> int:
        return eval_grd(self.tree, votes)

    def batch(self, ballots: np.ndarray) -> np.ndarray:
        return _grd_sum(self.tree, ballots).astype(np.int8)

    def to_doc(self) -> dict:
        return {"type": "grd", "tree": _tree_to_json(self.tree)}

    def certificate(self) -> Optional[EquityCertificate]:
        branching = uniform_branching(self.tree)
        if branching is None:
            return None
        group = PermGroup(self.n, _torus_generators(branching))
        return EquityCertificate(group, "torus", cycle=_odometer(branching))

    @property
    def label(self) -> str:
        return f"grd{self.n}"


@record(uncompared=("provenance", "grid"))
class CoalitionRule:
    """Consensus on any family member forces the outcome; majority otherwise.

    The family must be pairwise intersecting, so the two consensus branches
    can never both fire. `grid` is set only by `CCC`: the rows x cols grid
    whose row-union-column sets make up the family. Equality and hashing
    ignore `provenance` and `grid`, so the caches keyed on rules treat a
    CCC and the coalition document of its family as one rule.
    """

    n: int
    family: tuple[frozenset[int], ...]
    provenance: Optional[dict] = None
    grid: Optional[tuple[int, int]] = None

    monotone = True

    def __post_init__(self) -> None:
        if not self.family:
            raise ValueError("family must be nonempty")
        members = list(self.family)
        for m in members:
            if not m:
                raise ValueError("family members must be nonempty")
            if not all(0 <= v < self.n for v in m):
                raise ValueError("family member out of range")
        if self.grid is not None and self.family == ccc_family(*self.grid):
            return  # row i + column j meets row k + column l in cell (i, l)
        if frozenset.intersection(*members):
            return  # every member holds a common voter
        for a, b in itertools.combinations(members, 2):
            if a.isdisjoint(b):
                raise ValueError(f"family members {sorted(a)} and {sorted(b)} are disjoint")

    def scalar(self, votes: tuple[int, ...]) -> int:
        return eval_coalition(self.family, votes)

    def batch(self, ballots: np.ndarray) -> np.ndarray:
        return _coalition(self.family, ballots)

    def to_doc(self) -> dict:
        if self.grid is not None:
            rows, cols = self.grid
            return {"type": "ccc", "rows": rows, "cols": cols}
        doc = {
            "type": "coalition",
            "n": self.n,
            "family": [sorted(member) for member in self.family],
        }
        if self.provenance is not None:
            doc["provenance"] = self.provenance
        return doc

    def certificate(self) -> Optional[EquityCertificate]:
        if self.grid is None:
            return None  # a coalition document's provenance is only a hint
        rows, cols = self.grid
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        row_shift = Permutation(tuple((i + 1) % rows * cols + j for i, j in cells))
        col_shift = Permutation(tuple(i * cols + (j + 1) % cols for i, j in cells))
        cycle = None
        if math.gcd(rows, cols) == 1:
            # the diagonal shift is one n-cycle (Chinese remainder theorem)
            cycle = compose(row_shift, col_shift)
        group = PermGroup(self.n, (row_shift, col_shift))
        return EquityCertificate(group, "grid_shifts", cycle=cycle)

    @property
    def label(self) -> str:
        if self.grid is not None:
            return "ccc{}x{}".format(*self.grid)
        prov = self.provenance or {}
        if prov.get("kind") == "projective_plane":
            return f"projective_p{prov['p']}"
        return f"coalition{self.n}"


VotingRule = Union[Majority, LongestRun, Dictatorship, GRD, CoalitionRule]


def make_coalition_rule(
    n: int, members: Iterable[Iterable[int]], provenance: Optional[dict] = None
) -> CoalitionRule:
    """Canonicalize (dedupe, sort) and validate a coalition family."""
    fam = sorted({frozenset(m) for m in members}, key=lambda s: (len(s), sorted(s)))
    return CoalitionRule(n=n, family=tuple(fam), provenance=provenance)


def preserves_family(
    perm: Permutation, family_set: frozenset[frozenset[int]]
) -> bool:
    """Whether perm maps every member of the family onto a member."""
    return all(
        frozenset(perm.images[v] for v in member) in family_set
        for member in family_set
    )


def tree_leaves(tree: GRDTree) -> list[int]:
    if isinstance(tree, int):
        return [tree]
    if not isinstance(tree, tuple) or not tree:
        raise ValueError("tree nodes must be nonempty tuples")
    out: list[int] = []
    for child in tree:
        out.extend(tree_leaves(child))
    return out


def uniform_branching(tree: GRDTree) -> Optional[tuple[int, ...]]:
    """The arity at each level when every level is all leaves or all nodes
    of one arity; None for any other tree."""
    branching = []
    level = [tree]
    while not all(isinstance(t, int) for t in level):
        if any(isinstance(t, int) for t in level):
            return None
        arities = {len(t) for t in level}
        if len(arities) != 1:
            return None
        branching.append(arities.pop())
        level = [child for t in level for child in t]
    return tuple(branching)


def uniform_tree(branching: tuple[int, ...]) -> GRDTree:
    """Build the tree with the given arity at each level, leaves in order;
    refused before it is built unless it has 1 to MAX_DEGREE leaves."""
    leaves = math.prod(branching)
    if not 1 <= leaves <= MAX_DEGREE:
        raise ValueError(f"branching gives {leaves} voters, outside 1..{MAX_DEGREE}")

    def build(level: int, start: int) -> tuple[GRDTree, int]:
        if level == len(branching):
            return start, start + 1
        children = []
        cursor = start
        for _ in range(branching[level]):
            child, cursor = build(level + 1, cursor)
            children.append(child)
        return tuple(children), cursor

    tree, _ = build(0, 0)
    return tree


def uniform_grd(branching: Iterable[int]) -> GRD:
    return GRD(tree=uniform_tree(tuple(branching)))


@lru_cache(maxsize=64)
def ccc_family(rows: int, cols: int) -> tuple[frozenset[int], ...]:
    members = []
    for i in range(rows):
        for j in range(cols):
            row = {i * cols + c for c in range(cols)}
            col = {r * cols + j for r in range(rows)}
            members.append(frozenset(row | col))
    return tuple(sorted(set(members), key=lambda s: (len(s), sorted(s))))


def CCC(rows: int, cols: int) -> CoalitionRule:
    """Crosscutting committees: the coalition rule over all row-union-column
    sets of a rows x cols voter grid."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    entries = rows * cols * (rows + cols - 1)
    if entries > CCC_MAX_ENTRIES:
        raise ValueError(
            f"a {rows} x {cols} grid lists {entries} voters over its members, "
            f"above the limit of {CCC_MAX_ENTRIES}"
        )
    return CoalitionRule(rows * cols, ccc_family(rows, cols), grid=(rows, cols))


def _torus_generators(branching: tuple[int, ...]) -> tuple[Permutation, ...]:
    """One generator per level, rotating every block at that level in step."""
    n = math.prod(branching)
    gens = []
    for level, b in enumerate(branching):
        inner = math.prod(branching[level + 1 :])
        images = []
        for leaf in range(n):
            block = (leaf // inner) % b
            base = leaf - ((leaf // inner) % b) * inner
            images.append(base + ((block + 1) % b) * inner)
        gens.append(Permutation(tuple(images)))
    return tuple(gens)


def _odometer(branching: tuple[int, ...]) -> Permutation:
    """Increment the top-level block index, carrying into deeper levels."""
    n = math.prod(branching)
    radii = list(branching)
    images = []
    for leaf in range(n):
        digits = []
        rest = leaf
        for b in reversed(radii):
            digits.append(rest % b)
            rest //= b
        digits.reverse()  # digits[0] is the top-level block
        for level in range(len(digits)):
            digits[level] += 1
            if digits[level] < radii[level]:
                break
            digits[level] = 0
        img = 0
        for level, b in enumerate(radii):
            img = img * b + digits[level]
        images.append(img)
    return Permutation(tuple(images))


def eval_longest_run(votes: tuple[int, ...]) -> int:
    n = len(votes)
    first = votes[0]
    if all(v == first for v in votes):
        return first  # single run covering the cycle, or no runs at all
    start = next(i for i in range(n) if votes[i] != votes[i - 1])
    blocks: list[tuple[int, int]] = []
    value = votes[start]
    length = 0
    for k in range(n):
        v = votes[(start + k) % n]
        if v == value:
            length += 1
        else:
            blocks.append((value, length))
            value, length = v, 1
    blocks.append((value, length))
    runs = [(val, ln) for val, ln in blocks if val != 0]
    if runs:
        best = max(ln for _, ln in runs)
        top = [val for val, ln in runs if ln == best]
        if len(top) == 1:
            return top[0]
    return eval_majority(votes)


def eval_grd(tree: GRDTree, votes: tuple[int, ...]) -> int:
    if isinstance(tree, int):
        return votes[tree]
    return sign(sum(eval_grd(child, votes) for child in tree))


def eval_coalition(family: tuple[frozenset[int], ...], votes: tuple[int, ...]) -> int:
    for x in (1, -1):
        for member in family:
            if all(votes[v] == x for v in member):
                return x
    return eval_majority(votes)


# Batch kernels take one block voter-major: row v holds voter v's vote in
# each profile, so every reduction over voters is elementwise across profiles.


def _majority(ballots: np.ndarray) -> np.ndarray:
    return np.sign(ballots.sum(axis=0, dtype=np.int32)).astype(np.int8)


def _longest_run(ballots: np.ndarray) -> np.ndarray:
    """Two laps round the ring. A block ends at voter v when the next voter
    round the ring votes differently. The first lap only carries the length
    of the block still open at voter n-1 round to voter 0; the second meets
    each block end once, with the block's full length, and keeps the longest
    nonzero length so far and the sign of its block (0 on a tie)."""
    n, m = ballots.shape
    # a row with no block end counts up to 2n over the two laps
    small = np.int8 if 2 * n <= np.iinfo(np.int8).max else np.int32
    ends = ballots != np.roll(ballots, -1, axis=0)
    # masks as 0/1 int8, so that multiplying by them needs no cast
    closes = (ends & (ballots != 0)).view(np.int8)
    keeps = (~ends).view(np.int8)
    run = np.zeros(m, dtype=small)
    for v in range(n):
        run += 1
        run *= keeps[v]
    best = np.zeros(m, dtype=small)
    winner = np.zeros(m, dtype=np.int8)
    for v in range(n):
        run += 1
        length = run * closes[v]
        # a block as long as the best makes a tie, a longer one the winner
        winner *= (length < best).view(np.int8)
        winner += (length > best).view(np.int8) * ballots[v]
        np.maximum(best, length, out=best)
        run *= keeps[v]
    # majority also decides a row with no block end: everyone votes ballots[0]
    return np.where(winner != 0, winner, _majority(ballots))


def _grd_sum(tree: GRDTree, ballots: np.ndarray) -> np.ndarray:
    if isinstance(tree, int):
        return ballots[tree].astype(np.int16)
    return np.sign(sum(_grd_sum(child, ballots) for child in tree))


def _coalition(family: Sequence[frozenset[int]], ballots: np.ndarray) -> np.ndarray:
    out = _majority(ballots)
    yes, no = ballots == 1, ballots == -1
    for member in family:
        rows = sorted(member)
        out[yes[rows].all(axis=0)] = 1
        out[no[rows].all(axis=0)] = -1
    return out


def _tree_to_json(tree: GRDTree):
    if isinstance(tree, int):
        return tree
    return [_tree_to_json(child) for child in tree]


def outcome(rule: VotingRule, votes: tuple[int, ...]) -> int:
    """Scalar outcome of one profile: the reference that each rule's
    vectorized kernel, `rule.batch`, is tested against."""
    return rule.scalar(votes)


def evaluate(rule: VotingRule, phi: VoteProfile) -> int:
    if phi.n != rule.n:
        raise ValueError("profile degree does not match rule degree")
    return outcome(rule, phi.votes)


def _require_scan(n: int) -> None:
    if n > PROFILE_SCAN_CAP:
        raise InfeasibleError(f"3^{n} profile scan exceeds cap n<={PROFILE_SCAN_CAP}")


def is_neutral(rule: VotingRule) -> bool:
    """f(-phi) == -f(phi) over every profile."""
    from .tables import outcome_table

    n = rule.n
    _require_scan(n)
    table = outcome_table(rule)
    return bool(np.array_equal(table[::-1], -table))


def is_symmetric(rule: VotingRule) -> bool:
    """The outcome depends only on the vote tally: it is invariant under
    every relabelling, so under the generators of the symmetric group."""
    from .tables import outcome_table, respects_table

    n = rule.n
    _require_scan(n)
    table = outcome_table(rule)
    return all(respects_table(table, n, g) for g in symmetric_generators(n))


def is_positively_responsive(rule: VotingRule) -> bool:
    """Raising one vote from an outcome in {0, +1} must force +1, and the
    mirrored lowering condition must force -1."""
    from .tables import outcome_table, voter_outcomes

    n = rule.n
    _require_scan(n)
    table = outcome_table(rule)
    for v in range(n):
        outcomes = voter_outcomes(table, n, v)
        below, above = outcomes[:-1], outcomes[1:]
        if np.any((below >= 0) & (above != 1)) or np.any((above <= 0) & (below != -1)):
            return False
    return True
