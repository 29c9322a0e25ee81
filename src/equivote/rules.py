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

import math
import operator
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Union

from ._numpy import np
from ._record import record
from .perms import PermGroup, Permutation, compose, symmetric_generators
from .profiles import VoteProfile
from .tables import outcome_table, respects_table, voter_outcomes

GRDTree = Union[int, tuple]
Family = tuple[tuple[int, ...], ...]  # members as `canonical_family` builds them

PROFILE_SCAN_CAP = 12  # 3^n table scans refused above this degree
FAMILY_WINDOW = 1 << 12  # members the intersection check holds voter masks for
# voters listed over all members of a CCC or a coalition document; CCC(100,
# 100) has 1,990,000
CCC_MAX_ENTRIES = 1 << 21
# members of a coalition document, whose intersection check is quadratic in
# them; above the 40,000 of the largest document a test or CI builds
FAMILY_MAX_MEMBERS = 1 << 16
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
    can never both fire, and in `canonical_family`'s form. `grid` is set
    only by `CCC`: a rows x cols grid rule has rows * cols voters and
    exactly `ccc_family(rows, cols)`, checked here once, so every reader may
    trust `grid`. Equality and hashing ignore `provenance` and `grid`, so a
    CCC and the coalition document of its family are one key to a cache.
    """

    n: int
    family: Family
    provenance: Optional[dict] = None
    grid: Optional[tuple[int, int]] = None

    monotone = True

    def __post_init__(self) -> None:
        if not self.family:
            raise ValueError("family must be nonempty")
        if self.grid is not None:
            rows, cols = self.grid
            if self.n != rows * cols or self.family != ccc_family(rows, cols):
                raise ValueError(f"n and family are not the {rows} x {cols} grid's")
            return  # row i + column j meets row k + column l in cell (i, l)
        members = self.family
        last: tuple = (0, ())  # the (size, voters) key of the member before
        for m in members:
            if not m:
                raise ValueError("family members must be nonempty")
            key = (len(m), m)
            if type(m) is not tuple or key <= last or any(map(operator.ge, m, m[1:])):
                raise ValueError(f"family is not in canonical form at member {list(m)}")
            if m[0] < 0 or m[-1] >= self.n:
                raise ValueError("family member out of range")
            last = key
        if set(members[0]).intersection(*members[1:]):
            return  # every member holds a common voter
        # Bit j of voter v's mask is set when member lo + j holds v, in
        # windows of FAMILY_WINDOW members that bound each mask. The first
        # member whose voters' masks miss a bit, and its lowest miss, are the
        # first disjoint pair in `itertools.combinations` order, so a later
        # window need only check the members before it.
        first = len(members)
        for lo in range(0, len(members), FAMILY_WINDOW):
            masks = [0] * self.n
            for j, m in enumerate(members[lo : lo + FAMILY_WINDOW]):
                for v in m:
                    masks[v] |= 1 << j
            full = (1 << min(FAMILY_WINDOW, len(members) - lo)) - 1
            for i in range(first):
                met = 0
                for v in members[i]:
                    met |= masks[v]
                if met != full:
                    missed = full & ~met
                    first, miss = i, lo + (missed & -missed).bit_length() - 1
                    break
        if first < len(members):
            a, b = list(members[first]), list(members[miss])
            raise ValueError(f"family members {a} and {b} are disjoint")

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
            "family": [list(member) for member in self.family],
        }
        if self.provenance is not None:
            doc["provenance"] = self.provenance
        return doc

    def certificate(self) -> Optional[EquityCertificate]:
        if self.grid is None:
            return None  # a coalition document's provenance is only a hint
        return grid_certificate(*self.grid)

    @property
    def label(self) -> str:
        if self.grid is not None:
            return "ccc{}x{}".format(*self.grid)
        prov = self.provenance or {}
        p = prov.get("p")
        if prov.get("kind") == "projective_plane" and type(p) is int:
            return f"projective_p{p}"  # provenance is only a hint
        return f"coalition{self.n}"


VotingRule = Union[Majority, LongestRun, Dictatorship, GRD, CoalitionRule]


def canonical_family(family: Iterable[Iterable[int]]) -> Family:
    """Distinct members as increasing voter tuples, by size, then by voters."""
    members = {tuple(sorted(set(m))) for m in family}
    return tuple(sorted(members, key=lambda t: (len(t), t)))


def make_coalition_rule(
    n: int, family: Iterable[Iterable[int]], provenance: Optional[dict] = None
) -> CoalitionRule:
    """Canonicalize (dedupe, sort) and validate a coalition family."""
    return CoalitionRule(n=n, family=canonical_family(family), provenance=provenance)


def preserves_family(family: Family, perms: Iterable[Permutation]) -> bool:
    """Whether each perm maps every member onto a member, in canonical form."""
    held = set(family)
    return all(
        tuple(sorted([p.images[v] for v in m])) in held for p in perms for m in family
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
    level: list[GRDTree] = list(range(leaves))
    for b in reversed(branching):  # group consecutive nodes, deepest level first
        level = [tuple(level[i : i + b]) for i in range(0, len(level), b)]
    return level[0]


def uniform_grd(branching: Iterable[int]) -> GRD:
    return GRD(tree=uniform_tree(tuple(branching)))


@lru_cache(maxsize=1)
def ccc_family(rows: int, cols: int) -> Family:
    cells = list(range(rows * cols))  # one int per voter, shared by the members
    return canonical_family(
        cells[i * cols : (i + 1) * cols] + cells[j::cols]
        for i in range(rows) for j in range(cols)
    )


@lru_cache(maxsize=64)
def grid_certificate(rows: int, cols: int) -> EquityCertificate:
    """The row and column shifts of a rows x cols voter grid, with their
    product when it is an n-cycle; built once per grid, so that a check
    can tell this certificate from any other by identity."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    row_shift = Permutation(tuple((i + 1) % rows * cols + j for i, j in cells))
    col_shift = Permutation(tuple(i * cols + (j + 1) % cols for i, j in cells))
    cycle = None
    if math.gcd(rows, cols) == 1:
        # the diagonal shift is one n-cycle (Chinese remainder theorem)
        cycle = compose(row_shift, col_shift)
    group = PermGroup(rows * cols, (row_shift, col_shift))
    return EquityCertificate(group, "grid_shifts", cycle=cycle)


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
    # the leaves in odometer order: the top level's digit varies fastest
    seq = [0]
    inner = n
    for b in branching:
        inner //= b
        seq = [x + d * inner for d in range(b) for x in seq]
    images = [0] * n
    for leaf, after in zip(seq, seq[1:] + seq[:1]):
        images[leaf] = after
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


def eval_coalition(family: Family, votes: tuple[int, ...]) -> int:
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


def _coalition(family: Family, ballots: np.ndarray) -> np.ndarray:
    out = _majority(ballots)
    yes, no = ballots == 1, ballots == -1
    for member in family:
        rows = list(member)  # a tuple would index one axis per voter
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
    n = rule.n
    _require_scan(n)
    table = outcome_table(rule)
    return bool(np.array_equal(table[::-1], -table))


def is_symmetric(rule: VotingRule) -> bool:
    """The outcome depends only on the vote tally: it is invariant under
    every relabelling, so under the generators of the symmetric group."""
    n = rule.n
    _require_scan(n)
    table = outcome_table(rule)
    return all(respects_table(table, n, g) for g in symmetric_generators(n))


def is_positively_responsive(rule: VotingRule) -> bool:
    """Raising one vote from an outcome in {0, +1} must force +1, and the
    mirrored lowering condition must force -1."""
    n = rule.n
    _require_scan(n)
    table = outcome_table(rule)
    for v in range(n):
        outcomes = voter_outcomes(table, n, v)
        below, above = outcomes[:-1], outcomes[1:]
        if np.any((below >= 0) & (above != 1)) or np.any((above <= 0) & (below != -1)):
            return False
    return True
