"""Finite permutations, and permutation groups given by their generators,
whose order, elements, membership, n-cycles and k-transitivity come from
one stabilizer chain (Sims 1970; Holt, Eick and O'Brien, Handbook of CGT,
2005, section 4.4). Orbits, and so transitivity, come from the generators
alone.

The chain and its elements are tuples of images, composed with
`operator.itemgetter`, so no group work loads numpy. One lazy walk over the
chain yields the elements, and the n-cycle search prunes it; one sift builds
the chain and tests membership (Seress, Permutation Group Algorithms, 3.1)."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Optional

from ._record import record
from .limits import MAX_GROUP_ENTRIES

Images = tuple[int, ...]
Chain = dict[int, dict[int, Images]]  # level i -> orbit point b -> row u_b


class ClosureOverflow(ValueError):
    """A group's chain or walk would exceed MAX_GROUP_ENTRIES."""


@record
class Permutation:
    """A bijection on {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("not a permutation")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def rotation(cls, n: int) -> "Permutation":
        """The cycle i -> i + 1 mod n."""
        return cls(tuple((i + 1) % n for i in range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return cls(tuple(images))


def compose(g: Permutation, h: Permutation) -> Permutation:
    """g after h: the result maps i to g(h(i))."""
    if g.n != h.n:
        raise ValueError("degree mismatch")
    return Permutation(_after(g.images, h.images))


def cycle_lengths(p: Permutation) -> tuple[int, ...]:
    """Sorted lengths of the cycles of p."""
    seen = [False] * p.n
    lengths = []
    for i in range(p.n):
        if seen[i]:
            continue
        size = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p.images[j]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths))


def check_group_entries(entries: int, what: str) -> None:
    """Refuse a chain or walk before it is built."""
    if entries > MAX_GROUP_ENTRIES:
        raise ClosureOverflow(f"{what} needs over {MAX_GROUP_ENTRIES} entries")


@record
class PermGroup:
    """The permutation group of degree n that the generators generate.
    Its order, elements, membership, n-cycles and k-transitivity for k >= 2
    come from one stabilizer chain, built on first use."""

    n: int
    generators: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator degree mismatch")

    @functools.cached_property
    def _chain(self) -> Chain:
        return _stabilizer_chain(self.n, self.generators)

    @property
    def order(self) -> int:
        return math.prod(map(len, self._chain.values()))

    elements = order  # the count bench/trace_boot.py reads off generate_closure

    def __contains__(self, images: Images) -> bool:
        """Whether the permutation with these images sifts through the chain."""
        identity = tuple(range(self.n))
        return len(images) == self.n and _sift(self._chain, identity, images) is None

    def walk(self) -> Iterator[Images]:
        """Every element once, lazily: the products u_0 u_1 ... of one
        transversal row per level, the rows of the deepest level varying
        fastest. The identity comes first, since each level's first row is
        the identity. Refused by order x degree before any is built."""
        order = self.order
        check_group_entries(order * self.n, f"{order} elements of degree {self.n}")
        elements: Iterator[Images] = iter([tuple(range(self.n))])
        for level in self._chain.values():
            elements = _times(elements, level)
        return elements


def _after(g: Images, h: Images) -> Images:
    """g after h: the images g[h[0]], g[h[1]], ...; itemgetter returns a
    bare item, not a tuple, for a single index."""
    return operator.itemgetter(*h)(g) if len(h) > 1 else tuple(g[x] for x in h)


def _times(prefixes: Iterator[Images], level: dict[int, Images]) -> Iterator[Images]:
    """Each prefix after each row of the level, the rows varying fastest."""
    for g in prefixes:
        for u in level.values():
            yield _after(g, u)


def _moved(g: Images, identity: Images) -> int:
    """The first point g moves; len(g) when g is the identity."""
    if g == identity:
        return len(g)
    return next(itertools.compress(itertools.count(), map(operator.ne, g, identity)))


def _sift(chain: Chain, identity: Images, g: Images) -> Optional[Images]:
    """None when g is in the group, else a residue that is not: while the
    first point i that g moves has a row u mapping i to g^-1(i) (past i), g
    becomes g after u, fixing 0..i. This sifts g^-1, so it inverts nothing."""
    while (i := _moved(g, identity)) in chain and (u := chain[i].get(g.index(i, i))):
        g = _after(g, u)
    return None if i == len(g) else g


def _stabilizer_chain(n: int, generators: Iterable[Permutation]) -> Chain:
    """The transversals of a stabilizer chain on the base 0..n-1, by
    deterministic Schreier-Sims. Level i, kept when its orbit has more than
    one point, has one row per orbit point b: an element that fixes 0..i-1
    and maps i to b, the identity first.

    The chain is built again, with one more strong generator, until every
    Schreier generator of every level sifts through the levels below; the
    rows' inverses are kept beside them until then."""
    identity = tuple(range(n))

    def invert(g: Images) -> Images:
        return tuple(sorted(identity, key=g.__getitem__))

    def schreier() -> Iterator[Images]:
        """The inverse u_b^-1 s^-1 u_{s(b)} of each Schreier generator,
        which fixes 0..i, for each level i, orbit point b and strong
        generator s that fixes 0..i-1, deepest level first. One that is the
        identity, because s u_b is u_{s(b)}, sifts through and is skipped."""
        for i, level in reversed(chain.items()):
            for b, u in level.items():
                for lv, s, s_inv in strong:
                    if lv >= i and (m := _after(s_inv, level[s[b]])) != u:
                        yield _after(inverses[i][b], m)

    images = (_after(identity, p.images) for p in generators)
    strong = [(_moved(g, identity), g, invert(g)) for g in images]
    while True:
        chain: Chain = {}
        inverses: Chain = {}
        rows = 0
        for i in sorted({lv for lv, _, _ in strong if lv < n}):
            level = chain[i] = {i: identity}
            level_inv = inverses[i] = {i: identity}
            rows += 1
            frontier = [i]
            for x in frontier:  # breadth first: the list grows while it is read
                u, u_inv = level[x], level_inv[x]
                for lv, g, g_inv in strong:
                    y = g[x]
                    if lv >= i and y not in level:
                        check_group_entries(n * (rows + 1), f"a chain of degree {n}")
                        rows += 1
                        level[y] = _after(g, u)
                        level_inv[y] = _after(u_inv, g_inv)
                        frontier.append(y)
        sifted = map(functools.partial(_sift, chain, identity), schreier())
        residue = next((r for r in sifted if r is not None), None)
        if residue is None:
            return chain
        strong.append((_moved(residue, identity), invert(residue), residue))


def generate_closure(n: int, generators: Iterable[Permutation]) -> PermGroup:
    """The group the generators generate, its chain built (or refused) now."""
    group = PermGroup(n=n, generators=tuple(generators))
    group.order  # builds the chain
    return group


def symmetric_generators(n: int) -> tuple[Permutation, ...]:
    """Transposition plus full cycle; generates all n! permutations."""
    if n < 2:
        return (Permutation.identity(n),)
    return (Permutation.transposition(n, 0, 1), Permutation.rotation(n))


def orbit(group: PermGroup, point: int) -> frozenset[int]:
    """Points reachable from point under the group's generators."""
    if not 0 <= point < group.n:
        raise ValueError("point out of range")
    seen = {point}
    frontier = [point]
    while frontier:
        fresh = []
        for x in frontier:
            for g in group.generators:
                y = g.images[x]
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(seen)


def transitivity(group: PermGroup) -> int:
    """The largest k for which ordered k-tuples of distinct points form a
    single orbit, 0 when the group is not transitive: 1 plus the number of
    leading chain levels i = 1, 2, ... whose orbit has n-i points, since
    level i holds the stabilizer of 0..i-1 acting on i (a level the chain
    omits has one point)."""
    n = group.n
    if len(orbit(group, 0)) < n:
        return 0
    sizes = {i: len(level) for i, level in group._chain.items()}
    t = 1
    while t < n and sizes.get(t, 1) == n - t:
        t += 1
    return t


def is_k_transitive(group: PermGroup, k: int) -> bool:
    """Whether ordered k-tuples of distinct points form a single orbit.
    k = 1 reads the generators alone; k >= 2 reads the chain."""
    if not 1 <= k <= group.n:
        raise ValueError("k out of range")
    if k == 1:
        return len(orbit(group, 0)) == group.n
    return transitivity(group) >= k


def find_n_cycle(group: PermGroup) -> Optional[Permutation]:
    """An element that is a single n-cycle, if the group has one: the first
    in walk order, whatever the group's order, unless the group is not
    transitive.

    The walk is pruned. A row of level j fixes the points 0..j-1, so every
    extension of a product of rows down to level i agrees with it on the
    points below the next level (all n points past the last level). A
    product whose path from 0 comes back to 0 among those points in fewer
    than n steps has no n-cycle among its extensions, and past the last
    level only the n-cycles are kept."""
    n = group.n
    if len(orbit(group, 0)) < n:
        return None
    elements: Iterator[Images] = iter([tuple(range(n))])
    bounds = (*tuple(group._chain)[1:], n)
    for level, bound in zip(group._chain.values(), bounds):
        may_close_late = functools.partial(_may_close_late, bound)
        elements = filter(may_close_late, _times(elements, level))
    return next(map(Permutation, elements), None)


def _may_close_late(bound: int, g: Images) -> bool:
    """False when g's path from 0 returns to 0 within the points
    0..bound-1 in fewer than len(g) steps."""
    point, steps = g[0], 1
    while 0 < point < bound:
        point, steps = g[point], steps + 1
    return point != 0 or steps == len(g)
