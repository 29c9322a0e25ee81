"""Finite permutations, and permutation groups given by their generators,
whose order, elements, n-cycles and k-transitivity come from one
stabilizer chain (Sims 1970; Holt, Eick and O'Brien, Handbook of CGT,
2005, section 4.4). Orbits, and so transitivity, come from the generators
alone."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ._numpy import np

# entries in the largest element list (order x degree) or chain: admits
# PGL(2,31) (952,320 entries) and a cyclic group on up to 1,024 points
MAX_GROUP_ENTRIES = 1 << 20


class ClosureOverflow(ValueError):
    """A group's chain or element list would exceed MAX_GROUP_ENTRIES."""


@dataclass(frozen=True)
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

    def __call__(self, i: int) -> int:
        return self.images[i]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def rotation(cls, n: int, shift: int = 1) -> "Permutation":
        """The cycle i -> i + shift mod n."""
        return cls(tuple((i + shift) % n for i in range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return cls(tuple(images))


def compose(g: Permutation, h: Permutation) -> Permutation:
    """g after h: the result maps i to g(h(i))."""
    if g.n != h.n:
        raise ValueError("degree mismatch")
    return Permutation(tuple(g.images[h.images[i]] for i in range(h.n)))


def inverse(p: Permutation) -> Permutation:
    images = [0] * p.n
    for i, img in enumerate(p.images):
        images[img] = i
    return Permutation(tuple(images))


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
    """Refuse a chain or element list before it is built."""
    if entries > MAX_GROUP_ENTRIES:
        raise ClosureOverflow(f"{what} needs over {MAX_GROUP_ENTRIES} entries")


@dataclass(frozen=True)
class PermGroup:
    """The permutation group of degree n that the generators generate.
    Its order, elements, n-cycles and k-transitivity for k >= 2 come from
    one stabilizer chain, built on first use."""

    n: int
    generators: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator degree mismatch")

    @functools.cached_property
    def _chain(self) -> dict[int, np.ndarray]:
        return _stabilizer_chain(self.n, self.generators)

    @property
    def order(self) -> int:
        return math.prod(map(len, self._chain.values()))

    @functools.cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted by images."""
        order = self.order
        check_group_entries(order * self.n, f"{order} elements of degree {self.n}")
        (rows,) = _element_blocks(self.n, self._chain.values(), order)
        points = list(range(self.n))  # every element shares these int objects
        return tuple(
            Permutation(tuple(map(points.__getitem__, row.tolist())))
            for row in rows[np.lexsort(rows.T[::-1])]
        )


def _stabilizer_chain(
    n: int, generators: Iterable[Permutation]
) -> dict[int, np.ndarray]:
    """The transversals of a stabilizer chain on the base 0..n-1, by
    deterministic Schreier-Sims, keyed by level in increasing order.
    Level i, kept when its orbit has more than one point, has one row per
    orbit point b: an element that fixes 0..i-1 and maps i to b, the
    identity first.

    The chain is built again, with one more strong generator, until every
    Schreier generator of every level sifts through the levels below.
    """
    identity = np.arange(n)

    def level(g: np.ndarray) -> int:
        moved = np.flatnonzero(g != identity)
        return int(moved[0]) if moved.size else n

    def sift(h: np.ndarray) -> Optional[np.ndarray]:
        while (i := level(h)) < n:
            u = reps.get(i, {}).get(int(h[i]))
            if u is None:
                return h
            h = np.argsort(u)[h]  # u^-1 after h fixes 0..i
        return None

    strong = [(level(g), g) for g in (np.array(p.images) for p in generators)]
    while True:
        reps: dict[int, dict[int, np.ndarray]] = {}
        for i in sorted({lv for lv, _ in strong if lv < n}):
            level_reps = reps[i] = {i: identity}
            frontier = [i]
            for x in frontier:  # breadth first: the list grows while it is read
                for lv, g in strong:
                    y = int(g[x])
                    if lv >= i and y not in level_reps:
                        entries = n * (1 + sum(map(len, reps.values())))
                        check_group_entries(entries, f"a chain of degree {n}")
                        level_reps[y] = g[level_reps[x]]
                        frontier.append(y)
        # u_{s(b)}^-1 s u_b fixes 0..i
        schreier = (
            np.argsort(level_reps[int(s[b])])[s[u]]
            for i, level_reps in reversed(reps.items())
            for b, u in level_reps.items()
            for lv, s in strong
            if lv >= i
        )
        residue = next((r for r in map(sift, schreier) if r is not None), None)
        if residue is None:
            return {i: np.array(list(r.values())) for i, r in reps.items()}
        strong.append((level(residue), residue))


def _element_blocks(
    n: int, chain: Iterable[np.ndarray], rows: int
) -> Iterator[np.ndarray]:
    """Every element once, as the products u_0 u_1 ... of one row per
    level, in blocks of at most `rows` rows (the deepest levels multiplied
    out, the others walked one product at a time)."""
    levels = list(chain)
    tail = np.arange(n)[None, :]
    while levels and len(tail) * len(levels[-1]) <= rows:
        tail = levels.pop()[:, tail].reshape(-1, n)  # u after each tail row
    for picks in itertools.product(*levels):
        yield functools.reduce(lambda g, h: g[h], picks, np.arange(n))[tail]


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
    """An element that is a single n-cycle, if the group has one. The
    chain's elements are walked block by block, whatever the order, unless
    the group is not transitive."""
    n = group.n
    if len(orbit(group, 0)) < n:
        return None
    for block in _element_blocks(n, group._chain.values(), MAX_GROUP_ENTRIES // n):
        # a row is an n-cycle iff its path from 0 first returns after n steps
        rows = np.arange(len(block))
        point = np.zeros(len(block), dtype=np.intp)
        cyclic = np.ones(len(block), dtype=bool)
        for _ in range(n - 1):
            point = block[rows, point]
            cyclic &= point != 0
        if cyclic.any():
            return Permutation(tuple(block[np.argmax(cyclic)].tolist()))
    return None


def iter_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of degree n in lexicographic order."""
    for images in itertools.permutations(range(n)):
        yield Permutation(images)
