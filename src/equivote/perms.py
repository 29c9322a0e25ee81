"""Finite permutations and permutation groups via breadth-first closure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

DEFAULT_MAX_ORDER = 10080  # 2 * 7!


class ClosureOverflow(ValueError):
    """Closure enumeration exceeded the allowed group order."""


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


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators, optionally fully enumerated."""

    n: int
    generators: tuple[Permutation, ...]
    elements: Optional[tuple[Permutation, ...]] = None

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator degree mismatch")
        if self.elements is not None:
            for g in self.elements:
                if g.n != self.n:
                    raise ValueError("element degree mismatch")

    @property
    def order(self) -> Optional[int]:
        return None if self.elements is None else len(self.elements)

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[Permutation]) -> "PermGroup":
        els = tuple(sorted(set(elements), key=lambda p: p.images))
        return cls(n=n, generators=els, elements=els)

    def generating_set(self) -> tuple[Permutation, ...]:
        if self.generators:
            return self.generators
        if self.elements:
            return self.elements
        return (Permutation.identity(self.n),)


def generate_closure(
    n: int,
    generators: Iterable[Permutation],
    max_order: int = DEFAULT_MAX_ORDER,
) -> PermGroup:
    """BFS product closure of the generators, identity always included."""
    gens = tuple(generators)
    for g in gens:
        if g.n != n:
            raise ValueError("generator degree mismatch")
    seen: set[Permutation] = {Permutation.identity(n)}
    seen.update(gens)
    if len(seen) > max_order:
        raise ClosureOverflow(f"order exceeds {max_order}")
    frontier = list(seen)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
                    if len(seen) > max_order:
                        raise ClosureOverflow(f"order exceeds {max_order}")
        frontier = fresh
    elements = tuple(sorted(seen, key=lambda p: p.images))
    return PermGroup(n=n, generators=gens or elements, elements=elements)


def symmetric_generators(n: int) -> tuple[Permutation, ...]:
    """Transposition plus full cycle; generates all n! permutations."""
    if n < 2:
        return (Permutation.identity(n),)
    return (Permutation.transposition(n, 0, 1), Permutation.rotation(n))


def orbit(group: PermGroup, point: int) -> frozenset[int]:
    """Points reachable from point under the group's generators."""
    if not 0 <= point < group.n:
        raise ValueError("point out of range")
    gens = group.generating_set()
    seen = {point}
    frontier = [point]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = g.images[x]
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(seen)


def is_k_transitive(group: PermGroup, k: int) -> bool:
    """Whether ordered k-tuples of distinct points form a single orbit; the
    orbit under the generators is the orbit under the group."""
    if not 1 <= k <= group.n:
        raise ValueError("k out of range")
    target = 1
    for i in range(k):
        target *= group.n - i
    gens = group.generating_set()
    start = tuple(range(k))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for tup in frontier:
            for g in gens:
                img = tuple(g.images[x] for x in tup)
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
        if len(seen) == target:
            return True
    return len(seen) == target


def find_n_cycle(group: PermGroup) -> Optional[Permutation]:
    """An element that is a single n-cycle, if the enumerated group has one."""
    if group.elements is None:
        raise ValueError("n-cycle search requires an enumerated group")
    for g in group.elements:
        if cycle_lengths(g) == (group.n,):
            return g
    return None


def iter_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of degree n in lexicographic order."""
    import itertools

    for images in itertools.permutations(range(n)):
        yield Permutation(images)
