"""Breadth-first walks under a generator set: the product closure, the
reference for the stabilizer chain's order, elements and n-cycles, and the
orbit of an ordered k-tuple, the reference for its k-transitivity. Also
every permutation of a degree, the reference for a full symmetric group,
and a group's elements as sorted `Permutation`s."""

import itertools
import math

from equivote.perms import Permutation


def iter_permutations(n):
    """All n! permutations of degree n in lexicographic order."""
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def listing(group):
    """Every element of the group as a `Permutation`, sorted by images."""
    return tuple(map(Permutation, sorted(group.walk())))


def bfs_closure(n, generators):
    """Every element the generators generate, identity included, as image
    tuples sorted lexicographically."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                c = tuple(a[x] for x in g.images)  # a after g
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return sorted(seen)


def tuple_orbit_is_full(n, generators, k):
    """Whether the orbit of (0..k-1) under the generators holds every
    ordered k-tuple of distinct points."""
    start = tuple(range(k))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for tup in frontier:
            for g in generators:
                img = tuple(g.images[x] for x in tup)
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
    return len(seen) == math.perm(n, k)
