"""Projective planes over prime fields and the induced matrix groups."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .perms import ClosureOverflow, PermGroup, Permutation
from .rules import CoalitionRule, make_coalition_rule

# order x degree of the largest induced group built: admits PGL(2,p) up to
# p = 31 (952,320 entries) and PGL(3,3) (73,008), refuses PGL(3,5)
MAX_GROUP_ENTRIES = 1 << 20


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _canonical(vec: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1."""
    for x in vec:
        if x % p != 0:
            scale = pow(x, p - 2, p)
            return tuple((scale * y) % p for y in vec)
    raise ValueError("zero vector has no projective class")


def projective_points(p: int, dim: int = 3) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives, lexicographically ordered."""
    _require_prime(p)
    pts = []
    for vec in itertools.product(range(p), repeat=dim):
        if any(vec) and _canonical(vec, p) == vec:
            pts.append(vec)
    return tuple(pts)


def projective_lines(p: int) -> tuple[frozenset[int], ...]:
    """Lines of the order-p plane as index sets into projective_points(p)."""
    pts = projective_points(p)
    index = {pt: i for i, pt in enumerate(pts)}
    lines = []
    for coeff in pts:
        members = frozenset(
            index[x] for x in pts if sum(a * b for a, b in zip(coeff, x)) % p == 0
        )
        lines.append(members)
    return tuple(lines)


@dataclass(frozen=True)
class ProjectivePlane:
    p: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[frozenset[int], ...]


def projective_plane(p: int) -> ProjectivePlane:
    pts = projective_points(p)
    lines = projective_lines(p)
    expected = p * p + p + 1
    if len(pts) != expected or len(lines) != expected:
        raise AssertionError("plane construction size mismatch")
    return ProjectivePlane(p=p, points=pts, lines=lines)


def build_projective_rule(p: int) -> CoalitionRule:
    """Coalition rule whose family is the lines of the order-p plane."""
    plane = projective_plane(p)
    return make_coalition_rule(
        n=len(plane.points),
        members=plane.lines,
        provenance={"kind": "projective_plane", "p": p},
    )


def _matrix_classes(p: int, dim: int) -> np.ndarray:
    """One invertible matrix per scalar class, int64 of shape (m, dim, dim).

    Each candidate is built directly with its first nonzero entry 1: zeros
    before that entry, every base-p tail after it, (p^k - 1)/(p - 1)
    candidates for k = dim^2 entries. The determinant mod p is exact
    integer arithmetic.
    """
    k = dim * dim
    blocks = []
    for lead in range(k):
        tail = k - 1 - lead
        codes = np.arange(p**tail, dtype=np.int64)
        block = np.zeros((codes.size, k), dtype=np.int64)
        block[:, lead] = 1
        for j in range(tail):
            block[:, k - 1 - j] = (codes // p**j) % p
        blocks.append(block)
    m = np.concatenate(blocks)
    if dim == 2:
        a, b, c, d = m.T
        det = a * d - b * c
    else:
        a, b, c, d, e, f, g, h, i = m.T
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return m[det % p != 0].reshape(-1, dim, dim)


def _primitive_root(p: int) -> int:
    """The smallest generator of the multiplicative group mod p."""
    return next(
        r for r in range(1, p) if len({pow(r, e, p) for e in range(p - 1)}) == p - 1
    )


def _generator_matrices(p: int, dim: int) -> np.ndarray:
    """diag(r, 1, ...) for a primitive root r, and every elementary
    transvection I + E_ij: the transvections generate SL(dim, p) and the
    dilation adds every determinant, so together they generate GL(dim, p)."""
    mats = np.tile(np.eye(dim, dtype=np.int64), (1 + dim * (dim - 1), 1, 1))
    mats[0, 0, 0] = _primitive_root(p)
    for m, (i, j) in enumerate(itertools.permutations(range(dim), 2), start=1):
        mats[m, i, j] = 1
    return mats


@functools.lru_cache(maxsize=8)
def _induced_group(p: int, dim: int) -> PermGroup:
    """The matrix group's action on the points, built once per process:
    every element, sorted by images, and a generating set of 1 + dim(dim-1)
    elements.

    A group whose order times degree exceeds MAX_GROUP_ENTRIES is refused
    before the primality test and before any allocation.
    """
    order = pgl2_order(p) if dim == 2 else pgl3_order(p)
    degree = sum(p**i for i in range(dim))
    if order * degree > MAX_GROUP_ENTRIES:
        raise ClosureOverflow(
            f"PGL({dim},{p}) has {order} elements of degree {degree}; "
            f"order x degree is limited to {MAX_GROUP_ENTRIES}"
        )
    pts = np.array(projective_points(p, dim=dim), dtype=np.int64)
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    # every nonzero multiple s*pt of a point, by its base-p code, names pt
    lookup = np.empty(p**dim, dtype=np.int64)
    scalars = np.arange(1, p, dtype=np.int64)[:, None, None]
    lookup[(scalars * pts % p) @ weights] = np.arange(len(pts))

    def action(mats: np.ndarray) -> list[Permutation]:
        images = lookup[(np.einsum("mrc,qc->mqr", mats, pts) % p) @ weights]
        return [Permutation(tuple(row)) for row in images.tolist()]

    perms = action(_matrix_classes(p, dim))
    if len(set(perms)) != order:
        raise AssertionError(f"PGL({dim},{p}) induced {len(set(perms))} elements")
    elements = tuple(sorted(perms, key=lambda g: g.images))
    gens = tuple(action(_generator_matrices(p, dim)))
    return PermGroup(n=len(pts), generators=gens, elements=elements)


def pgl2_order(p: int) -> int:
    return (p + 1) * p * (p - 1)


def pgl3_order(p: int) -> int:
    return p**3 * (p**2 - 1) * (p**3 - 1)


def pgl2_elements(p: int) -> PermGroup:
    """Fractional-linear action on the p+1 points of the projective line."""
    return _induced_group(p, dim=2)


def pgl3_elements(p: int) -> PermGroup:
    """Matrix action on the p^2+p+1 points of the projective plane."""
    return _induced_group(p, dim=3)
