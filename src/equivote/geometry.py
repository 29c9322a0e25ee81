"""Projective planes over prime fields and the induced matrix groups."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from ._numpy import np
from .perms import PermGroup, Permutation, check_group_entries
from .rules import CoalitionRule, make_coalition_rule


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
    """The matrix group's action on the points, built once per process
    from the action of 1 + dim(dim-1) generating matrices; its chain must
    give the group's known order, so the action is faithful.

    A group whose order times degree exceeds MAX_GROUP_ENTRIES is refused
    before the primality test and before any allocation.
    """
    order = pgl2_order(p) if dim == 2 else pgl3_order(p)
    degree = sum(p**i for i in range(dim))
    what = f"PGL({dim},{p}) of order {order} on {degree} points"
    check_group_entries(order * degree, what)
    pts = np.array(projective_points(p, dim=dim), dtype=np.int64)
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    # every nonzero multiple s*pt of a point, by its base-p code, names pt
    lookup = np.empty(p**dim, dtype=np.int64)
    scalars = np.arange(1, p, dtype=np.int64)[:, None, None]
    lookup[(scalars * pts % p) @ weights] = np.arange(len(pts))
    vectors = np.einsum("mrc,qc->mqr", _generator_matrices(p, dim), pts)
    images = lookup[(vectors % p) @ weights]
    gens = tuple(Permutation(tuple(row)) for row in images.tolist())
    group = PermGroup(len(pts), gens)
    if group.order != order:
        raise AssertionError(f"PGL({dim},{p}) induced {group.order} elements")
    return group


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
