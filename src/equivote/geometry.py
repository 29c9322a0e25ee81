"""Projective planes over prime fields and the induced matrix groups."""

from __future__ import annotations

import functools
import itertools
import operator

from ._record import record
from .perms import PermGroup, Permutation, check_group_entries
from .rules import MAX_DEGREE, CoalitionRule, make_coalition_rule


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
    """Canonical representatives in lexicographic order, refused above MAX_DEGREE."""
    _require_prime(p)
    if (count := sum(p**i for i in range(dim))) > MAX_DEGREE:
        raise ValueError(
            f"PG({dim - 1},{p}) has {count} points, above the limit of {MAX_DEGREE}"
        )
    pts = []
    for vec in itertools.product(range(p), repeat=dim):
        if any(vec) and _canonical(vec, p) == vec:
            pts.append(vec)
    return tuple(pts)


def projective_lines(p: int) -> tuple[tuple[int, ...], ...]:
    """Lines of the order-p plane as increasing index tuples into
    projective_points(p): line i holds the points orthogonal to point i."""
    pts = projective_points(p)
    return tuple(
        tuple(i for i, x in enumerate(pts) if not sum(map(operator.mul, c, x)) % p)
        for c in pts
    )


@record
class ProjectivePlane:
    p: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, ...], ...]


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
        family=plane.lines,
        provenance={"kind": "projective_plane", "p": p},
    )


def _primitive_root(p: int) -> int:
    """The smallest generator of the multiplicative group mod p."""
    return next(
        r for r in range(1, p) if len({pow(r, e, p) for e in range(p - 1)}) == p - 1
    )


def _generator_matrices(p: int, dim: int) -> list[list[list[int]]]:
    """diag(r, 1, ...) for a primitive root r, and every elementary
    transvection I + E_ij: the transvections generate SL(dim, p) and the
    dilation adds every determinant, so together they generate GL(dim, p)."""
    root = _primitive_root(p)
    mats = []
    for i, j in [(0, 0), *itertools.permutations(range(dim), 2)]:
        mat = [[int(r == c) for c in range(dim)] for r in range(dim)]
        mat[i][j] = root if i == j else 1
        mats.append(mat)
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
    pts = projective_points(p, dim=dim)
    index = {pt: i for i, pt in enumerate(pts)}
    gens = []
    for mat in _generator_matrices(p, dim):
        # mat sends each point to the class of its matrix-vector product
        vectors = (tuple(sum(map(operator.mul, row, pt)) for row in mat) for pt in pts)
        gens.append(Permutation(tuple(index[_canonical(v, p)] for v in vectors)))
    group = PermGroup(len(pts), tuple(gens))
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
