"""Projective planes over prime fields and the induced matrix groups."""

from __future__ import annotations

import functools
import itertools
import operator

from ._record import record
from .limits import MAX_DEGREE, refuse_above
from .perms import PermGroup, Permutation, check_group_entries
from .rules import CoalitionRule, make_coalition_rule

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Miller-Rabin over the prime bases up to 41, which no composite below
    3.3 * 10^24 passes (Sorenson and Webster 2015), so exact there."""
    if p < 2 or p in _BASES:
        return p in _BASES
    if any(p % b == 0 for b in _BASES):
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in _BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):  # p is prime only if some b^(d 2^r) is -1
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
    """Canonical representatives in lexicographic order: k free coordinates
    after the leading 1, fewest first."""
    _require_prime(p)
    count = sum(p**i for i in range(dim))
    refuse_above(count, MAX_DEGREE, f"PG({dim - 1},{p}) has {count} points")
    return tuple(
        (0,) * (dim - 1 - k) + (1,) + rest
        for k in range(dim)
        for rest in itertools.product(range(p), repeat=k)
    )


def projective_lines(p: int) -> tuple[tuple[int, ...], ...]:
    """Lines of the order-p plane as increasing index tuples into
    projective_points(p): line i holds the points orthogonal to point i."""
    return projective_plane(p).lines


@record
class ProjectivePlane:
    p: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, ...], ...]


def projective_plane(p: int) -> ProjectivePlane:
    """Line i, the points orthogonal to point i = c, is spanned by
    e_j - c_j e_a for the two j other than the position a of c's leading
    1, so its points are b1 and b2 + t b1 for t in F_p."""
    pts = projective_points(p)
    index = {pt: i for i, pt in enumerate(pts)}
    lines = []
    for c in pts:
        a = c.index(1)
        b1, b2 = (
            tuple((i == j) - (i == a) * c[j] for i in range(3)) for j in range(3) if j != a
        )
        span = [b1, *(tuple(y + t * x for x, y in zip(b1, b2)) for t in range(p))]
        lines.append(tuple(sorted(index[_canonical(v, p)] for v in span)))
    expected = p * p + p + 1
    if len(pts) != expected or len(lines) != expected:
        raise AssertionError("plane construction size mismatch")
    return ProjectivePlane(p=p, points=pts, lines=tuple(lines))


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
