"""Projective planes over prime fields and the induced matrix groups."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .perms import ClosureOverflow, PermGroup, Permutation
from .rules import CoalitionRule, make_coalition_rule

PGL3_DEFAULT_MAX_ORDER = 1000  # fits p=2 (order 168); larger p needs an explicit cap


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


def _det2(m: tuple[int, ...], p: int) -> int:
    a, b, c, d = m
    return (a * d - b * c) % p


def _det3(m: tuple[int, ...], p: int) -> int:
    a, b, c, d, e, f, g, h, i = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def _matrix_classes(p: int, dim: int) -> list[tuple[int, ...]]:
    """One invertible matrix per scalar class: first nonzero entry equals 1."""
    det = _det2 if dim == 2 else _det3
    out = []
    for m in itertools.product(range(p), repeat=dim * dim):
        first = next((x for x in m if x != 0), 0)
        if first != 1:
            continue
        if det(m, p) != 0:
            out.append(m)
    return out


def _apply_matrix(
    m: tuple[int, ...], vec: tuple[int, ...], p: int, dim: int
) -> tuple[int, ...]:
    return tuple(
        sum(m[r * dim + c] * vec[c] for c in range(dim)) % p for r in range(dim)
    )


@functools.lru_cache(maxsize=8)
def _induced_group(p: int, dim: int) -> PermGroup:
    """The matrix group's action on the points, built once per process."""
    pts = projective_points(p, dim=dim)
    index = {pt: i for i, pt in enumerate(pts)}
    perms = []
    for m in _matrix_classes(p, dim):
        images = [0] * len(pts)
        for i, pt in enumerate(pts):
            images[i] = index[_canonical(_apply_matrix(m, pt, p, dim), p)]
        perms.append(Permutation(tuple(images)))
    if len(set(perms)) != len(perms):
        raise AssertionError("matrix classes induced duplicate permutations")
    return PermGroup.from_elements(len(pts), perms)


def pgl2_order(p: int) -> int:
    return (p + 1) * p * (p - 1)


def pgl3_order(p: int) -> int:
    q = p**3
    return (q - 1) * (q - p) * (q - p * p) // (p - 1)


def pgl2_elements(p: int) -> PermGroup:
    """Fractional-linear action on the p+1 points of the projective line."""
    _require_prime(p)
    group = _induced_group(p, dim=2)
    if group.order != pgl2_order(p):
        raise AssertionError("projective line group order mismatch")
    return group


def pgl3_elements(p: int, max_order: int = PGL3_DEFAULT_MAX_ORDER) -> PermGroup:
    """Matrix action on the plane's points; refuses orders above max_order."""
    _require_prime(p)
    expected = pgl3_order(p)
    if expected > max_order:
        raise ClosureOverflow(
            f"group order {expected} exceeds max_order {max_order}"
        )
    group = _induced_group(p, dim=3)
    if group.order != expected:
        raise AssertionError("plane group order mismatch")
    return group
