import hashlib
import itertools
import math
import operator
import time

import pytest
from closure_oracle import bfs_closure, listing

from equivote.geometry import (
    ProjectivePlane,
    build_projective_rule,
    is_prime,
    pgl2_elements,
    pgl2_order,
    pgl3_elements,
    pgl3_order,
    projective_lines,
    projective_plane,
    projective_points,
)
from equivote.perms import MAX_GROUP_ENTRIES, ClosureOverflow, is_k_transitive
from equivote.rules import CoalitionRule


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert all(is_prime(p) == _trial_division(p) for p in range(10**5))
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7; and 2 to 23
    strong = [2047, 1373653, 25326001, 3215031751, 3825123056546413051]
    assert not any(map(is_prime, strong))
    assert is_prime(10**18 + 3) and is_prime(100000000000031)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        projective_points(6)
    with pytest.raises(ValueError):
        pgl2_elements(1)


def test_projective_points_frozen():
    assert projective_points(2) == (
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    )


def test_projective_points_canonical():
    for p in (2, 3, 5):
        pts = projective_points(p)
        assert len(pts) == p * p + p + 1
        assert list(pts) == sorted(pts)
        for pt in pts:
            first = next(x for x in pt if x != 0)
            assert first == 1
        # no two representatives lie on a common line through the origin
        for a, b in itertools.combinations(pts, 2):
            scalars = {
                tuple((s * x) % p for x in a) for s in range(1, p)
            }
            assert b not in scalars


def test_fano_lines_frozen():
    plane = projective_plane(2)
    assert sorted(sorted(line) for line in plane.lines) == [
        [0, 1, 2],
        [0, 3, 4],
        [0, 5, 6],
        [1, 3, 5],
        [1, 4, 6],
        [2, 3, 6],
        [2, 4, 5],
    ]


def test_lines_are_the_points_orthogonal_to_each_point():
    for p in (2, 3, 5, 7, 11, 13):
        pts = projective_points(p)
        assert projective_lines(p) == tuple(
            tuple(i for i, x in enumerate(pts) if not sum(map(operator.mul, c, x)) % p)
            for c in pts
        )


def test_incidence_axioms():
    # The axioms pin the structure down independently of how it was built.
    for p in (2, 3):
        plane = projective_plane(p)
        n = p * p + p + 1
        assert isinstance(plane, ProjectivePlane)
        assert len(plane.points) == n
        assert len(plane.lines) == n
        for line in plane.lines:
            assert len(line) == p + 1
        for i in range(n):
            assert sum(1 for line in plane.lines if i in line) == p + 1
        for i, j in itertools.combinations(range(n), 2):
            assert sum(1 for line in plane.lines if i in line and j in line) == 1
        for a, b in itertools.combinations(plane.lines, 2):
            assert len(set(a) & set(b)) == 1


def test_projective_rule():
    rule = build_projective_rule(2)
    assert isinstance(rule, CoalitionRule)
    assert rule.n == 7
    assert len(rule.family) == 7
    assert all(len(m) == 3 for m in rule.family)
    assert rule.provenance["kind"] == "projective_plane"
    assert rule.provenance["p"] == 2
    assert set(rule.family) == set(projective_plane(2).lines)


def test_pgl2_orders():
    for p in (2, 3, 5, 7):
        group = pgl2_elements(p)
        assert group.order == pgl2_order(p) == (p + 1) * p * (p - 1)


def test_pgl2_elements_repeated_calls_agree():
    assert pgl2_elements(7) == pgl2_elements(7)
    assert pgl2_elements(7).order == pgl2_order(7)


def test_pgl2_sharply_three_transitive():
    group = pgl2_elements(5)
    assert is_k_transitive(group, 3)
    assert group.order == 6 * 5 * 4
    assert not is_k_transitive(group, 4)


def test_pgl3_fano_group():
    plane = projective_plane(2)
    group = pgl3_elements(2)
    assert group.order == pgl3_order(2) == 168
    assert is_k_transitive(group, 2)
    assert not is_k_transitive(group, 3)
    lines = set(plane.lines)
    for g in listing(group):
        for line in lines:
            assert tuple(sorted(g.images[i] for i in line)) in lines


def test_pgl3_overflow():
    assert pgl3_elements(3).order == pgl3_order(3) == 5616
    with pytest.raises(ClosureOverflow, match=r"PGL\(3,5\)"):
        pgl3_elements(5)


@pytest.mark.parametrize(
    "p, dim", [(p, 2) for p in (2, 3, 5, 7, 11, 13, 19)] + [(2, 3), (3, 3)]
)
def test_induced_group_generators_close_to_elements(p, dim):
    group = pgl2_elements(p) if dim == 2 else pgl3_elements(p)
    assert len(group.generators) == 1 + dim * (dim - 1)
    assert bfs_closure(group.n, group.generators) == [g.images for g in listing(group)]


def _digest(group):
    return hashlib.sha256(repr([g.images for g in listing(group)]).encode()).hexdigest()[:16]


def test_induced_group_elements_frozen():
    # digests of the element lists built by the per-matrix scalar loop
    assert _digest(pgl2_elements(13)) == "86055b62434e153e"
    assert _digest(pgl2_elements(19)) == "070b91e7cc4b9826"
    assert _digest(pgl3_elements(3)) == "5a67eb02666b9bdc"


def _scalar_induced_images(p, dim):
    """Each matrix with leading entry 1 times each point, canonicalised;
    a singular matrix sends some point to zero and is skipped."""
    pts = projective_points(p, dim=dim)
    index = {pt: i for i, pt in enumerate(pts)}
    out = set()
    for m in itertools.product(range(p), repeat=dim * dim):
        if next((x for x in m if x), 0) != 1:
            continue
        images = []
        for pt in pts:
            vec = [sum(m[r * dim + c] * pt[c] for c in range(dim)) % p for r in range(dim)]
            lead = next((x for x in vec if x), 0)
            if lead == 0:
                break
            inv = pow(lead, p - 2, p)
            images.append(index[tuple(inv * x % p for x in vec)])
        else:
            out.add(tuple(images))
    return out


@pytest.mark.parametrize("p, dim", [(2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (2, 3), (3, 3)])
def test_induced_group_matches_scalar_action(p, dim):
    group = pgl2_elements(p) if dim == 2 else pgl3_elements(p)
    expected = _scalar_induced_images(p, dim)
    assert len(expected) == group.order
    assert [g.images for g in listing(group)] == sorted(expected)


def test_induced_group_size_cap():
    start = time.perf_counter()
    with pytest.raises(ClosureOverflow, match=rf"PGL\(2,101\).*{MAX_GROUP_ENTRIES}"):
        pgl2_elements(101)
    with pytest.raises(ClosureOverflow, match=r"PGL\(3,5\)"):
        pgl3_elements(5)
    with pytest.raises(ClosureOverflow):
        pgl2_elements(10**18 + 9)  # refused before the primality test
    assert time.perf_counter() - start < 1.0
    # every prime the verifier and the benchmark use stays admitted
    assert pgl2_order(19) * 20 <= pgl2_order(31) * 32 <= MAX_GROUP_ENTRIES
    assert pgl3_order(3) * 13 <= MAX_GROUP_ENTRIES
