import itertools

import pytest

from equivote.geometry import (
    ProjectivePlane,
    build_projective_rule,
    is_prime,
    pgl2_elements,
    pgl2_order,
    pgl3_elements,
    pgl3_order,
    projective_plane,
    projective_points,
)
from equivote.perms import ClosureOverflow, is_k_transitive
from equivote.rules import CoalitionRule


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


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
            assert len(a & b) == 1


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
    for g in group.elements:
        for line in lines:
            assert frozenset(g.images[i] for i in line) in lines


def test_pgl3_overflow():
    with pytest.raises(ClosureOverflow):
        pgl3_elements(3)
    group = pgl3_elements(3, max_order=5616)
    assert group.order == pgl3_order(3) == 5616
