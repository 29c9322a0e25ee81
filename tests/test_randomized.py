import math
import time

import pytest
from closure_oracle import listing

from equivote import randomized
from equivote.analysis import certified_subgroup, is_equitable, is_k_equitable
from equivote.perms import ClosureOverflow, PermGroup, Permutation, symmetric_generators
from equivote.randomized import (
    ConstructionFailed,
    IntersectingSet,
    build_3_equitable_rule,
    build_rule_from_group,
    group_from_descriptor,
    intersecting_set,
    orbit_family,
    verify_intersecting_set,
)
from equivote.rules import CoalitionRule


def cyclic(n):
    return group_from_descriptor({"kind": "cyclic", "n": n})


def test_group_from_descriptor():
    c5 = cyclic(5)
    assert c5.order == 5
    assert Permutation.rotation(5) in listing(c5)
    assert group_from_descriptor({"kind": "pgl2", "p": 3}).order == 24
    with pytest.raises(ValueError):
        group_from_descriptor({"kind": "frieze"})


def test_group_from_descriptor_refuses_oversized_groups():
    start = time.perf_counter()
    with pytest.raises(ClosureOverflow, match="20000"):
        cyclic(20_000)
    # order x degree is capped as for the PGL groups: n*n <= 2^20
    with pytest.raises(ClosureOverflow, match="1025"):
        cyclic(1025)
    with pytest.raises(ClosureOverflow, match="101"):
        group_from_descriptor({"kind": "pgl2", "p": 101})
    assert time.perf_counter() - start < 1.0


def test_intersecting_set_c16():
    got = intersecting_set(cyclic(16), seed=0)
    assert isinstance(got, IntersectingSet)
    assert got.ell == 12
    assert got.attempts == 1
    assert got.group_order == 16
    assert got.certified
    assert all(0 <= v < 16 for v in got.points)
    assert len(got.points) <= 2 * got.ell
    assert got == intersecting_set(cyclic(16), seed=0)
    assert got != intersecting_set(cyclic(16), seed=1)


def test_intersecting_set_c100():
    got = intersecting_set(cyclic(100), seed=7)
    assert got.ell == math.ceil(10 * math.log(100)) == 47
    assert len(got.points) <= 94
    assert got.certified
    assert verify_intersecting_set(cyclic(100), got.points)


def test_intersecting_set_rejects_tiny_group():
    with pytest.raises(ValueError):
        intersecting_set(cyclic(2))


def test_intersecting_set_needs_enumerated_group():
    # a group given by generators alone is listed from its chain
    lazy = PermGroup(n=5, generators=(Permutation.rotation(5),))
    assert intersecting_set(lazy) == intersecting_set(cyclic(5))
    # one too large to list is refused: two 100-cycles on 200 points give
    # 10,000 elements of degree 200, and ell = 131 < 200
    halves = PermGroup(
        n=200,
        generators=(
            Permutation(tuple([*range(1, 100), 0, *range(100, 200)])),
            Permutation(tuple([*range(100), *range(101, 200), 100])),
        ),
    )
    with pytest.raises(ClosureOverflow, match="10000 elements of degree 200"):
        intersecting_set(halves)
    sym12 = PermGroup(n=12, generators=symmetric_generators(12))
    with pytest.raises(ClosureOverflow, match="479001600 elements of degree 12"):
        verify_intersecting_set(sym12, (0, 1))


def test_every_voter_needs_no_element_list():
    # ell = 70 >= 12 for Sym(12): the fixed block is every voter, which
    # meets each of its translates, so none of the 12! elements is listed
    sym12 = PermGroup(n=12, generators=symmetric_generators(12))
    got = intersecting_set(sym12, seed=3)
    assert (got.points, got.ell, got.attempts) == (tuple(range(12)), 70, 1)
    assert verify_intersecting_set(sym12, range(12))
    assert orbit_family(sym12, range(12)) == (frozenset(range(12)),)
    assert "elements" not in vars(sym12)


def test_construction_failure_carries_attempts(monkeypatch):
    monkeypatch.setattr(randomized, "MAX_ATTEMPTS", 0)
    with pytest.raises(ConstructionFailed) as exc:
        intersecting_set(cyclic(16))
    assert exc.value.attempts == 0


def test_verify_intersecting_set():
    assert not verify_intersecting_set(cyclic(16), (0,))
    assert verify_intersecting_set(cyclic(16), tuple(range(9)))


def test_orbit_family_frozen():
    fam = orbit_family(cyclic(4), {0, 1})
    assert fam == (
        frozenset({0, 1}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({2, 3}),
    )


def test_build_rule_from_group():
    group = cyclic(16)
    desc = {"kind": "cyclic", "n": 16}
    rule = build_rule_from_group(group, desc, seed=0)
    assert isinstance(rule, CoalitionRule)
    assert rule.n == 16
    assert rule == build_rule_from_group(group, desc, seed=0)

    prov = rule.provenance
    assert prov["kind"] == "group_orbit"
    assert prov["group"] == desc
    assert prov["seed"] == 0
    assert prov["ell"] == 12
    assert prov["attempts"] == 1

    points = frozenset(prov["points"])
    family = set(rule.family)
    assert points in family
    for g in listing(group):
        assert frozenset(g.images[v] for v in points) in family
        for member in family:
            assert frozenset(g.images[v] for v in member) in family


def test_built_rule_is_certified_equitable(monkeypatch):
    rule = build_rule_from_group(cyclic(16), {"kind": "cyclic", "n": 16}, seed=0)

    def no_chain(*args, **kwargs):
        raise AssertionError("built a stabilizer chain")

    monkeypatch.setattr("equivote.perms._stabilizer_chain", no_chain)
    cert = certified_subgroup(rule)
    assert cert.kind == "family_group"
    assert cert.validated
    # the provenance names the group by its rotation, with no element list
    assert cert.group.generators == (Permutation.rotation(16),)
    assert is_equitable(rule) is True


def test_build_3_equitable_rule():
    got = build_3_equitable_rule(3)
    assert got.rule.n == 4
    assert got.group_order == 24
    assert len(got.points) <= got.set_size_bound
    assert len(got.points) <= got.coalition_size_bound
    assert got.points == tuple(sorted(got.points))
    assert is_k_equitable(got.rule, 3) is True
    again = build_3_equitable_rule(3)
    assert got == again
