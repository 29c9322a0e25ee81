import hashlib
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
from equivote.serialize import dumps_rule


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


def test_every_voter_needs_no_element_list(monkeypatch):
    # ell = 70 >= 12 for Sym(12): the fixed block is every voter, which
    # meets each of its translates, so none of the 12! elements is walked
    def no_walk(group):
        raise AssertionError("walked a group")

    monkeypatch.setattr(PermGroup, "walk", no_walk)
    sym12 = PermGroup(n=12, generators=symmetric_generators(12))
    got = intersecting_set(sym12, seed=3)
    assert (got.points, got.ell, got.attempts) == (tuple(range(12)), 70, 1)
    assert verify_intersecting_set(sym12, range(12))
    assert orbit_family(sym12, range(12)) == (tuple(range(12)),)
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
    assert fam == ((0, 1), (0, 3), (1, 2), (2, 3))


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

    points = tuple(prov["points"])
    family = set(rule.family)
    assert points in family
    for g in listing(group):
        assert tuple(sorted(g.images[v] for v in points)) in family
        for member in family:
            assert tuple(sorted(g.images[v] for v in member)) in family


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


# sha256 of the `construct --type group_orbit` document (with its trailing
# newline) for each group descriptor and seed, pinned when the groups were
# still listed; the walk must give the same families byte for byte
ORBIT_DOCUMENTS = {
    ("cyclic", 12, 0): "056cf9bc8dfb060383daa30e6932bd1584d1c7473e39fbee58df9390972be092",
    ("cyclic", 16, 0): "b43f26d14bbe0b14ca88f1ca2a38627e94ba33b40fca7a9bfba63bdc396d211c",
    ("cyclic", 40, 0): "ba6aa4558a8a689f442437824377daba9a00e8d22f15d7b9dcf191582440f525",
    ("cyclic", 1000, 0): "375909d1acd3e289fcdf058ed4d37899a414c0de6e3226d0a20a2f0111618d32",
    ("pgl2", 13, 0): "76670153f4c77e22a8183bf2fdf13987edd0709102d0f25b3edde171eceaebb8",
    ("pgl2", 19, 0): "b90fc8c848add980b4ddc1e9b1ce6ff322011a90f92e4b34e6368c5f65783029",
    ("pgl2", 31, 0): "603b082e0ca37afccd36a0ccb8b60a2d25a50d88e3b10dccc99ab9727b9003fd",
    ("cyclic", 12, 1): "3a6dd0654423eb46fe8de55c77c62ff2ed55c41fcb231eee70ce53064d7b23af",
    ("cyclic", 16, 1): "2d39f0c2a440483f9452f71636f31733f7f0d11b8c5872bf47bc3819cea5fb5f",
    ("cyclic", 40, 1): "edadc4bf96c66d484d2746b840ffca6c157e487e0a7694b2e89759b68e942be9",
    ("cyclic", 1000, 1): "d39c50f0993dad3597beec3b44187d2b1c3dc14fbb2f2a135418720912a3ecc2",
    ("pgl2", 13, 1): "cb0aaddd3e398e7a93b304a2b84d2895502e6156d428c41776d6c0af89c518fc",
    ("pgl2", 19, 1): "b43d9425783dce43d5ec9d9fcc8b12c8bcd1882bd78f30fefd0c7e64346399ac",
    ("pgl2", 31, 1): "eeaeb423ec129517614ad7a8fac4110fe7b8463ba4afe4455ab4607af48ccf14",
}


@pytest.mark.parametrize("kind, size, seed", sorted(ORBIT_DOCUMENTS))
def test_orbit_documents_keep_their_bytes(kind, size, seed):
    desc = {"kind": kind, {"cyclic": "n", "pgl2": "p"}[kind]: size}
    rule = build_rule_from_group(group_from_descriptor(desc), desc, seed=seed)
    text = dumps_rule(rule) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ORBIT_DOCUMENTS[kind, size, seed]
