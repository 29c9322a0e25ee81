import os
import subprocess
import sys
from pathlib import Path

import pytest
from closure_oracle import bfs_closure, iter_permutations, listing, tuple_orbit_is_full
from hypothesis import given, settings
from hypothesis import strategies as st
from profile_oracle import inverse

from equivote import perms as perms_module
from equivote.analysis import automorphism_group
from equivote.geometry import build_projective_rule, pgl2_elements, pgl3_elements
from equivote.perms import (
    ClosureOverflow,
    PermGroup,
    Permutation,
    compose,
    cycle_lengths,
    find_n_cycle,
    generate_closure,
    is_k_transitive,
    orbit,
    symmetric_generators,
)
from equivote.rules import CCC, LongestRun, Majority, uniform_grd

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im)))
)

generator_sets = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im))),
        max_size=3,
    ).map(lambda gens: (n, tuple(gens)))
)


def test_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        compose(Permutation((0, 1)), Permutation((0, 1, 2)))
    with pytest.raises(ValueError):
        PermGroup(n=3, generators=(Permutation((1, 0)),))


def test_constructors():
    assert Permutation.identity(4).images == (0, 1, 2, 3)
    assert Permutation.rotation(5).images == (1, 2, 3, 4, 0)
    rotation = Permutation.rotation(5)
    assert compose(rotation, rotation).images == (2, 3, 4, 0, 1)
    assert Permutation.transposition(4, 1, 3).images == (0, 3, 2, 1)


def test_compose_frozen():
    g = Permutation((2, 0, 1))
    h = Permutation((1, 2, 0))
    assert compose(g, h) == Permutation.identity(3)
    assert compose(g, g).images == (1, 2, 0)


@given(perms)
def test_inverse_law(p):
    assert compose(p, inverse(p)) == Permutation.identity(p.n)
    assert compose(inverse(p), p) == Permutation.identity(p.n)
    assert inverse(inverse(p)) == p


@given(perms)
def test_cycle_lengths_partition(p):
    lens = cycle_lengths(p)
    assert sum(lens) == p.n
    assert lens == tuple(sorted(lens))


def test_iter_permutations_lex():
    ps = list(iter_permutations(3))
    assert len(ps) == 6
    assert ps[0] == Permutation((0, 1, 2))
    assert ps[-1] == Permutation((2, 1, 0))
    assert len(set(ps)) == 6


def test_closure_symmetric():
    group = generate_closure(4, symmetric_generators(4))
    assert group.order == 24
    assert set(listing(group)) == set(iter_permutations(4))


def test_closure_cyclic():
    group = generate_closure(5, [Permutation.rotation(5)])
    assert group.order == 5
    assert set(listing(group)) == {
        Permutation(tuple((i + s) % 5 for i in range(5))) for s in range(5)
    }


def test_closure_overflow(monkeypatch):
    # Sym(5) has a chain of 5+4+3+2 transversal rows of degree 5, and
    # 120 elements of degree 5
    monkeypatch.setattr(perms_module, "MAX_GROUP_ENTRIES", 14 * 5 - 1)
    with pytest.raises(ClosureOverflow, match="degree 5"):
        generate_closure(5, symmetric_generators(5))
    monkeypatch.setattr(perms_module, "MAX_GROUP_ENTRIES", 14 * 5)
    group = generate_closure(5, symmetric_generators(5))
    assert group.order == 120
    with pytest.raises(ClosureOverflow, match="120 elements of degree 5"):
        group.walk()
    monkeypatch.setattr(perms_module, "MAX_GROUP_ENTRIES", 120 * 5)
    assert len(list(group.walk())) == 120


def test_closure_identity_only():
    group = generate_closure(3, [])
    assert group.order == 1
    assert listing(group) == (Permutation.identity(3),)


KLEIN = (
    Permutation((0, 1, 2, 3)),
    Permutation((1, 0, 3, 2)),
    Permutation((2, 3, 0, 1)),
    Permutation((3, 2, 1, 0)),
)


def test_klein_group():
    group = PermGroup(4, KLEIN)
    assert group.order == 4
    assert is_k_transitive(group, 1)
    assert not is_k_transitive(group, 2)
    assert find_n_cycle(group) is None


def test_orbits():
    group = PermGroup(n=5, generators=(Permutation((1, 0, 2, 3, 4)),))
    assert orbit(group, 0) == frozenset({0, 1})
    assert orbit(group, 3) == frozenset({3})
    assert {orbit(group, x) for x in range(5)} == {
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
    }
    assert not is_k_transitive(group, 1)
    with pytest.raises(ValueError):
        orbit(group, 5)


def test_orbit_stabilizer_sizes():
    for group in (
        generate_closure(4, symmetric_generators(4)),
        PermGroup(4, KLEIN),
        generate_closure(6, [Permutation.rotation(6)]),
    ):
        for point in range(group.n):
            fixing = sum(1 for g in listing(group) if g.images[point] == point)
            assert len(orbit(group, point)) * fixing == group.order


def test_generator_only_group_finds_its_n_cycle():
    lazy = PermGroup(n=4, generators=(Permutation.rotation(4),))
    # transitivity reads the generators alone
    assert is_k_transitive(lazy, 1)
    assert "_chain" not in vars(lazy)
    # 2-transitivity and the n-cycle search read the group's chain
    assert not is_k_transitive(lazy, 2)
    assert cycle_lengths(find_n_cycle(lazy)) == (4,)


@given(generator_sets)
def test_k_transitivity_needs_only_generators(case):
    n, gens = case
    lazy = PermGroup(n=n, generators=gens)
    assert is_k_transitive(lazy, 1) == tuple_orbit_is_full(n, gens, 1)
    assert "_chain" not in vars(lazy)
    for k in range(2, n + 1):
        assert is_k_transitive(lazy, k) == tuple_orbit_is_full(n, gens, k)


def test_k_transitivity_symmetric():
    s4 = generate_closure(4, symmetric_generators(4))
    for k in range(1, 5):
        assert is_k_transitive(s4, k)
    with pytest.raises(ValueError):
        is_k_transitive(s4, 0)
    with pytest.raises(ValueError):
        is_k_transitive(s4, 5)


def test_k_transitivity_cyclic():
    c7 = generate_closure(7, [Permutation.rotation(7)])
    assert is_k_transitive(c7, 1)
    assert not is_k_transitive(c7, 2)


def test_find_n_cycle_rotation():
    got = find_n_cycle(generate_closure(6, [Permutation.rotation(6)]))
    assert got is not None
    assert cycle_lengths(got) == (6,)


def test_repeated_generators_dedupe():
    group = PermGroup(3, (Permutation.identity(3),) * 4)
    assert group.order == 1
    assert listing(group) == (Permutation.identity(3),)


@settings(max_examples=100, deadline=None)
@given(generator_sets)
def test_walk_yields_each_element_once_identity_first(case):
    n, gens = case
    group = PermGroup(n, gens)
    walked = list(group.walk())
    assert len(walked) == len(set(walked)) == group.order
    assert walked[0] == tuple(range(n))
    assert set(walked) == set(bfs_closure(n, gens))


def test_find_n_cycle_walks_a_group_too_large_to_list(monkeypatch):
    # the pruned search walks the chain itself, below the walk's budget
    group = PermGroup(14, pgl2_elements(13).generators)
    monkeypatch.setattr(perms_module, "MAX_GROUP_ENTRIES", group.order * group.n - 1)
    with pytest.raises(ClosureOverflow, match="2184 elements of degree 14"):
        group.walk()
    assert cycle_lengths(find_n_cycle(group)) == (14,)


def first_n_cycle_in_walk(group):
    """The unpruned search: every element of the walk, in order."""
    n = group.n
    return next((g for g in group.walk() if cycle_lengths(Permutation(g)) == (n,)), None)


def _matches_closure(group):
    want = bfs_closure(group.n, group.generators)
    assert group.order == len(want)
    assert [g.images for g in listing(group)] == want
    has_cycle = any(cycle_lengths(Permutation(g)) == (group.n,) for g in want)
    found = find_n_cycle(group)
    assert (found is not None) == has_cycle
    if found is not None:  # the pruned search finds the walk's first
        assert found.images == first_n_cycle_in_walk(group)


def test_find_n_cycle_in_a_symmetric_group_too_large_to_walk():
    # an unpruned walk meets all 19! elements that fix 0 first
    got = find_n_cycle(PermGroup(20, symmetric_generators(20)))
    assert cycle_lengths(got) == (20,)


@settings(max_examples=300, deadline=None)
@given(generator_sets)
def test_chain_matches_closure(case):
    n, gens = case
    _matches_closure(PermGroup(n, gens))


def _catalog_groups():
    fano = build_projective_rule(2)
    yield from (LongestRun(n).certificate().group for n in (4, 5, 6, 7, 12))
    yield uniform_grd((2, 2)).certificate().group
    yield uniform_grd((3, 3)).certificate().group
    yield from (CCC(r, c).certificate().group for r, c in ((2, 2), (2, 3), (3, 3)))
    yield from (pgl2_elements(p) for p in (2, 3, 5, 7, 11, 13, 17, 19))
    yield from (pgl3_elements(p) for p in (2, 3))
    yield from (PermGroup(n, symmetric_generators(n)) for n in (3, 5, 7, 8))
    yield automorphism_group(fano)
    yield automorphism_group(fano, method="coalition_preserving")
    yield automorphism_group(Majority(6))


def test_catalog_chains_match_closure():
    for group in _catalog_groups():
        _matches_closure(group)


def _sifts_closure(group):
    """Every element of the closure is in the group; below degree 7, no
    other permutation is."""
    closure = bfs_closure(group.n, group.generators)
    assert all(g in group for g in closure)
    assert tuple(range(group.n + 1)) not in group
    if group.n <= 6:
        members = set(closure)
        others = (p.images for p in iter_permutations(group.n))
        assert not any(g in group for g in others if g not in members)


@settings(max_examples=200, deadline=None)
@given(generator_sets)
def test_membership_by_sifting_matches_closure(case):
    n, gens = case
    _sifts_closure(PermGroup(n, gens))


def test_catalog_membership_matches_closure():
    for group in _catalog_groups():
        _sifts_closure(group)


def test_catalog_k_transitivity_matches_tuple_walk():
    for group in _catalog_groups():
        for k in range(1, min(group.n, 4) + 1):
            want = tuple_orbit_is_full(group.n, group.generators, k)
            assert is_k_transitive(group, k) == want, (group.n, k)


# Builds groups in a fresh interpreter (this one has numpy loaded) and prints
# the numpy submodules that were imported.
GROUP_IMPORTS = """
import sys
from equivote.geometry import pgl2_elements
from equivote.perms import Permutation, find_n_cycle, generate_closure, transitivity
cyclic = generate_closure(1000, [Permutation.rotation(1000)])
print(sum(1 for _ in cyclic.walk()), transitivity(cyclic), pgl2_elements(31).order)
print(find_n_cycle(pgl2_elements(31)) is not None)
print(sorted(m for m in sys.modules if m.startswith("numpy.")))
"""


def test_group_construction_does_not_load_numpy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", GROUP_IMPORTS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.splitlines() == ["1000 1 29760", "True", "[]"]


def test_pgl2_31_has_an_n_cycle():
    # a Singer cycle, from a generator of GF(p^2)*, is one cycle on the p + 1 points
    assert cycle_lengths(find_n_cycle(pgl2_elements(31))) == (32,)
