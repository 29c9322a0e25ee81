import pytest
from hypothesis import given
from hypothesis import strategies as st
from profile_oracle import all_profiles, apply_to_profile, profile_code, votes_from_code

from equivote.perms import Permutation, compose
from equivote.profiles import VoteProfile

profiles = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.sampled_from((-1, 0, 1)), min_size=n, max_size=n
    ).map(VoteProfile.of)
)


def profile_with_perm(n):
    votes = st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)
    perm = st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im)))
    return st.tuples(votes.map(VoteProfile.of), perm, perm)


profile_perm_pairs = st.integers(min_value=1, max_value=6).flatmap(profile_with_perm)


def test_validation():
    with pytest.raises(ValueError):
        VoteProfile((1, 2, 0))
    with pytest.raises(ValueError):
        VoteProfile.of([0.5])


def test_code_frozen():
    # digit for voter v is vote+1 with weight 3^v
    assert profile_code(VoteProfile((1, 0, -1))) == 2 + 1 * 3 + 0 * 9
    assert profile_code(VoteProfile((-1, -1, -1))) == 0
    assert profile_code(VoteProfile((1, 1, 1))) == 26
    assert votes_from_code(5, 3) == (1, 0, -1)


@given(profiles)
def test_code_roundtrip(phi):
    assert votes_from_code(profile_code(phi), phi.n) == phi.votes


@given(profiles)
def test_negation_mirrors_code(phi):
    # why outcome_table(rule)[::-1] is the table of the negated profiles
    negated = VoteProfile(tuple(-v for v in phi.votes))
    assert profile_code(negated) == 3**phi.n - 1 - profile_code(phi)


def test_apply_rotation_frozen():
    rot = Permutation.rotation(3)
    assert apply_to_profile(rot, VoteProfile((1, 0, -1))) == VoteProfile((-1, 1, 0))


def test_apply_degree_mismatch():
    with pytest.raises(ValueError):
        apply_to_profile(Permutation.rotation(3), VoteProfile((1, -1)))


@given(profile_perm_pairs)
def test_apply_is_group_action(triple):
    phi, g, h = triple
    assert apply_to_profile(g, apply_to_profile(h, phi)) == apply_to_profile(
        compose(g, h), phi
    )
    assert apply_to_profile(Permutation.identity(phi.n), phi) == phi


@given(profile_perm_pairs)
def test_apply_moves_votes_with_voters(triple):
    phi, g, _ = triple
    moved = apply_to_profile(g, phi)
    for v in range(phi.n):
        assert moved.votes[g.images[v]] == phi.votes[v]


def test_all_profiles_in_code_order():
    ps = list(all_profiles(2))
    assert len(ps) == 9
    assert ps[0] == VoteProfile((-1, -1))
    assert ps[-1] == VoteProfile((1, 1))
    assert [profile_code(p) for p in ps] == list(range(9))
