"""Scalar references over vote profiles: the base-3 profile code, every
profile in code order, and relabelling a profile's voters by a permutation,
which reads the permutation's inverse."""

from equivote.perms import Permutation
from equivote.profiles import VoteProfile


def inverse(p):
    images = [0] * p.n
    for i, img in enumerate(p.images):
        images[img] = i
    return Permutation(tuple(images))


def apply_to_profile(p, phi):
    """Relabel voters by p: the new profile maps v to phi(p^-1(v))."""
    if p.n != phi.n:
        raise ValueError("degree mismatch")
    inv = inverse(p)
    return VoteProfile(tuple(phi.votes[inv.images[v]] for v in range(p.n)))


def profile_code(phi):
    """Base-3 encoding; digit of voter v is phi(v) + 1 at weight 3^v."""
    code = 0
    for v in range(phi.n - 1, -1, -1):
        code = code * 3 + (phi.votes[v] + 1)
    return code


def votes_from_code(code, n):
    votes = []
    for _ in range(n):
        votes.append(code % 3 - 1)
        code //= 3
    return tuple(votes)


def all_profiles(n):
    """All 3^n profiles in code order."""
    for code in range(3**n):
        yield VoteProfile(votes_from_code(code, n))
