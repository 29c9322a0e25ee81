"""Vote profiles over the three-valued vote space {-1, 0, +1}."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .perms import Permutation, inverse


@dataclass(frozen=True)
class VoteProfile:
    """One vote in {-1, 0, +1} per voter."""

    votes: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.votes:
            if v not in (-1, 0, 1):
                raise ValueError(f"invalid vote {v!r}")

    @property
    def n(self) -> int:
        return len(self.votes)

    @classmethod
    def of(cls, votes: Iterable[int]) -> "VoteProfile":
        return cls(tuple(votes))


def apply_to_profile(p: Permutation, phi: VoteProfile) -> VoteProfile:
    """Relabel voters by p: the new profile maps v to phi(p^-1(v))."""
    if p.n != phi.n:
        raise ValueError("degree mismatch")
    inv = inverse(p)
    return VoteProfile(tuple(phi.votes[inv.images[v]] for v in range(p.n)))


def profile_code(phi: VoteProfile) -> int:
    """Base-3 encoding; digit of voter v is phi(v) + 1 at weight 3^v."""
    code = 0
    for v in range(phi.n - 1, -1, -1):
        code = code * 3 + (phi.votes[v] + 1)
    return code


def votes_from_code(code: int, n: int) -> tuple[int, ...]:
    votes = []
    for _ in range(n):
        votes.append(code % 3 - 1)
        code //= 3
    return tuple(votes)


def all_profiles(n: int) -> Iterator[VoteProfile]:
    """All 3^n profiles in code order."""
    for code in range(3**n):
        yield VoteProfile(votes_from_code(code, n))
