"""Vote profiles over the three-valued vote space {-1, 0, +1}."""

from __future__ import annotations

from typing import Iterable

from ._record import record


@record
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
