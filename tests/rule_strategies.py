"""Hypothesis strategies for random rules of the families whose members
are not fixed by their degree."""

from hypothesis import strategies as st

from equivote.rules import GRD, Dictatorship, make_coalition_rule


@st.composite
def grd_rules(draw, max_n=12, min_n=1):
    """Recursive majority over a random, generally non-uniform, tree."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))

    def split(leaves):
        if len(leaves) == 1:
            return leaves[0]
        cuts = sorted(draw(st.sets(st.integers(1, len(leaves) - 1), max_size=3)))
        if not cuts:
            return tuple(leaves)
        bounds = [0, *cuts, len(leaves)]
        return tuple(split(leaves[a:b]) for a, b in zip(bounds, bounds[1:]))

    return GRD(split(list(order)))


@st.composite
def coalition_rules(draw, max_n=12, min_n=1):
    """A random pairwise-intersecting family: each drawn member is kept only
    if it meets every member kept before it."""
    n = draw(st.integers(min_n, max_n))
    member = st.frozensets(st.integers(0, n - 1), min_size=1)
    kept = [draw(member)]
    for candidate in draw(st.lists(member, max_size=8)):
        if all(candidate & m for m in kept):
            kept.append(candidate)
    return make_coalition_rule(n, kept)


@st.composite
def dictatorships(draw, max_n=12, min_n=1):
    n = draw(st.integers(min_n, max_n))
    return Dictatorship(n, draw(st.integers(0, n - 1)))
