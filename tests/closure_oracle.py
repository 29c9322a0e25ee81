"""The breadth-first product closure of a generator set: the reference
that the stabilizer chain's order, elements and n-cycles are checked
against."""

def bfs_closure(n, generators):
    """Every element the generators generate, identity included, as image
    tuples sorted lexicographically."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                c = tuple(a[x] for x in g.images)  # a after g
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return sorted(seen)

