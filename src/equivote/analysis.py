"""Equity analysis: winning coalitions, automorphisms, and voter influence.

Verdicts about automorphism structure are three-valued: True and False are
exact, None means undecidable within the configured caps. A True equity
verdict only needs a certified transitive subgroup; a False verdict always
requires the exhaustively computed full automorphism group.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from ._numpy import np
from ._record import record
from .geometry import is_prime, pgl2_elements, pgl3_elements
from .perms import (
    ClosureOverflow,
    PermGroup,
    Permutation,
    cycle_lengths,
    find_n_cycle,
    is_k_transitive,
    orbit,
    transitivity,
)
from .randomized import verify_intersecting_set
from .rules import (
    GRD,
    CoalitionRule,
    EquityCertificate,
    GRDTree,
    InfeasibleError,
    PROFILE_SCAN_CAP,
    VotingRule,
    grid_certificate,
    outcome,
    preserves_family,
)
from .tables import (
    automorphism_filter,
    binary_voter_outcomes,
    block_width,
    outcome_table,
    profile_blocks,
    relabel_table,
    respects_table,
    slab,
    voter_outcomes,
)

if TYPE_CHECKING:
    from fractions import Fraction

FACTORIAL_CAP = 8
ASSIGNMENT_CAP = 5
PIVOT_BINARY_CAP = 20
COALITION_BUDGET = 2_000_000  # subsets the coalition search may decide
WITNESS_LIMIT = 20_000  # minimal winning coalitions kept per search

Verdict = Optional[bool]


def verdict_str(v: Verdict) -> str:
    return "unknown" if v is None else ("true" if v else "false")


def _check_members(n: int, members: Iterable[int]) -> frozenset[int]:
    ms = frozenset(members)
    if not ms:
        raise ValueError("coalition must be nonempty")
    if not all(0 <= v < n for v in ms):
        raise ValueError("coalition member out of range")
    return ms


def _extremal_profiles(n: int, subsets: np.ndarray) -> np.ndarray:
    """For b subsets (one per row), a voter-major block of 2b profiles:
    profiles 0..b-1 have the subset voting +1 and everyone else -1,
    profiles b..2b-1 are their negations."""
    b = len(subsets)
    votes = np.full((n, 2 * b), -1, dtype=np.int8)
    votes[subsets, np.arange(b)[:, None]] = 1
    votes[:, b:] = -votes[:, :b]
    return votes


def _extremal_win(rule: VotingRule, members: Iterable[int]) -> bool:
    """Whether one subset wins both its extremal profiles, decided by the
    scalar `outcome` with no array: it votes +1 and everyone else -1, then
    the negation."""
    ms = frozenset(members)
    votes = tuple(1 if v in ms else -1 for v in range(rule.n))
    return outcome(rule, votes) == 1 and outcome(rule, tuple(-x for x in votes)) == -1


def is_winning_coalition(
    rule: VotingRule,
    members: Iterable[int],
    method: str = "exhaustive",
    assume_monotone: bool = False,
) -> bool:
    """Whether unanimity on the coalition forces the outcome either way.

    "exhaustive" enumerates every completion outside the coalition.
    "monotone" checks only the two extremal completions, which is sound
    exactly for monotone rules; it is refused unless the rule carries a
    monotone certificate or the caller attests one with assume_monotone.
    """
    n = rule.n
    ms = _check_members(n, members)
    if method == "monotone":
        if not (rule.monotone or assume_monotone):
            raise ValueError("monotone method needs a monotone certificate")
    elif method != "exhaustive":
        raise ValueError(f"unknown method {method!r}")
    free = n - len(ms)
    if method == "exhaustive" and free > PROFILE_SCAN_CAP:
        raise InfeasibleError(f"3^{free} completions exceed cap {PROFILE_SCAN_CAP}")
    if not _extremal_win(rule, ms):
        return False
    if method == "monotone":
        return True
    others = [v for v in range(n) if v not in ms]
    for x in (1, -1):
        for block in profile_blocks(free, n):
            votes = np.full((n, block.shape[1]), x, dtype=np.int8)
            votes[others] = block
            if not np.all(rule.batch(votes) == x):
                return False
    return True


@record
class MinCoalitionSearch:
    """Outcome of the ascending-size minimal winning coalition search."""

    min_size: Optional[int]
    witnesses: tuple[tuple[int, ...], ...]
    exact: bool
    lower_bound: int
    subsets_checked: int
    method: str
    witnesses_complete: bool


def _slab_wins(table: np.ndarray, n: int, ms: Sequence[int]) -> bool:
    if not np.all(slab(table, n, ms, 1) == 1):
        return False
    return bool(np.all(slab(table, n, ms, -1) == -1))


def _scan_size(
    rule: VotingRule, k: int, table: Optional[np.ndarray], prefix: int
) -> Iterator[tuple[int, ...]]:
    """Every winning size-k subset, in combination order, as it is found.

    Subsets are checked block by block on their extremal profiles through
    `rule.batch`, the first `prefix` of them on their own: the caller
    vouches that every size-k subset has a translate among them, so when
    none of them wins, none wins, and when there is one, the scalar
    `outcome` decides it with no block, and if it wins, all win. A rule
    that is not monotone comes with its table, read by the slab check.
    A block is evaluated only when the next winner is asked for.
    """
    n = rule.n
    combos = itertools.combinations(range(n), k)
    if prefix == 1:
        first = tuple(range(k))
        if _extremal_win(rule, first) and (table is None or _slab_wins(table, n, first)):
            yield from combos
        return
    # each subset gives two extremal profiles: one evaluation block in all
    step = max(1, block_width(n) // 2)
    start, count, found = 0, math.comb(n, k), False
    while start < count:
        if start == prefix and not found:
            return
        size = min(step, (prefix if start < prefix else count) - start)
        start += size
        block = itertools.chain.from_iterable(itertools.islice(combos, size))
        subsets = np.fromiter(block, dtype=np.int64, count=size * k).reshape(size, k)
        outcomes = rule.batch(_extremal_profiles(n, subsets))
        for row in subsets[(outcomes[:size] == 1) & (outcomes[size:] == -1)]:
            ms = tuple(row.tolist())
            if table is None or _slab_wins(table, n, ms):
                found = True
                yield ms


def _contained_winners(rule: CoalitionRule, k: int) -> Iterator[tuple[int, ...]]:
    """The winning size-k subsets of a coalition rule, in combination
    order, read off its family; no smaller size may have a winner, as in
    the ascending search.

    Let S vote +1 and the rest -1. The family is pairwise intersecting, so
    a member inside S forces +1 and then no member lies in the complement
    of S; otherwise S wins only if 2|S| > n and no member fits in the
    complement. S wins the negated profile exactly when it wins this one,
    since a pairwise-intersecting family makes the rule neutral. Let m0 be
    the smallest member size and k* = min(m0, n//2 + 1):
    - below k* no member fits in S and 2|S| <= n, so nothing wins;
    - at k*, when 2 m0 <= n, k* = m0 and the majority clause fails, so the
      winners are exactly the members of size m0;
    - at k*, when 2 m0 > n, 2k* > n and the complement holds n - k* < m0
      voters, so every k*-subset wins.
    """
    n = rule.n
    m0 = len(rule.family[0])  # the family lists its smallest members first
    if k < min(m0, n // 2 + 1):
        return iter(())
    if 2 * m0 <= n:
        return itertools.takewhile(lambda m: len(m) == m0, rule.family)
    return itertools.combinations(range(n), k)


def min_winning_coalitions(
    rule: VotingRule,
    budget: int = COALITION_BUDGET,
    scan_cap: int = PROFILE_SCAN_CAP,
) -> MinCoalitionSearch:
    """Smallest winning coalition size with all witnesses of that size.

    Sizes are scanned in ascending order; a budget exhaustion returns a
    lower-bound-only partial result instead of silently truncating. Every
    rule type is unanimous, so the whole electorate wins and the search
    ends at k = n at the latest, with a winner or at the budget. The
    search takes WITNESS_LIMIT + 1 of a size's winners from its lazy
    helpers, so it keeps at most WITNESS_LIMIT witnesses, in combination
    order, and knows whether the list is complete. The method is
    "table" within the scan cap, where every subset the certified group
    does not vouch for is evaluated and a table is built only for the slab
    check of a rule with no monotone certificate, and "direct" above it,
    where a coalition rule's winners are read off its family
    (`_contained_winners`) and any other rule's are scanned. An automorphism
    maps winning coalitions to winning ones, so with a certified group that
    is t-transitive and s = min(k, t), the size-k subsets that contain
    0..s-1 decide whether any size-k subset wins. The budget and
    `subsets_checked` count every subset so decided.

    Above the cap, a GRD whose every node has odd arity has no winner
    below `grd_min_coalition_structural(tree)`, so those sizes are counted
    and not scanned. On an extremal profile no voter abstains, so an odd
    node's children sum to an odd number and the node never ties. A node
    is then +1 iff a strict majority of its children are, so S wins iff it
    holds a recursive majority, which has at least that many leaves.
    """
    n = rule.n
    monotone = rule.monotone
    direct = n > scan_cap
    if direct and not monotone:
        raise InfeasibleError(
            "degree above table cap requires a monotone certificate"
        )
    table = None if monotone else outcome_table(rule)
    method = ("direct" if direct else "table") + ("+monotone" if monotone else "+slab")
    contained = direct and isinstance(rule, CoalitionRule)
    # reading winners off the family needs no group
    t = 0 if contained else _symmetry(rule)[0]
    odd = direct and isinstance(rule, GRD) and _odd_branching(rule.tree)
    floor = grd_min_coalition_structural(rule.tree) if odd else 1
    checked = 0
    for k in range(1, n + 1):
        count_k = math.comb(n, k)
        if checked + count_k > budget:
            return MinCoalitionSearch(
                min_size=None,
                witnesses=(),
                exact=False,
                lower_bound=k,
                subsets_checked=checked,
                method=method,
                witnesses_complete=False,
            )
        if contained:
            found = _contained_winners(rule, k)
        elif k < floor:
            found = iter(())
        else:
            s = min(k, t)
            found = _scan_size(rule, k, table, math.comb(n - s, k - s))
        # one winner past the limit tells whether the witness list is complete
        winners = list(itertools.islice(found, WITNESS_LIMIT + 1))
        checked += count_k
        if winners:
            complete = len(winners) <= WITNESS_LIMIT
            return MinCoalitionSearch(
                min_size=k,
                witnesses=tuple(winners[:WITNESS_LIMIT]),
                exact=True,
                lower_bound=k,
                subsets_checked=checked,
                method=method,
                witnesses_complete=complete,
            )
    raise AssertionError("every rule is unanimous, so the whole electorate wins")


def grd_min_coalition_structural(tree: GRDTree) -> int:
    """Cheapest winning coalition by recursion on the tree.

    A node is forced iff a strict majority of children are forced, which is
    exact for odd branching (blocking a child there needs a full winning set);
    for even branching the value is an upper bound.
    """
    if isinstance(tree, int):
        return 1
    costs = sorted(grd_min_coalition_structural(child) for child in tree)
    need = len(costs) // 2 + 1
    return sum(costs[:need])


def _odd_branching(tree: GRDTree) -> bool:
    """Whether every node of the tree has an odd number of children."""
    if isinstance(tree, int):
        return True
    return len(tree) % 2 == 1 and all(map(_odd_branching, tree))


def grd_recursion_bound(n: int) -> int:
    """min over divisors d of (majority count of d) times the bound at n/d."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 1
    return min(
        (d // 2 + 1) * grd_recursion_bound(n // d)
        for d in range(2, n + 1)
        if n % d == 0
    )


Prefix = tuple[int, ...]


def _chain_search(
    n: int,
    invariants: Sequence[object],
    admits: Callable[[list[Prefix]], list[Prefix]],
) -> PermGroup:
    """The permutations that keep every voter's invariant and whose
    prefixes (the images of voters 0..j-1) are all admitted, found by a
    stabilizer chain with backtrack search.

    Level i holds the elements that fix voters 0..i-1. Going down from
    i = n-1, a depth-first search looks for one element mapping i to each
    point with i's invariant that the generators found so far do not
    reach, so at most one element per coset is checked. The generators
    found are a strong generating set on the base 0..n-1, whose chain
    gives the group's order and elements.
    """
    generators: list[Permutation] = []

    def children(prefix: Prefix, images: Iterable[int]) -> Iterator[Prefix]:
        j = len(prefix)
        fits = [y for y in images if y not in prefix and invariants[y] == invariants[j]]
        return iter(admits([prefix + (y,) for y in fits]))

    def extend(prefix: Prefix, images: Iterable[int]) -> Optional[Prefix]:
        """The first admitted permutation, depth first, that extends the
        admitted prefix with the next voter's image taken from images."""
        stack = [children(prefix, images)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif len(child) == n:
                return child
            else:
                stack.append(children(child, range(n)))
        return None

    for i in range(n - 1, -1, -1):
        for b in range(i + 1, n):
            reached = orbit(PermGroup(n, tuple(generators)), i)
            if b not in reached and invariants[b] == invariants[i]:
                found = extend(tuple(range(i)), (b,))
                if found is not None:
                    generators.append(Permutation(found))
    return PermGroup(n, tuple(generators))


@functools.lru_cache(maxsize=8)
def _scanned_group(rule: VotingRule, method: str) -> PermGroup:
    """The exhaustive automorphism group or the family stabilizer, found by
    one chain search once per process. Each depends only on the outcome
    table or on the family, so a rule key (which ignores grid and
    provenance) is sound."""
    n = rule.n
    if method == "exhaustive":
        table = outcome_table(rule)
        # how often each outcome comes with each of the voter's three votes
        invariants = [
            [[np.count_nonzero(row == x) for x in (-1, 0, 1)] for row in rows]
            for rows in (voter_outcomes(table, n, v) for v in range(n))
        ]
        admits = functools.partial(automorphism_filter, table, n)
        return _chain_search(n, invariants, admits)
    members = set(rule.family)
    by_last: dict[int, list[tuple[int, ...]]] = {}
    for member in rule.family:
        by_last.setdefault(member[-1], []).append(member)

    def admits(prefixes: list[Prefix]) -> list[Prefix]:
        # a prefix of length j is the first to decide the image of each
        # member whose largest voter is j-1
        return [
            p
            for p in prefixes
            if all(
                tuple(sorted([p[v] for v in member])) in members
                for member in by_last.get(len(p) - 1, ())
            )
        ]

    invariants = [sorted(len(m) for m in rule.family if v in m) for v in range(n)]
    return _chain_search(n, invariants, admits)


def automorphism_group(
    rule: VotingRule,
    method: str = "exhaustive",
    cap: int = FACTORIAL_CAP,
) -> PermGroup:
    """Relabelling symmetries of the rule.

    "exhaustive" returns the full automorphism group of the outcome table.
    "coalition_preserving" returns the setwise stabilizer of the coalition
    family, a subgroup of the former. Both come from one chain search,
    refused above the cap before any table is built.
    """
    n = rule.n
    if n > cap:
        raise InfeasibleError(f"degree {n} exceeds the automorphism search cap {cap}")
    if method not in ("exhaustive", "coalition_preserving"):
        raise ValueError(f"unknown method {method!r}")
    if method == "coalition_preserving" and rule.family is None:
        raise ValueError("coalition_preserving needs a coalition family")
    return _scanned_group(rule, method)


def _group_from_provenance(prov: dict, n: int) -> Optional[PermGroup]:
    """The group a provenance names, if it names one of degree n.

    Provenance is an untrusted hint: anything else, or a PGL group above
    the size cap, gives None. A cyclic group is named by its rotation alone.
    """
    kind = prov.get("kind")
    try:
        if kind == "projective_plane":
            p = prov.get("p")
            if type(p) is int and p * p + p + 1 == n and is_prime(p):
                return pgl3_elements(p)
        if kind == "group_orbit":
            group = prov.get("group")
            if group == {"kind": "cyclic", "n": n}:
                return PermGroup(n=n, generators=(Permutation.rotation(n),))
            if group == {"kind": "pgl2", "p": n - 1} and is_prime(n - 1):
                return pgl2_elements(n - 1)
    except ClosureOverflow:
        pass  # too large to build
    return None


def _named_perms(cert: EquityCertificate) -> tuple[Permutation, ...]:
    """The certificate's generators, then its n-cycle unless it is one."""
    gens = cert.group.generators
    return gens + ((cert.cycle,) if cert.cycle not in (None, *gens) else ())


@functools.lru_cache(maxsize=32)
def _validated_generators(rule: VotingRule) -> bool:
    """Check a profile rule's certificate generators and n-cycle against its
    outcome table, once per process: profile rules compare on every field,
    so the rule is a sound key. `verify all` validates 15 rules."""
    n = rule.n
    table = outcome_table(rule)
    for g in _named_perms(rule.certificate()):
        if not respects_table(table, n, g):
            raise AssertionError("certificate permutation is not an automorphism")
    return True


def certified_subgroup(
    rule: VotingRule,
    scan_cap: int = PROFILE_SCAN_CAP,
    factorial_cap: int = FACTORIAL_CAP,
) -> Optional[EquityCertificate]:
    """A by-construction automorphism subgroup, validated where feasible.

    The rule names its own certificate. Generators and the named n-cycle
    of profile-defined rules are validated by a full outcome-table scan
    when the degree is within the scan cap. A grid rule, whose family its
    constructor checked, keeps `grid_certificate`'s shifts and diagonal
    cycle, which permute the row-plus-column sets by construction. Any
    other named group, the provenance's included, is validated at any
    degree by set preservation of each generator and the n-cycle, and
    dropped if it breaks the family; the family stabilizer follows while
    n is within the factorial cap.
    """
    n = rule.n
    cert = rule.certificate()
    if rule.family is None:
        if cert is not None and n <= scan_cap:
            cert = EquityCertificate(
                cert.group, cert.kind, _validated_generators(rule), cert.cycle
            )
        return cert
    if cert is None:
        group = _group_from_provenance(rule.provenance or {}, n)
        cert = None if group is None else EquityCertificate(group, "family_group")
    if cert is not None and (
        rule.grid is not None
        and cert is grid_certificate(*rule.grid)
        or preserves_family(rule.family, _named_perms(cert))
    ):
        return EquityCertificate(cert.group, cert.kind, True, cert.cycle)
    if n > factorial_cap:
        return None
    stabilizer = automorphism_group(
        rule, method="coalition_preserving", cap=factorial_cap
    )
    return EquityCertificate(stabilizer, "family_stabilizer", validated=True)


def _symmetry(rule: VotingRule) -> tuple[int, tuple[int, ...]]:
    """The transitivity level t of the rule's certified group, and each
    voter's orbit representative: the smallest voter of its orbit.

    The certificate is `certified_subgroup`'s with both caps at 0, so no
    automorphism search runs: a profile rule's own, exact by construction
    and not checked against the outcome table here, or the group a
    coalition rule names, checked to preserve the family. With no
    certificate t = 0 and each voter is its own orbit. Sym(n) gives t = n
    with no chain built, and a transitive group whose chain is refused for
    size gives t = 1.
    """
    n = rule.n
    cert = certified_subgroup(rule, scan_cap=0, factorial_cap=0)
    if cert is None:
        return 0, tuple(range(n))
    if cert.kind == "symmetric":
        return n, (0,) * n
    reps = list(range(n))
    for v in range(n):
        if reps[v] == v:  # no smaller voter's orbit holds v
            for w in orbit(cert.group, v):
                reps[w] = v
    try:
        return transitivity(cert.group), tuple(reps)
    except ClosureOverflow:  # only a transitive group builds its chain
        return 1, tuple(reps)


def _decide(
    rule: VotingRule,
    holds: Callable[[EquityCertificate], bool],
    factorial_cap: int,
    scan_cap: int,
    probe: Callable[[], Optional[EquityCertificate]] = lambda: None,
) -> tuple[Verdict, Optional[EquityCertificate]]:
    """A symmetry verdict and the certificate that decided it.

    The rule's certificate decides when the property holds on it, then the
    caller's probe when it finds one. Otherwise the exhaustive automorphism
    group decides, as a certificate of kind "exhaustive", when n is within
    both caps; beyond them the verdict is None with no certificate. A
    certificate whose stabilizer chain is refused for size decides nothing.
    """

    def decides(cert: EquityCertificate) -> Verdict:
        try:
            return holds(cert)
        except ClosureOverflow:
            return None

    cert = certified_subgroup(rule, scan_cap=scan_cap, factorial_cap=factorial_cap)
    if cert is not None and decides(cert):
        return True, cert
    probed = probe()
    if probed is not None:
        return True, probed
    n = rule.n
    if n <= factorial_cap and n <= scan_cap:
        full = automorphism_group(rule, method="exhaustive", cap=factorial_cap)
        exhaustive = EquityCertificate(full, "exhaustive", validated=True)
        return decides(exhaustive), exhaustive
    return None, None


def _k_equity(
    rule: VotingRule, k: int, factorial_cap: int, scan_cap: int
) -> tuple[Verdict, Optional[EquityCertificate]]:
    if not 1 <= k <= rule.n:
        raise ValueError("k out of range")
    # Sym(n) is n-transitive, and its chain would hold about n^3/2 entries
    return _decide(
        rule,
        lambda cert: cert.kind == "symmetric" or is_k_transitive(cert.group, k),
        factorial_cap,
        scan_cap,
    )


def is_equitable(
    rule: VotingRule,
    factorial_cap: int = FACTORIAL_CAP,
    scan_cap: int = PROFILE_SCAN_CAP,
) -> Verdict:
    """True iff some automorphism maps any voter to any other."""
    return is_k_equitable(rule, 1, factorial_cap=factorial_cap, scan_cap=scan_cap)


def is_k_equitable(
    rule: VotingRule,
    k: int,
    factorial_cap: int = FACTORIAL_CAP,
    scan_cap: int = PROFILE_SCAN_CAP,
) -> Verdict:
    """True iff the automorphisms act transitively on distinct k-tuples."""
    return _k_equity(rule, k, factorial_cap, scan_cap)[0]


def is_cyclic_rule(
    rule: VotingRule,
    factorial_cap: int = FACTORIAL_CAP,
    scan_cap: int = PROFILE_SCAN_CAP,
) -> Verdict:
    """True iff the automorphism group contains a single n-cycle."""
    n = rule.n

    def holds(cert: EquityCertificate) -> bool:
        if any(cycle_lengths(g) == (n,) for g in _named_perms(cert)):
            return True
        return find_n_cycle(cert.group) is not None

    def rotation_probe() -> Optional[EquityCertificate]:
        rot = Permutation.rotation(n)
        if (
            rule.family is not None and preserves_family(rule.family, (rot,))
        ) or (n <= scan_cap and respects_table(outcome_table(rule), n, rot)):
            group = PermGroup(n=n, generators=(rot,))
            return EquityCertificate(group, "rotation", validated=True, cycle=rot)
        return None

    return _decide(rule, holds, factorial_cap, scan_cap, rotation_probe)[0]


def pivotality(
    rule: VotingRule,
    distribution: str = "binary",
    scan_cap: int = PROFILE_SCAN_CAP,
    *,
    as_text: bool = False,
) -> tuple[Fraction, ...] | tuple[str, ...]:
    """Per-voter probability that changing the vote can change the outcome.

    Exact rational counts under the uniform distribution over {-1,+1}^n
    ("binary", refused above PIVOT_BINARY_CAP) or over {-1,0,+1}^n
    ("ternary", a table scan refused above scan_cap). Whatever its own vote,
    v is pivotal exactly where its three votes do not all give one outcome
    (a swing), so this is the share of the others' profiles that swing.
    An automorphism maps the distribution to itself, so one voter per orbit
    of the certified group is counted and its value copied to the rest.
    When that group is Sym(n), the others' profiles of one tally form one
    orbit of voter 0's stabilizer, so one profile per tally is evaluated,
    through the scalar `outcome`, and weighted by its multinomial count;
    no table or block is built.

    With `as_text` each share is its `str(Fraction)` text, reduced by
    `math.gcd`, so the report's path never imports `fractions`.
    """
    n = rule.n
    if distribution == "ternary":
        if n > scan_cap:
            raise InfeasibleError(f"3^{n} scan exceeds cap {scan_cap}")
        values: tuple[int, ...] = (-1, 0, 1)
    elif distribution == "binary":
        if n > PIVOT_BINARY_CAP:
            raise InfeasibleError(f"2^{n} scan exceeds cap {PIVOT_BINARY_CAP}")
        values = (-1, 1)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    t, reps = _symmetry(rule)
    if t == n:
        swings = {0: _tally_swings(rule, values)}
    else:
        table = outcome_table(rule) if distribution == "ternary" else None

        def blocks(v: int) -> Iterable[np.ndarray]:
            if table is None:
                return binary_voter_outcomes(rule, v)
            return [voter_outcomes(table, n, v)]

        swings = {
            v: sum(np.count_nonzero(np.ptp(block, axis=0)) for block in blocks(v))
            for v in set(reps)
        }
    total = len(values) ** (n - 1)
    if as_text:
        return tuple(_share_text(swings[r], total) for r in reps)
    from fractions import Fraction  # only this path needs it at start-up

    return tuple(Fraction(swings[r], total) for r in reps)


def _share_text(count: int, total: int) -> str:
    """`str(Fraction(count, total))` for 0 <= count <= total."""
    g = math.gcd(count, total)
    count, total = count // g, total // g
    return str(count) if total == 1 else f"{count}/{total}"


def _tally_swings(rule: VotingRule, values: tuple[int, ...]) -> int:
    """How many profiles of voters 1..n-1 over `values` let voter 0 swing,
    for a rule invariant under every relabelling: each multiset of votes
    is one tally, evaluated once and counted (n-1)! / prod(c_x!) times."""
    n = rule.n
    count = 0
    for others in itertools.combinations_with_replacement(values, n - 1):
        if len({outcome(rule, (d, *others)) for d in (-1, 0, 1)}) > 1:
            weight = math.factorial(n - 1)
            for x in values:
                weight //= math.factorial(others.count(x))
            count += weight
    return count


def check_sqrt_lower_bound(
    rule: VotingRule, search: Optional[MinCoalitionSearch] = None
) -> dict:
    """Equitable rules cannot have winning coalitions smaller than sqrt(n).

    Rejects rules not certified equitable. Returns the measured minimum, the
    squared comparison, and a translate-overlap audit of every witness
    against the group that decided equity.
    """
    n = rule.n
    verdict, cert = _k_equity(rule, 1, FACTORIAL_CAP, PROFILE_SCAN_CAP)
    if verdict is not True:
        raise ValueError("rule is not certified equitable")
    if search is None:
        search = min_winning_coalitions(rule)
    if not search.exact:
        raise InfeasibleError("minimal coalition search did not complete")
    size = search.min_size
    if cert.kind == "symmetric":
        # every relabelling of a witness is reachable, so overlap for all
        # translates needs 2*size > n
        overlap_ok = 2 * size > n
    else:
        overlap_ok = all(
            verify_intersecting_set(cert.group, w) for w in search.witnesses
        )
    return {
        "n": n,
        "min_size": size,
        "bound_ok": size * size >= n,
        "witness_overlap_ok": overlap_ok,
    }


def assignment_classes(rule: VotingRule) -> dict[bytes, list[Permutation]]:
    """All n! seatings grouped by the rule they induce, keyed by its
    outcome table and listed in the order `itertools.permutations` yields
    them, so the first class holds the identity."""
    n = rule.n
    if n > ASSIGNMENT_CAP:
        raise InfeasibleError(f"{n}! assignments exceed cap {ASSIGNMENT_CAP}")
    table = outcome_table(rule)
    classes: dict[bytes, list[Permutation]] = {}
    for a in map(Permutation, itertools.permutations(range(n))):
        classes.setdefault(relabel_table(table, n, a).tobytes(), []).append(a)
    return classes


def _menus(rule: VotingRule) -> list[list[set[int]]]:
    """For each seating class, in `assignment_classes` order, the roles
    its seatings give each voter."""
    return [
        [{a.images[v] for a in members} for v in range(rule.n)]
        for members in assignment_classes(rule).values()
    ]


def roles_equivalent(rule: VotingRule, r1: int, r2: int) -> bool:
    """Two roles are equivalent when no voter can tell them apart: any seating
    that gives the voter one role has an outcome-identical seating giving the
    other."""
    n = rule.n
    if not (0 <= r1 < n and 0 <= r2 < n):
        raise ValueError("role out of range")
    return all(
        (r1 in roles) == (r2 in roles) for menu in _menus(rule) for roles in menu
    )


def has_uniform_assignment_menu(rule: VotingRule) -> bool:
    """Whether one outcome-equivalence class of seatings realizes every
    voter-role pair."""
    everyone = set(range(rule.n))
    return any(all(roles == everyone for roles in menu) for menu in _menus(rule))


def identity_class_realizes_all(rule: VotingRule) -> bool:
    """Whether the seatings outcome-identical to the standard one already
    give every voter access to every role."""
    everyone = set(range(rule.n))
    return all(roles == everyone for roles in _menus(rule)[0])


@record
class AnalysisReport:
    """Bundle of analysis results for one rule, ready for serialization."""

    n: int
    equitable: Optional[str] = None
    k_equity: Optional[dict] = None
    aut_order: Optional[int] = None
    cyclic: Optional[str] = None
    min_coalition: Optional[dict] = None
    pivotality: Optional[dict] = None
    methods: Optional[dict] = None


def analyze_rule(
    rule: VotingRule,
    want_equity: bool = True,
    k: Optional[int] = None,
    want_min_coalition: bool = False,
    want_aut: bool = False,
    want_cyclic: bool = False,
    pivot_distributions: Sequence[str] = (),
    budget: int = COALITION_BUDGET,
    scan_cap: int = PROFILE_SCAN_CAP,
    factorial_cap: int = FACTORIAL_CAP,
) -> AnalysisReport:
    n = rule.n
    methods: dict[str, str] = {}
    equitable = None
    if want_equity:
        verdict, cert = _k_equity(rule, 1, factorial_cap, scan_cap)
        equitable = verdict_str(verdict)
        if cert is None:
            methods["equitable"] = "capped"
        else:
            methods["equitable"] = cert.kind + ("" if cert.validated else "+structural")
    k_equity = None
    if k is not None:
        k_equity = {
            str(k): verdict_str(
                is_k_equitable(rule, k, factorial_cap=factorial_cap, scan_cap=scan_cap)
            )
        }
    aut_order = None
    if want_aut:
        try:
            aut_order = automorphism_group(
                rule, method="exhaustive", cap=factorial_cap
            ).order
            methods["aut_order"] = "exhaustive"
        except InfeasibleError:
            methods["aut_order"] = "infeasible"
    cyclic = None
    if want_cyclic:
        cyclic = verdict_str(
            is_cyclic_rule(rule, factorial_cap=factorial_cap, scan_cap=scan_cap)
        )
    min_coalition = None
    if want_min_coalition:
        try:
            search = min_winning_coalitions(rule, budget=budget, scan_cap=scan_cap)
        except InfeasibleError:
            search = None
            methods["min_coalition"] = "infeasible"
        if search is not None:
            min_coalition = {
                "size": search.min_size,
                "exact": search.exact,
                "lower_bound": search.lower_bound,
                "witness_count": len(search.witnesses),
                "witnesses_complete": search.witnesses_complete,
                "witnesses": [list(w) for w in search.witnesses[:64]],
                "subsets_checked": search.subsets_checked,
            }
            methods["min_coalition"] = search.method
    pivot = None
    if pivot_distributions:
        pivot = {}
        for dist in pivot_distributions:
            try:
                pivot[dist] = list(
                    pivotality(rule, distribution=dist, scan_cap=scan_cap, as_text=True)
                )
            except InfeasibleError:
                pivot[dist] = None
        methods["pivotality"] = "exhaustive"
    return AnalysisReport(
        n=n,
        equitable=equitable,
        k_equity=k_equity,
        aut_order=aut_order,
        cyclic=cyclic,
        min_coalition=min_coalition,
        pivotality=pivot,
        methods=methods or None,
    )
