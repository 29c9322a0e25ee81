import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from closure_oracle import iter_permutations, listing
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivote import analysis
from equivote.analysis import (
    ASSIGNMENT_CAP,
    EquityCertificate,
    analyze_rule,
    assignment_classes,
    automorphism_group,
    certified_subgroup,
    check_sqrt_lower_bound,
    grd_min_coalition_structural,
    grd_recursion_bound,
    has_uniform_assignment_menu,
    identity_class_realizes_all,
    is_cyclic_rule,
    is_equitable,
    is_k_equitable,
    is_winning_coalition,
    min_winning_coalitions,
    pivotality,
    roles_equivalent,
    verdict_str,
)
from equivote.geometry import build_projective_rule, projective_plane
from equivote.perms import Permutation, cycle_lengths, is_k_transitive
from equivote.randomized import build_rule_from_group, group_from_descriptor
from equivote.rules import (
    CCC,
    CoalitionRule,
    Dictatorship,
    GRD,
    InfeasibleError,
    LongestRun,
    Majority,
    ccc_family,
    make_coalition_rule,
    outcome,
    preserves_family,
    uniform_grd,
)
from equivote.tables import respects_table
from equivote.verify import roles_catalog
from rule_strategies import coalition_rules, dictatorships, grd_rules


def chair(n=4):
    return make_coalition_rule(n, [{0}])


def test_verdict_str():
    assert verdict_str(True) == "true"
    assert verdict_str(False) == "false"
    assert verdict_str(None) == "unknown"


def test_winning_examples():
    assert is_winning_coalition(Majority(3), {0, 1})
    assert not is_winning_coalition(Majority(4), {0, 1})
    assert is_winning_coalition(LongestRun(9), {0, 1, 2, 3, 6})


def test_winning_validation():
    with pytest.raises(ValueError):
        is_winning_coalition(Majority(3), set())
    with pytest.raises(ValueError):
        is_winning_coalition(Majority(3), {0, 3})
    with pytest.raises(ValueError):
        is_winning_coalition(Majority(3), {0}, method="sideways")
    with pytest.raises(InfeasibleError):
        is_winning_coalition(Majority(14), {0})


def test_monotone_method_needs_certificate():
    with pytest.raises(ValueError):
        is_winning_coalition(LongestRun(5), {0, 1, 2}, method="monotone")
    assert is_winning_coalition(
        LongestRun(5), {0, 1, 2}, method="monotone", assume_monotone=True
    )
    assert is_winning_coalition(Majority(6), {0, 1, 2, 3}, method="monotone")
    assert not is_winning_coalition(Majority(6), {0, 1, 2}, method="monotone")


def brute_min(rule):
    n = rule.n
    for k in range(1, n + 1):
        wins = []
        for ms in itertools.combinations(range(n), k):
            inside = set(ms)
            free = [v for v in range(n) if v not in inside]
            ok = True
            for x in (1, -1):
                for fill in itertools.product((-1, 0, 1), repeat=len(free)):
                    votes = [x] * n
                    for v, val in zip(free, fill):
                        votes[v] = val
                    if outcome(rule, tuple(votes)) != x:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                wins.append(ms)
        if wins:
            return k, wins
    return None, []


def test_min_search_matches_brute_force():
    for rule in [
        Majority(3),
        Majority(5),
        LongestRun(4),
        LongestRun(5),
        Dictatorship(4),
        chair(4),
        CCC(2, 2),
    ]:
        k, wins = brute_min(rule)
        got = min_winning_coalitions(rule)
        assert got.min_size == k
        assert got.exact
        assert got.witnesses_complete
        assert sorted(got.witnesses) == sorted(wins)


def test_min_search_frozen():
    maj5 = min_winning_coalitions(Majority(5))
    assert (maj5.min_size, len(maj5.witnesses)) == (3, 10)
    assert maj5.method == "table+monotone"

    fano = min_winning_coalitions(build_projective_rule(2))
    assert (fano.min_size, len(fano.witnesses)) == (3, 7)
    assert set(fano.witnesses) == set(projective_plane(2).lines)

    grd9 = min_winning_coalitions(uniform_grd((3, 3)))
    assert (grd9.min_size, len(grd9.witnesses)) == (4, 27)

    lr9 = min_winning_coalitions(LongestRun(9))
    assert (lr9.min_size, len(lr9.witnesses)) == (5, 126)

    ccc = min_winning_coalitions(CCC(3, 3))
    assert (ccc.min_size, len(ccc.witnesses)) == (5, 126)


def test_min_search_witnesses_pairwise_intersect():
    for rule in [Majority(5), build_projective_rule(2), uniform_grd((3, 3))]:
        got = min_winning_coalitions(rule)
        for a, b in itertools.combinations(got.witnesses, 2):
            assert set(a) & set(b)


def test_min_search_budget_partial():
    got = min_winning_coalitions(Majority(9), budget=10)
    assert got.min_size is None
    assert not got.exact
    assert got.lower_bound == 2
    assert got.witnesses == ()


# every rule type at n <= 8
UNANIMITY_RULES = st.one_of(
    st.integers(1, 8).map(Majority),
    st.integers(1, 8).map(LongestRun),
    dictatorships(max_n=8),
    grd_rules(max_n=8),
    st.builds(CCC, st.integers(1, 2), st.integers(1, 4)),
    coalition_rules(max_n=8),
)


@settings(max_examples=80, deadline=None)
@given(UNANIMITY_RULES)
def test_whole_electorate_wins_every_rule(rule):
    # so the ascending search always ends at k = n at the latest
    n = rule.n
    assert is_winning_coalition(rule, range(n))
    got = min_winning_coalitions(rule, budget=2**n)
    assert got.exact
    assert got.min_size <= n


def test_min_search_witness_limit(monkeypatch):
    monkeypatch.setattr(analysis, "WITNESS_LIMIT", 3)
    got = min_winning_coalitions(Majority(5))
    assert got.min_size == 3
    assert got.exact
    assert len(got.witnesses) == 3
    assert not got.witnesses_complete


def test_min_search_witness_limit_keeps_combination_order(monkeypatch):
    # 35 winners of size 4
    rule = Majority(7)
    monkeypatch.setattr(analysis, "WITNESS_LIMIT", 3)
    got = min_winning_coalitions(rule)
    assert got.witnesses == tuple(itertools.combinations(range(7), 4))[:3]
    assert not got.witnesses_complete
    monkeypatch.setattr(analysis, "WITNESS_LIMIT", 35)
    exact = min_winning_coalitions(rule)
    assert len(exact.witnesses) == 35 and exact.witnesses_complete


def test_min_search_above_table_cap():
    got = min_winning_coalitions(Majority(13))
    assert got.min_size == 7
    assert got.method == "direct+monotone"
    with pytest.raises(InfeasibleError):
        min_winning_coalitions(LongestRun(13))


def test_supersets_of_winning_coalitions_win():
    for rule in [Majority(5), build_projective_rule(2)]:
        got = min_winning_coalitions(rule)
        w = set(got.witnesses[0])
        extra = next(v for v in range(rule.n) if v not in w)
        assert is_winning_coalition(rule, w | {extra})


def test_grd_structural_cost():
    assert grd_min_coalition_structural(uniform_grd((3, 3)).tree) == 4
    assert grd_min_coalition_structural(uniform_grd((3, 5)).tree) == 6
    assert grd_min_coalition_structural(uniform_grd((3, 3, 3)).tree) == 8
    assert grd_min_coalition_structural((0, 1, (2, 3, 4))) == 2
    assert grd_min_coalition_structural(7) == 1


def test_grd_recursion_bound():
    assert [grd_recursion_bound(n) for n in (1, 2, 3, 4, 9, 15, 27)] == [
        1,
        2,
        2,
        3,
        4,
        6,
        8,
    ]
    with pytest.raises(ValueError):
        grd_recursion_bound(0)


def test_automorphism_group_orders():
    assert automorphism_group(Majority(4)).order == 24
    assert automorphism_group(LongestRun(4)).order == 24
    assert automorphism_group(Dictatorship(4)).order == 6
    assert automorphism_group(CCC(2, 2)).order == 24

    lr5 = automorphism_group(LongestRun(5))
    assert lr5.order == 10
    assert Permutation.rotation(5) in listing(lr5)


def test_automorphism_group_orders_unchanged():
    cases = [
        (Dictatorship(8), "exhaustive", 5040),
        (LongestRun(8), "exhaustive", 16),
        (build_projective_rule(2), "exhaustive", 168),
        (CCC(2, 4), "exhaustive", 40320),
        (CCC(2, 4), "coalition_preserving", 1152),
    ]
    for rule, method, order in cases:
        group = automorphism_group(rule, method=method)
        assert group.order == order
        assert listing(group)[0] == Permutation.identity(rule.n)


@st.composite
def intersecting_families(draw):
    """A coalition rule over random pairwise intersecting members, or over
    the members of a small CCC grid."""
    if draw(st.booleans()):
        rows, cols = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (1, 6)]))
        return make_coalition_rule(rows * cols, ccc_family(rows, cols))
    n = draw(st.integers(1, 6))
    family: list[set[int]] = []
    voter = st.integers(0, n - 1)
    for member in draw(st.lists(st.sets(voter, min_size=1), min_size=1, max_size=8)):
        if all(member & other for other in family):
            family.append(member)
    return make_coalition_rule(n, family)


@settings(max_examples=100, deadline=None)
@given(intersecting_families())
def test_family_stabilizer_matches_permutation_scan(rule):
    # the oracle compares member sets, apart from `preserves_family`
    family = {frozenset(m) for m in rule.family}
    perms = list(iter_permutations(rule.n))
    want = [
        p
        for p in perms
        if {frozenset(p.images[v] for v in m) for m in family} == family
    ]
    stabilizer = automorphism_group(rule, method="coalition_preserving")
    assert list(listing(stabilizer)) == want
    assert [p for p in perms if preserves_family(rule.family, (p,))] == want


def test_automorphism_group_fano():
    rule = build_projective_rule(2)
    full = automorphism_group(rule)
    stab = automorphism_group(rule, method="coalition_preserving")
    assert full.order == stab.order == 168
    assert listing(full) == listing(stab)


def test_automorphism_group_errors():
    with pytest.raises(ValueError):
        automorphism_group(Majority(4), method="coalition_preserving")
    with pytest.raises(ValueError):
        automorphism_group(Majority(4), method="sideways")
    with pytest.raises(InfeasibleError):
        automorphism_group(Majority(9))


def test_automorphism_group_memoized():
    first = automorphism_group(LongestRun(6))
    assert automorphism_group(LongestRun(6)) is first
    assert first.order == 12
    stab = automorphism_group(build_projective_rule(2), method="coalition_preserving")
    twin = make_coalition_rule(7, build_projective_rule(2).family)
    assert automorphism_group(twin, method="coalition_preserving") is stab


def test_automorphism_group_cap_refused_before_scan(monkeypatch):
    automorphism_group(Majority(5))  # cached

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned past the cap")

    monkeypatch.setattr(analysis, "automorphism_filter", no_scan)
    monkeypatch.setattr(analysis, "outcome_table", no_scan)
    with pytest.raises(InfeasibleError):
        automorphism_group(Majority(9))
    with pytest.raises(InfeasibleError):
        automorphism_group(Majority(5), cap=4)


def test_certified_subgroup_kinds():
    cases = [
        (Majority(5), "symmetric", True),
        (LongestRun(6), "rotation", True),
        (LongestRun(14), "rotation", False),
        (uniform_grd((3, 3)), "torus", True),
        (CCC(2, 3), "grid_shifts", True),
        # the same rule from a coalition document carries no grid
        (make_coalition_rule(6, ccc_family(2, 3)), "family_stabilizer", True),
        (build_projective_rule(2), "family_group", True),
        (chair(4), "family_stabilizer", True),
    ]
    for rule, kind, validated in cases:
        cert = certified_subgroup(rule)
        assert isinstance(cert, EquityCertificate)
        assert cert.kind == kind
        assert cert.validated == validated
    assert certified_subgroup(Dictatorship(6)) is None
    assert certified_subgroup(GRD((0, 1, (2, 3, 4)))) is None
    # the grid diagonal is an n-cycle exactly when gcd(rows, cols) = 1
    assert cycle_lengths(certified_subgroup(CCC(2, 3)).cycle) == (6,)
    assert certified_subgroup(CCC(2, 2)).cycle is None


def test_grid_certificate_is_taken_without_a_family_scan(monkeypatch):
    calls = []
    real = analysis.preserves_family
    monkeypatch.setattr(
        analysis, "preserves_family", lambda *args: calls.append(args) or real(*args)
    )
    for rows, cols in ((2, 3), (3, 3), (4, 6), (1, 5)):
        cert = certified_subgroup(CCC(rows, cols))
        assert (cert.kind, cert.validated) == ("grid_shifts", True)
    assert calls == []


def test_grid_certificate_needs_the_grids_family():
    # the shifts break any other intersecting family, so a grid rule cannot
    # hold one; as a coalition document that family gets no grid certificate
    for rows, cols in ((2, 3), (3, 3)):
        family = ccc_family(rows, cols)[:-1]
        with pytest.raises(ValueError, match=f"{rows} x {cols} grid"):
            CoalitionRule(rows * cols, family, grid=(rows, cols))
    assert certified_subgroup(make_coalition_rule(6, ccc_family(2, 3)[:-1])).kind == (
        "family_stabilizer"
    )
    assert certified_subgroup(make_coalition_rule(9, ccc_family(3, 3)[:-1])) is None


@pytest.mark.parametrize(
    "provenance",
    [
        {"kind": "projective_plane", "p": 2},
        {"kind": "group_orbit", "group": {"kind": "cyclic", "n": 7}},
        {"kind": "projective_plane", "p": 3},  # another degree
        {"kind": "projective_plane", "p": "2"},
        {"kind": "group_orbit", "group": {"kind": "pgl2", "p": 5}},
        {"kind": "group_orbit", "group": "cyclic"},
    ],
)
def test_untrusted_provenance_falls_back(provenance):
    # no named group preserves these families: fall back to the stabilizer
    # within the factorial cap, and to no certificate above it
    small = make_coalition_rule(7, [{0, 1}, {0, 2}], provenance=provenance)
    cert = certified_subgroup(small)
    assert cert.kind == "family_stabilizer"
    assert is_equitable(small) is False
    assert is_cyclic_rule(small) is False
    large = make_coalition_rule(13, [{0, 1}, {0, 2}], provenance=provenance)
    assert certified_subgroup(large) is None
    assert is_equitable(large) is None


@pytest.mark.parametrize(
    "provenance, n",
    [
        ({"kind": "projective_plane", "p": 5}, 31),
        ({"kind": "group_orbit", "group": {"kind": "pgl2", "p": 101}}, 102),
    ],
)
def test_oversized_provenance_group_gives_none(provenance, n):
    # a named group above the size caps is no hint, not an error or a hang
    assert analysis._group_from_provenance(provenance, n) is None


def _no_chain(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("built a stabilizer chain")

    monkeypatch.setattr("equivote.perms._stabilizer_chain", no_chain)


def test_cyclic_provenance_is_its_rotation(monkeypatch):
    # a cyclic group of any degree is named by its rotation, never enumerated
    _no_chain(monkeypatch)
    prov = {"kind": "group_orbit", "group": {"kind": "cyclic", "n": 20_000}}
    group = analysis._group_from_provenance(prov, 20_000)
    assert group.generators == (Permutation.rotation(20_000),)


@pytest.mark.parametrize(
    "rule, twin, kinds",
    [
        (
            CCC(2, 3),
            make_coalition_rule(6, ccc_family(2, 3)),
            ("grid_shifts", "family_stabilizer"),
        ),
        (
            build_projective_rule(2),
            make_coalition_rule(7, build_projective_rule(2).family),
            ("family_group", "family_stabilizer"),
        ),
    ],
)
def test_memos_do_not_mix_coalition_twins(rule, twin, kinds):
    # grid and provenance do not take part in rule equality, so no memo
    # may answer for one twin with the other's certificate
    assert rule == twin
    for order in ((rule, twin), (twin, rule)):
        analysis._scanned_group.cache_clear()
        for r in order:
            certified_subgroup(r)
        assert (certified_subgroup(rule).kind, certified_subgroup(twin).kind) == kinds


def test_generators_validated_once_per_process(monkeypatch):
    calls = []

    def counting(table, n, perm):
        calls.append(perm)
        return respects_table(table, n, perm)

    analysis._validated_generators.cache_clear()
    monkeypatch.setattr(analysis, "respects_table", counting)
    report = analyze_rule(Majority(12), want_equity=True, k=2, want_cyclic=True)
    verdicts = (report.equitable, report.k_equity, report.cyclic)
    assert verdicts == ("true", {"2": "true"}, "true")
    gens = Majority(12).certificate().group.generators
    assert len(calls) == len(gens) and set(calls) == set(gens)


def _with_cycle(rule_class, cycle, monkeypatch):
    """Make the rule class's certificate name the given n-cycle."""
    certificate = rule_class.certificate

    def bogus(rule):
        cert = certificate(rule)
        return EquityCertificate(cert.group, cert.kind, cert.validated, cycle)

    monkeypatch.setattr(rule_class, "certificate", bogus)


def test_profile_certificate_cycle_is_validated(monkeypatch):
    rule = LongestRun(5)
    cycle = Permutation((2, 3, 1, 4, 0))  # 0 -> 2 -> 1 -> 3 -> 4 -> 0
    assert cycle_lengths(cycle) == (5,)
    assert not respects_table(analysis.outcome_table(rule), 5, cycle)
    _with_cycle(LongestRun, cycle, monkeypatch)
    analysis._validated_generators.cache_clear()
    with pytest.raises(AssertionError, match="not an automorphism"):
        certified_subgroup(rule)
    # above the scan cap the certificate stays structural and unchecked
    assert certified_subgroup(rule, scan_cap=4).cycle == cycle


def test_coalition_certificate_cycle_is_validated(monkeypatch):
    rule = CCC(2, 3)
    rotation = Permutation.rotation(6)  # row 0 + column 0 goes to {1, 2, 3, 4}
    assert not preserves_family(rule.family, (rotation,))
    _with_cycle(type(rule), rotation, monkeypatch)
    assert certified_subgroup(rule).kind == "family_stabilizer"
    assert certified_subgroup(rule, factorial_cap=0) is None


def test_oversized_plane_group_leaves_equity_capped():
    rule = build_projective_rule(5)
    assert certified_subgroup(rule) is None
    assert is_equitable(rule) is None
    assert analyze_rule(rule).methods == {"equitable": "capped"}


def test_equity_method_names_the_deciding_group():
    # every 3-subset plus {0, 1, 2, 3}: the outcome table is Majority(5)'s,
    # but the family stabilizer fixes voter 4, so the exhaustive group decides
    family = [set(c) for c in itertools.combinations(range(5), 3)] + [{0, 1, 2, 3}]
    rule = make_coalition_rule(5, family)
    cert = certified_subgroup(rule)
    assert (cert.kind, cert.group.order) == ("family_stabilizer", 24)
    assert is_equitable(rule) is True
    assert analyze_rule(rule).methods == {"equitable": "exhaustive"}


def test_factorial_cap_bounds_family_stabilizer(monkeypatch):
    lines = make_coalition_rule(7, build_projective_rule(2).family)
    assert certified_subgroup(lines).kind == "family_stabilizer"

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned past the cap")

    monkeypatch.setattr(analysis, "_scanned_group", no_scan)
    assert certified_subgroup(lines, factorial_cap=4) is None
    assert is_equitable(lines, factorial_cap=4) is None
    report = analyze_rule(lines, factorial_cap=4)
    assert (report.equitable, report.methods) == ("unknown", {"equitable": "capped"})


def test_certified_subgroup_transitivity():
    assert is_k_transitive(certified_subgroup(LongestRun(6)).group, 1)
    assert not is_k_transitive(certified_subgroup(chair(4)).group, 1)


def test_is_equitable():
    assert is_equitable(Majority(6)) is True
    assert is_equitable(LongestRun(8)) is True
    assert is_equitable(CCC(2, 3)) is True
    assert is_equitable(uniform_grd((3, 3))) is True
    assert is_equitable(build_projective_rule(2)) is True
    assert is_equitable(LongestRun(20)) is True  # structural certificate
    assert is_equitable(Dictatorship(5)) is False
    assert is_equitable(chair(4)) is False
    assert is_equitable(GRD((0, 1, (2, 3, 4)))) is False
    assert is_equitable(Dictatorship(13)) is None


def test_is_k_equitable():
    fano = build_projective_rule(2)
    assert is_k_equitable(fano, 1) is True
    assert is_k_equitable(fano, 2) is True
    assert is_k_equitable(fano, 3) is False
    assert is_k_equitable(Majority(9), 5) is True
    assert is_k_equitable(LongestRun(5), 1) is True
    assert is_k_equitable(LongestRun(5), 2) is False
    assert is_k_equitable(chair(4), 1) is False
    with pytest.raises(ValueError):
        is_k_equitable(fano, 0)
    with pytest.raises(ValueError):
        is_k_equitable(fano, 8)


def test_is_k_equitable_closure_errors(monkeypatch):
    with monkeypatch.context() as patched:
        # 1-equity reads the certificate's generators alone: no chain
        _no_chain(patched)
        assert is_k_equitable(LongestRun(5), 1) is True
        assert is_k_equitable(CCC(2, 3), 1) is True
        # the rotation certifies 1-equity at any degree
        assert is_k_equitable(LongestRun(12_000), 1) is True
    assert is_k_equitable(LongestRun(5), 2) is False  # exhaustive fallback
    # the rotation's chain would need n*n > 2^20 entries: it is refused
    # before it is built, and the certificate does not decide
    for n in (4000, 12_000):
        start = time.perf_counter()
        assert is_k_equitable(LongestRun(n), 2) is None
        assert time.perf_counter() - start < 2.0


def test_is_cyclic_rule():
    assert is_cyclic_rule(LongestRun(7)) is True
    assert is_cyclic_rule(Majority(5)) is True
    assert is_cyclic_rule(Majority(20)) is True
    assert is_cyclic_rule(build_projective_rule(2)) is True
    assert is_cyclic_rule(uniform_grd((3, 3))) is True
    assert is_cyclic_rule(CCC(2, 3)) is True
    assert is_cyclic_rule(CCC(3, 3)) is True
    assert is_cyclic_rule(Dictatorship(5)) is False
    assert is_cyclic_rule(chair(4)) is False
    assert is_cyclic_rule(Dictatorship(13)) is None


def test_cyclic_verdict_when_a_certificate_is_too_large_for_a_chain():
    # each certificate's chain would need n*n > 2^20 transversal entries;
    # a refused chain leaves the verdict to the later steps
    n, k = 1030, 33
    base = set(range(k)) | set(range(0, n, k))  # meets each of its rotations
    family = {frozenset((v + s) % n for v in base) for s in range(n)}
    prov = {"kind": "group_orbit", "group": {"kind": "cyclic", "n": n}}
    assert is_cyclic_rule(make_coalition_rule(n, family, provenance=prov)) is True
    assert is_cyclic_rule(CCC(34, 32)) is None  # grid shifts, gcd 2: no n-cycle


def test_large_groups_are_never_listed():
    assert automorphism_group(Majority(10), cap=10).order == 3628800
    # Dictatorship(10) has 9! automorphisms, none of them a 10-cycle
    assert is_cyclic_rule(Dictatorship(10), factorial_cap=10) is False


def brute_pivot(rule, dist):
    n = rule.n
    space = (-1, 1) if dist == "binary" else (-1, 0, 1)
    counts = [0] * n
    for votes in itertools.product(space, repeat=n):
        ref = outcome(rule, votes)
        for v in range(n):
            for alt in (-1, 0, 1):
                if alt == votes[v]:
                    continue
                moved = votes[:v] + (alt,) + votes[v + 1 :]
                if outcome(rule, moved) != ref:
                    counts[v] += 1
                    break
    return tuple(Fraction(c, len(space) ** n) for c in counts)


def _orbit_rule(desc, seed):
    return build_rule_from_group(group_from_descriptor(desc), desc, seed=seed)


# every family at n <= 6, with and without a transitive certified group
PIVOT_RULES = st.one_of(
    st.integers(1, 6).map(Majority),
    st.integers(1, 6).map(LongestRun),
    dictatorships(max_n=6),
    grd_rules(max_n=6),
    st.builds(CCC, st.integers(1, 2), st.integers(1, 3)),
    coalition_rules(max_n=6),
    st.builds(
        _orbit_rule,
        st.sampled_from(
            [{"kind": "cyclic", "n": n} for n in range(3, 7)]
            + [{"kind": "pgl2", "p": p} for p in (2, 3, 5)]
        ),
        st.integers(0, 3),
    ),
)


@settings(max_examples=60, deadline=None)
@given(PIVOT_RULES)
def test_pivotality_matches_brute_force(rule):
    for dist in ("binary", "ternary"):
        assert pivotality(rule, distribution=dist) == brute_pivot(rule, dist)


def test_pivotality_frozen():
    assert pivotality(Majority(3)) == (Fraction(1, 2),) * 3
    assert pivotality(Majority(3), distribution="ternary") == (Fraction(7, 9),) * 3
    assert pivotality(Dictatorship(3)) == (Fraction(1), Fraction(0), Fraction(0))

    fano = build_projective_rule(2)
    assert pivotality(fano) == (Fraction(9, 32),) * 7
    assert pivotality(fano, distribution="ternary") == (Fraction(367, 729),) * 7


def test_pivotality_large_binary_path():
    # degree above the table cap: no outcome table, batch evaluation only
    assert pivotality(Majority(13)) == (Fraction(231, 1024),) * 13


def test_pivotality_caps(monkeypatch):
    with pytest.raises(InfeasibleError):
        pivotality(Majority(21))
    with pytest.raises(InfeasibleError):
        pivotality(Majority(13), distribution="ternary")
    with pytest.raises(ValueError):
        pivotality(Majority(3), distribution="gauss")

    def no_table(rule):
        raise AssertionError("built a table past the cap")

    # the caller's scan cap refuses the ternary table before it is built
    monkeypatch.setattr(analysis, "outcome_table", no_table)
    with pytest.raises(InfeasibleError):
        pivotality(Majority(12), distribution="ternary", scan_cap=5)
    report = analyze_rule(
        Majority(12), want_equity=False, pivot_distributions=("ternary",), scan_cap=5
    )
    assert report.pivotality == {"ternary": None}


# a share is swings / values^(n-1): a count over a power of two or three
SHARES = st.tuples(st.sampled_from((2, 3)), st.integers(0, 40)).flatmap(
    lambda base_k: st.tuples(
        st.integers(0, base_k[0] ** base_k[1]), st.just(base_k[0] ** base_k[1])
    )
)


@settings(max_examples=300, deadline=None)
@given(SHARES)
@example((0, 2**4))
@example((2**4, 2**4))
@example((0, 3**4))
@example((3**4, 3**4))
@example((0, 1))
@example((1, 1))
def test_share_text_is_the_fraction_text(share):
    count, total = share
    assert analysis._share_text(count, total) == str(Fraction(count, total))


@pytest.mark.parametrize(
    "rule, shares",
    [
        (LongestRun(5), {"binary": ["3/8"] * 5, "ternary": ["47/81"] * 5}),
        (
            Majority(12),
            {"binary": ["231/512"] * 12, "ternary": ["73789/177147"] * 12},
        ),
        (build_projective_rule(2), {"binary": ["9/32"] * 7, "ternary": ["367/729"] * 7}),
        (Dictatorship(3), {"binary": ["1", "0", "0"], "ternary": ["1", "0", "0"]}),
    ],
)
def test_report_shares_are_the_fraction_texts(rule, shares):
    # the texts `analyze --pivotality both` printed when it formatted Fractions
    report = analyze_rule(
        rule, want_equity=False, pivot_distributions=("binary", "ternary")
    )
    assert report.pivotality == shares
    assert {
        dist: [str(f) for f in pivotality(rule, distribution=dist)] for dist in shares
    } == shares


def test_sqrt_lower_bound():
    got = check_sqrt_lower_bound(Majority(5))
    assert got == {"n": 5, "min_size": 3, "bound_ok": True, "witness_overlap_ok": True}

    fano = check_sqrt_lower_bound(build_projective_rule(2))
    assert fano["min_size"] == 3
    assert fano["bound_ok"]
    assert fano["witness_overlap_ok"]

    lr9 = check_sqrt_lower_bound(
        LongestRun(9), search=min_winning_coalitions(LongestRun(9))
    )
    assert lr9["min_size"] == 5
    assert lr9["bound_ok"]
    assert lr9["witness_overlap_ok"]


def test_sqrt_lower_bound_without_certificate():
    # equitable only by the exhaustive check: the audit uses the full group
    assert certified_subgroup(Dictatorship(1)) is None
    got = check_sqrt_lower_bound(Dictatorship(1))
    assert got == {"n": 1, "min_size": 1, "bound_ok": True, "witness_overlap_ok": True}


def test_sqrt_lower_bound_rejects_inequitable():
    with pytest.raises(ValueError):
        check_sqrt_lower_bound(Dictatorship(4))
    with pytest.raises(ValueError):
        check_sqrt_lower_bound(GRD((0, 1, (2, 3, 4))))


def test_assignment_classes(monkeypatch):
    classes = assignment_classes(Majority(4))
    assert len(classes) == 1
    assert len(next(iter(classes.values()))) == 24

    by_dictator = assignment_classes(Dictatorship(4))
    assert sorted(len(v) for v in by_dictator.values()) == [6, 6, 6, 6]

    by_chair = assignment_classes(chair(4))
    assert sorted(len(v) for v in by_chair.values()) == [6, 6, 6, 6]

    with pytest.raises(InfeasibleError):
        assignment_classes(Majority(6))
    monkeypatch.setattr(analysis, "ASSIGNMENT_CAP", 6)
    assert len(assignment_classes(Majority(6))) == 1


def test_roles_equivalent():
    assert roles_equivalent(Dictatorship(4), 1, 2)
    assert not roles_equivalent(Dictatorship(4), 0, 1)
    assert roles_equivalent(chair(4), 1, 2)
    assert not roles_equivalent(chair(4), 0, 1)
    assert roles_equivalent(Majority(4), 0, 3)
    with pytest.raises(ValueError):
        roles_equivalent(Majority(4), 0, 4)


def test_assignment_menus():
    assert identity_class_realizes_all(Majority(4))
    assert has_uniform_assignment_menu(Majority(4))
    assert not identity_class_realizes_all(chair(4))
    assert not has_uniform_assignment_menu(chair(4))
    assert ASSIGNMENT_CAP == 5


def seating_classes_oracle(rule):
    """Seatings grouped by their outcomes, each through the scalar `outcome`
    over all 3^n profiles: seating a moves voter u's vote to voter a[u]."""
    n = rule.n
    classes = {}
    for a in itertools.permutations(range(n)):
        outcomes = []
        for votes in itertools.product((-1, 0, 1), repeat=n):
            seated = [0] * n
            for u in range(n):
                seated[a[u]] = votes[u]
            outcomes.append(outcome(rule, tuple(seated)))
        classes.setdefault(tuple(outcomes), set()).add(a)
    return list(classes.values())


SEATING_RULES = st.one_of(
    st.sampled_from(roles_catalog()),
    st.integers(1, 4).map(Majority),
    st.integers(1, 4).map(LongestRun),
    dictatorships(max_n=4),
    grd_rules(max_n=4),
    st.builds(CCC, st.integers(1, 2), st.integers(1, 2)),
    coalition_rules(max_n=4),
)


@settings(max_examples=100, deadline=None)
@given(SEATING_RULES)
# voters 0, {1, 2} and 3 are three orbits: some menu offers neither of two
# roles from different orbits, so one such menu does not decide equivalence
@example(make_coalition_rule(4, [(0, 1), (0, 2)]))
def test_seating_helpers_match_scalar_oracle(rule):
    n = rule.n
    want = seating_classes_oracle(rule)
    classes = list(assignment_classes(rule).values())
    got = {frozenset(a.images for a in c) for c in classes}
    assert got == set(map(frozenset, want))
    assert Permutation.identity(n) in classes[0]

    def offers(c, v, r):
        return any(a[v] == r for a in c)

    def full(c):
        return all(offers(c, v, r) for v in range(n) for r in range(n))

    for r1, r2 in itertools.product(range(n), repeat=2):
        assert roles_equivalent(rule, r1, r2) == all(
            offers(c, v, r1) == offers(c, v, r2) for c in want for v in range(n)
        )
    assert has_uniform_assignment_menu(rule) == any(map(full, want))
    identity = next(c for c in want if tuple(range(n)) in c)
    assert identity_class_realizes_all(rule) == full(identity)


def test_analyze_rule_full():
    report = analyze_rule(
        Majority(5),
        k=2,
        want_min_coalition=True,
        want_aut=True,
        want_cyclic=True,
        pivot_distributions=("binary",),
    )
    assert report.n == 5
    assert report.equitable == "true"
    assert report.k_equity == {"2": "true"}
    assert report.aut_order == 120
    assert report.cyclic == "true"
    assert report.min_coalition["size"] == 3
    assert report.min_coalition["witness_count"] == 10
    assert report.min_coalition["exact"]
    assert report.pivotality["binary"] == ["3/8"] * 5
    assert report.methods["equitable"] == "symmetric"
    assert report.methods["min_coalition"] == "table+monotone"


def test_analyze_rule_infeasible_markers():
    report = analyze_rule(
        LongestRun(14),
        want_min_coalition=True,
        want_aut=True,
        want_cyclic=True,
        pivot_distributions=("ternary",),
    )
    assert report.equitable == "true"
    assert report.methods["equitable"] == "rotation+structural"
    assert report.min_coalition is None
    assert report.methods["min_coalition"] == "infeasible"
    assert report.aut_order is None
    assert report.methods["aut_order"] == "infeasible"
    assert report.cyclic == "true"
    assert report.pivotality["ternary"] is None
