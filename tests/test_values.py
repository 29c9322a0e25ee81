"""Value semantics of equivote's frozen records: equality, hashing,
immutability, defaults, field checks and report documents."""

import pytest

from equivote.analysis import AnalysisReport, MinCoalitionSearch, analyze_rule
from equivote.geometry import projective_plane
from equivote.perms import PermGroup, Permutation, symmetric_generators
from equivote.profiles import VoteProfile
from equivote.randomized import IntersectingSet
from equivote.rules import (
    CCC,
    GRD,
    CoalitionRule,
    Dictatorship,
    EquityCertificate,
    LongestRun,
    Majority,
    ccc_family,
    make_coalition_rule,
    uniform_grd,
)
from equivote.serialize import canonical_json, report_to_dict
from equivote.verify import CheckResult, VerificationReport


def sample_values():
    group = PermGroup(4, symmetric_generators(4))
    return [
        Majority(5),
        LongestRun(5),
        Dictatorship(5, 2),
        uniform_grd((3, 3)),
        CCC(3, 4),
        make_coalition_rule(3, [[0, 1], [1, 2], [0, 2]]),
        Permutation((1, 2, 0)),
        group,
        VoteProfile((1, 0, -1)),
        EquityCertificate(group, "symmetric", cycle=Permutation.rotation(4)),
        AnalysisReport(n=5, equitable="true"),
        MinCoalitionSearch(3, ((0, 1, 2),), True, 3, 25, "table+slab", True),
        IntersectingSet((0, 1), 2, 1, 6, True),
        CheckResult("c", True),
        projective_plane(2),
    ]


def test_rules_of_different_families_differ():
    assert Majority(5) != LongestRun(5)
    assert LongestRun(5) != Majority(5)
    assert Majority(5) != Dictatorship(5)
    assert Majority(5) == Majority(5)
    assert Majority(5) != Majority(7)
    assert Majority(5) != 5


PAIRS = list(zip(sample_values(), sample_values()))
IDS = [type(value).__name__ for value, _ in PAIRS]


@pytest.mark.parametrize("value, twin", PAIRS, ids=IDS)
def test_equal_values_hash_equal(value, twin):
    assert twin is not value
    assert twin == value
    assert hash(twin) == hash(value)
    assert len({twin, value}) == 1


def test_value_with_a_dict_field_compares_but_does_not_hash():
    report = VerificationReport("thm1", True, (CheckResult("c", True),), {"ns": [4]}, 0.0)
    twin = VerificationReport("thm1", True, (CheckResult("c", True),), {"ns": [4]}, 0.0)
    assert report == twin
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(AttributeError):
        report.passed = False


def test_ccc_equals_coalition_document_with_its_family():
    grid = CCC(3, 4)
    document = make_coalition_rule(12, ccc_family(3, 4))
    assert grid.grid == (3, 4) and document.grid is None
    assert grid == document and hash(grid) == hash(document)
    noted = make_coalition_rule(12, ccc_family(3, 4), provenance={"kind": "ccc"})
    assert noted == document and hash(noted) == hash(document)
    assert grid != make_coalition_rule(12, ccc_family(3, 4)[:-1])
    assert grid != CoalitionRule(13, ccc_family(3, 4))


@pytest.mark.parametrize("value", [value for value, _ in PAIRS], ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    field = next(iter(vars(value)))
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1
    assert getattr(value, field) is before


def test_defaults_and_keywords():
    assert Dictatorship(5).dictator == 0
    assert Dictatorship(n=5, dictator=3) == Dictatorship(5, 3)
    group = PermGroup(n=3, generators=(Permutation.rotation(3),))
    cert = EquityCertificate(group, "rotation")
    assert (cert.validated, cert.cycle) == (False, None)
    rule = make_coalition_rule(3, [[0, 1], [1, 2], [0, 2]])
    assert (rule.provenance, rule.grid) == (None, None)
    report = AnalysisReport(n=4)
    assert report.equitable is None and report.methods is None
    assert CheckResult("c", False).detail == ""
    with pytest.raises(TypeError):
        Majority()
    with pytest.raises(TypeError):
        Majority(5, 6)
    with pytest.raises(TypeError):
        Majority(m=5)
    with pytest.raises(TypeError):
        Dictatorship(5, n=5)


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="n must be positive"):
        Majority(0)
    with pytest.raises(ValueError, match="n must be positive"):
        LongestRun(n=0)
    with pytest.raises(ValueError, match="dictator out of range"):
        Dictatorship(5, 5)
    with pytest.raises(ValueError, match="leaves"):
        GRD((0, 2))
    with pytest.raises(ValueError, match="disjoint"):
        CoalitionRule(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 0))
    with pytest.raises(ValueError, match="generator degree mismatch"):
        PermGroup(4, (Permutation.rotation(3),))
    with pytest.raises(ValueError, match="invalid vote"):
        VoteProfile((2,))


def test_cached_properties_on_frozen_values():
    tree = uniform_grd((3, 3))
    assert tree.n == 9 and tree.n == 9
    group = PermGroup(4, symmetric_generators(4))
    assert group.order == 24
    assert len(list(group.walk())) == 24 and group._chain is group._chain
    assert group == PermGroup(4, symmetric_generators(4))


def test_repr_names_class_and_fields():
    assert repr(Majority(5)) == "Majority(n=5)"
    assert repr(Dictatorship(4)) == "Dictatorship(n=4, dictator=0)"
    assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
    assert repr(CheckResult("c", True)) == "CheckResult(name='c', passed=True, detail='')"


def test_report_to_dict_bytes_unchanged():
    report = analyze_rule(
        LongestRun(5),
        k=2,
        want_min_coalition=True,
        want_aut=True,
        want_cyclic=True,
        pivot_distributions=("binary", "ternary"),
    )
    assert canonical_json(report_to_dict(report)) == (
        '{"aut_order":10,"cyclic":"true","equitable":"true","format":1,'
        '"k_equity":{"2":"false"},"kind":"analysis","methods":{"aut_order":'
        '"exhaustive","equitable":"rotation","min_coalition":"table+slab",'
        '"pivotality":"exhaustive"},"min_coalition":{"exact":true,"lower_bound":3,'
        '"size":3,"subsets_checked":25,"witness_count":10,"witnesses":[[0,1,2],'
        "[0,1,3],[0,1,4],[0,2,3],[0,2,4],[0,3,4],[1,2,3],[1,2,4],[1,3,4],[2,3,4]],"
        '"witnesses_complete":true},"n":5,"pivotality":{"binary":["3/8","3/8",'
        '"3/8","3/8","3/8"],"ternary":["47/81","47/81","47/81","47/81","47/81"]}}'
    )
