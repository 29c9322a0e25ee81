"""Acceptance gate: one test per shipped guarantee, at its stated budget.

Each test re-runs the corresponding verifier end to end and then spot-checks
a headline number through an independent call, so a silent verifier
regression cannot pass on its own say-so.
"""

import json
import math
import time
from pathlib import Path

from equivote.analysis import (
    automorphism_group,
    grd_recursion_bound,
    is_cyclic_rule,
    is_equitable,
    is_winning_coalition,
    min_winning_coalitions,
    pivotality,
)
from equivote.cli import main
from equivote.geometry import build_projective_rule, projective_plane
from equivote.randomized import build_3_equitable_rule
from equivote.rules import (
    CCC,
    Dictatorship,
    GRD,
    LongestRun,
    Majority,
    uniform_grd,
)
from equivote.verify import proof_coalition, verify_claim


def test_criterion_01_proof_coalition_wins_at_every_size():
    t0 = time.monotonic()
    report = verify_claim("thm1")
    assert report.passed
    coalition = proof_coalition(9)
    assert is_winning_coalition(LongestRun(9), coalition)
    assert len(coalition) <= 2 * math.isqrt(9) - 1
    assert time.monotonic() - t0 < 60


def test_criterion_02_sqrt_lower_bound_on_catalog():
    t0 = time.monotonic()
    report = verify_claim("thm2")
    assert report.passed
    assert min_winning_coalitions(LongestRun(9)).min_size == 5
    assert min_winning_coalitions(build_projective_rule(2)).min_size == 3
    assert time.monotonic() - t0 < 300


def test_criterion_03_ternary_tree_minima():
    t0 = time.monotonic()
    report = verify_claim("thm3")
    assert report.passed
    assert min_winning_coalitions(uniform_grd((3, 3))).min_size == 4
    assert [grd_recursion_bound(3**d) for d in (1, 2, 3)] == [2, 4, 8]
    assert time.monotonic() - t0 < 120


def test_criterion_04_plane_rule_structure():
    t0 = time.monotonic()
    report = verify_claim("thm7")
    assert report.passed
    rule = build_projective_rule(2)
    search = min_winning_coalitions(rule)
    assert set(search.witnesses) == set(projective_plane(2).lines)
    assert automorphism_group(rule).order == 168
    assert time.monotonic() - t0 < 120


def test_criterion_05_randomized_pipeline():
    t0 = time.monotonic()
    report = verify_claim("thm8")
    assert report.passed
    got = build_3_equitable_rule(5)
    assert got.group_order == 120
    assert len(got.points) <= got.set_size_bound
    assert len(got.points) <= got.coalition_size_bound
    assert len(got.points) <= 2 * got.ell
    assert time.monotonic() - t0 < 120


def test_criterion_06_coalition_rules_neutral_responsive():
    t0 = time.monotonic()
    report = verify_claim("lemma1")
    assert report.passed
    assert time.monotonic() - t0 < 180


def test_criterion_07_majority_floor():
    t0 = time.monotonic()
    report = verify_claim("lemma3")
    assert report.passed
    assert min_winning_coalitions(Majority(6)).min_size == 4
    assert time.monotonic() - t0 < 10


def test_criterion_08_roles_match_symmetry():
    t0 = time.monotonic()
    assert verify_claim("prop1A").passed
    assert verify_claim("prop1B").passed
    assert time.monotonic() - t0 < 180


def test_criterion_09_cyclic_verdicts():
    t0 = time.monotonic()
    report = verify_claim("prop3")
    assert report.passed
    assert is_cyclic_rule(LongestRun(7)) is True
    assert is_cyclic_rule(Dictatorship(5)) is False
    assert verify_claim("prop4").passed
    assert time.monotonic() - t0 < 60


def test_criterion_10_equitable_rules_have_flat_pivotality():
    t0 = time.monotonic()
    catalog = (
        [Majority(n) for n in range(3, 9)]
        + [LongestRun(n) for n in range(4, 9)]
        + [CCC(2, 2), CCC(2, 3), build_projective_rule(2)]
    )
    for rule in catalog:
        assert is_equitable(rule) is True
        for dist in ("binary", "ternary"):
            vec = pivotality(rule, distribution=dist)
            assert len(set(vec)) == 1
    dictator = pivotality(Dictatorship(4))
    assert dictator[0] == 1 and set(dictator[1:]) == {0}
    assert time.monotonic() - t0 < 120


def test_criterion_11_lopsided_tree_breaks_the_bound():
    t0 = time.monotonic()
    rule = GRD((0, 1, (2, 3, 4)))
    search = min_winning_coalitions(rule)
    assert search.min_size == 2
    assert search.witnesses == ((0, 1),)
    assert 2 * 2 < 5
    assert is_equitable(rule) is False
    assert time.monotonic() - t0 < 10


REFERENCE = (
    Path(__file__).resolve().parent.parent
    / "bench" / "reference" / "verify-suite" / "verify-all.out"
)


def test_criterion_12_verify_all_byte_identical(capsys, tmp_path):
    outs = []
    for i, workers in enumerate((1, 1, 2)):
        path = tmp_path / f"run{i}.json"
        rc = main(
            [
                "verify",
                "all",
                "--workers",
                str(workers),
                "--format",
                "machine",
                "--out",
                str(path),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2] == REFERENCE.read_bytes()
    doc = json.loads(outs[0])
    assert doc["passed"] is True
    assert len(doc["reports"]) == 11
