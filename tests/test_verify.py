import json
import math
from pathlib import Path

import pytest

from equivote.verify import (
    CLAIM_IDS,
    proof_coalition,
    verification_to_dict,
    verify_claim,
)


def test_claim_ids():
    assert len(CLAIM_IDS) == 11
    assert len(set(CLAIM_IDS)) == 11


def test_verify_claim_dispatch():
    report = verify_claim("lemma3", ns=[3, 4])
    assert report.claim == "lemma3"
    assert report.passed
    assert report.params["ns"] == [3, 4]


def test_verify_claim_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_claim("thm99")
    with pytest.raises(ValueError):
        verify_claim("thm1", primes=[3])
    with pytest.raises(ValueError):
        verify_claim("lemma1", ns=[4])


def test_report_to_dict_modes():
    report = verify_claim("lemma3", ns=[3])
    machine = verification_to_dict(report)
    assert "wall_time_s" not in machine
    assert machine["passed"] is True
    assert all(c["passed"] for c in machine["checks"])


def test_proof_coalition_shape():
    assert proof_coalition(9) == (0, 1, 2, 3, 6)
    assert proof_coalition(16) == (0, 1, 2, 3, 4, 8, 12)
    for n in range(4, 17):
        got = proof_coalition(n)
        r = math.ceil(math.sqrt(n))
        assert got == tuple(sorted(got))
        assert set(range(r)) <= set(got)
        assert len(got) <= 2 * r - 1


def test_thm3_one_voter_tree():
    # the one-voter tree has one minimal coalition, {0}
    report = verify_claim("thm3", depths=[0])
    assert report.passed
    counts = {c.name: c.detail for c in report.checks}
    assert counts["witness_count_d0"] == "found=1 formula=1"


def test_report_with_no_checks_fails():
    report = verify_claim("thm1", ns=[])
    assert report.checks == ()
    assert not report.passed


REFERENCE = (
    Path(__file__).resolve().parent.parent
    / "bench" / "reference" / "verify-suite" / "verify-all.out"
)


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_report_matches_reference_suite(claim):
    suite = json.loads(REFERENCE.read_text())
    assert list(suite["reports"]) == sorted(CLAIM_IDS)
    assert verification_to_dict(verify_claim(claim)) == suite["reports"][claim]


def test_verifier_error_before_first_check_propagates():
    # depth 14 is refused while the trees are built, before depth 8 is checked
    with pytest.raises(ValueError, match="outside 1..16384"):
        verify_claim("thm3", depths=[8, 14])
