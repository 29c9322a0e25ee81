import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivote.analysis import COALITION_BUDGET
from equivote.cli import SCAN_CAP_LIMIT, main
from equivote.serialize import load_rule_file, loads_rule, rule_from_dict, rule_to_dict
from equivote.verify import CLAIM_IDS, CheckResult, VerificationReport

REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_rule(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    rc, _, err = run(capsys, "construct", *argv, "--out", str(path))
    assert rc == 0, err
    return str(path)


def test_eval_majority(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "maj3.rule", "--type", "majority", "--n", "3")
    rc, out, _ = run(capsys, "eval", "--rule", rule, "--profile", "1,1,-1")
    assert (rc, out) == (0, "1\n")


def test_eval_longest_run(capsys, tmp_path):
    rule = make_rule(
        capsys, tmp_path, "lr5.rule", "--type", "longest_run", "--n", "5"
    )
    rc, out, _ = run(capsys, "eval", "--rule", rule, "--profile", "1,1,1,-1,-1")
    assert (rc, out) == (0, "1\n")
    rc, out, _ = run(capsys, "eval", "--rule", rule, "--profile", "1, 0, 0, 1, -1")
    assert (rc, out) == (0, "1\n")


def test_eval_grd(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "grd.rule", "--type", "grd", "--branching", "3,3")
    rc, out, _ = run(
        capsys, "eval", "--rule", rule, "--profile", "1,1,1,1,1,-1,-1,-1,-1"
    )
    assert (rc, out) == (0, "1\n")


def test_construct_documents(capsys, tmp_path):
    fano = json.loads(Path(make_rule(capsys, tmp_path, "f.rule", "--type", "fano", "--p", "2")).read_text())
    assert fano["type"] == "coalition"
    assert fano["n"] == 7
    assert fano["provenance"]["kind"] == "projective_plane"

    grd = json.loads(Path(make_rule(capsys, tmp_path, "g.rule", "--type", "grd", "--branching", "3,3")).read_text())
    assert grd["tree"] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    orbit = json.loads(
        Path(
            make_rule(
                capsys,
                tmp_path,
                "o.rule",
                "--type",
                "group_orbit",
                "--group",
                "cyclic",
                "--n",
                "16",
                "--seed",
                "0",
            )
        ).read_text()
    )
    assert orbit["n"] == 16
    assert orbit["provenance"]["kind"] == "group_orbit"
    assert orbit["provenance"]["group"] == {"kind": "cyclic", "n": 16}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("majority",), "--n"),
        (("dictatorship", "--dictator", "1"), "--n"),
        (("ccc", "--rows", "2"), "--cols"),
        (("ccc", "--cols", "2"), "--rows"),
    ],
)
def test_construct_missing_flag_is_named(capsys, argv, flag):
    rc, out, err = run(capsys, "construct", "--type", *argv)
    assert (rc, out, err) == (2, "", f"error: {flag} is required for this type\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("majority", "--n", "5"),
        ("longest_run", "--n", "9"),
        ("dictatorship", "--n", "4", "--dictator", "2"),
        ("grd", "--branching", "3,2"),
        ("ccc", "--rows", "3", "--cols", "4"),
        ("fano", "--p", "2"),
        ("group_orbit", "--group", "cyclic", "--n", "16"),
        ("group_orbit", "--group", "pgl2", "--p", "13"),
    ],
)
def test_every_constructed_document_reads_back(capsys, argv):
    rc, out, err = run(capsys, "construct", "--type", *argv)
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert rule_to_dict(rule_from_dict(doc)) == doc


def test_construct_refuses_what_a_reader_refuses(capsys, tmp_path):
    out = tmp_path / "big.rule"
    rc, stdout, err = run(capsys, "construct", "--type", "majority", "--n", "20000", "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert err == "error: rule field 'n': 20000 voters, above the limit of 16384\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, group, flag",
    [
        (("verify", "prop4"), "pgl2", "--p"),
        (("verify", "prop4"), "cyclic", "--n"),
        (("construct", "--type", "group_orbit"), "pgl2", "--p"),
        (("construct", "--type", "group_orbit"), "cyclic", "--n"),
    ],
)
def test_group_without_its_size_is_named(capsys, command, group, flag):
    rc, out, err = run(capsys, *command, "--group", group)
    assert (rc, out, err) == (2, "", f"error: --group {group} needs {flag}\n")


def test_construct_missing_flag(capsys):
    rc, _, err = run(capsys, "construct", "--type", "group_orbit", "--seed", "1")
    assert rc == 2


def test_eval_errors(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "m5.rule", "--type", "majority", "--n", "5")
    rc, _, err = run(capsys, "eval", "--rule", rule, "--profile", "1,1")
    assert rc == 2
    assert "error:" in err
    rc, _, err = run(capsys, "eval", "--rule", rule, "--profile", "1,x,1,1,1")
    assert rc == 2
    rc, _, err = run(capsys, "eval", "--rule", str(tmp_path / "no.rule"), "--profile", "1")
    assert rc == 2
    bad = tmp_path / "bad.rule"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "eval", "--rule", str(bad), "--profile", "1")
    assert rc == 2


def test_analyze_machine(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "fano.rule", "--type", "fano", "--p", "2")
    rc, out, _ = run(
        capsys,
        "analyze",
        "--rule",
        rule,
        "--equity",
        "--k",
        "2",
        "--format",
        "machine",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["equitable"] == "true"
    assert doc["k_equity"] == {"2": "true"}
    assert doc["rule"]["type"] == "coalition"
    assert doc["caps"]["workers"] == 1


def test_analyze_workers_has_no_effect(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "lr9.rule", "--type", "longest_run", "--n", "9")
    docs = []
    for workers in ("1", "2"):
        rc, out, _ = run(
            capsys,
            "analyze",
            "--rule",
            rule,
            "--equity",
            "--min-coalition",
            "--workers",
            workers,
            "--format",
            "machine",
        )
        assert rc == 0
        docs.append(json.loads(out))
    assert [doc["caps"].pop("workers") for doc in docs] == [1, 2]
    assert docs[0] == docs[1]
    assert docs[0]["min_coalition"]["size"] == 5


def test_analyze_dictatorship(capsys, tmp_path):
    rule = make_rule(
        capsys, tmp_path, "d.rule", "--type", "dictatorship", "--n", "4"
    )
    rc, out, _ = run(capsys, "analyze", "--rule", rule, "--equity", "--format", "machine")
    assert rc == 0
    assert json.loads(out)["equitable"] == "false"


def test_analyze_min_coalition(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "m5.rule", "--type", "majority", "--n", "5")
    rc, out, _ = run(
        capsys, "analyze", "--rule", rule, "--min-coalition", "--format", "machine"
    )
    assert rc == 0
    assert json.loads(out)["min_coalition"]["size"] == 3


def test_witness_limit_cuts_a_kernel_scan(capsys, tmp_path):
    # above the scan cap, with no transitive group and an even node, every
    # size is scanned by the kernel; size 10 has 43,758 winners, so the
    # witness list fills up inside that scan
    rule = tmp_path / "grd20.rule"
    rule.write_text(json.dumps({"format": 1, "type": "grd", "tree": [*range(18), [18, 19]]}))
    rc, out, _ = run(
        capsys, "analyze", "--rule", str(rule), "--min-coalition", "--format", "machine"
    )
    assert rc == 0
    search = json.loads(out)["min_coalition"]
    assert (search["size"], search["witness_count"], search["witnesses_complete"]) == (
        10,
        20000,
        False,
    )
    assert search["subsets_checked"] == 616665
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "ab5691478193cab12fb12acf5b4d02fc1dfc332d8b1cf7bcee952ae27b04533c"


def test_analyze_caps(capsys, tmp_path):
    rule = make_rule(
        capsys, tmp_path, "lr9.rule", "--type", "longest_run", "--n", "9"
    )
    rc, _, err = run(capsys, "analyze", "--rule", rule, "--caps", "depth=3")
    assert rc == 2
    assert "unknown cap" in err
    rc, out, _ = run(
        capsys,
        "analyze",
        "--rule",
        rule,
        "--equity",
        "--min-coalition",
        "--caps",
        "scan=5",
        "--format",
        "machine",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["caps"]["scan"] == 5
    assert doc["equitable"] == "true"
    assert doc["methods"]["equitable"] == "rotation+structural"
    assert doc["methods"]["min_coalition"] == "infeasible"
    assert "min_coalition" not in doc


def test_analyze_refuses_scan_cap_above_limit(capsys, tmp_path):
    maj30 = make_rule(capsys, tmp_path, "maj30.rule", "--type", "majority", "--n", "30")
    request = ["analyze", "--rule", maj30, "--min-coalition", "--equity"]
    for value in (SCAN_CAP_LIMIT + 1, 30):
        rc, out, err = run(capsys, *request, "--caps", f"scan={value}")
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "exceeds the limit" in err
    rc, out, _ = run(capsys, *request, "--caps", f"scan={SCAN_CAP_LIMIT}")
    assert rc == 0
    assert json.loads(out)["caps"]["scan"] == SCAN_CAP_LIMIT


def test_analyze_refuses_factorial_cap_above_limit(capsys, tmp_path):
    maj5 = make_rule(capsys, tmp_path, "maj5.rule", "--type", "majority", "--n", "5")
    request = ["analyze", "--rule", maj5, "--aut-order", "--format", "machine"]
    for value in (SCAN_CAP_LIMIT + 1, 30):
        rc, out, err = run(capsys, *request, "--caps", f"factorial={value}")
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and f"factorial={value} exceeds the limit" in err
    rc, out, _ = run(capsys, *request, "--caps", f"factorial={SCAN_CAP_LIMIT}")
    assert rc == 0
    assert json.loads(out)["aut_order"] == 120


def test_analyze_refuses_negative_and_repeated_caps(capsys, tmp_path):
    maj5 = make_rule(capsys, tmp_path, "maj5.rule", "--type", "majority", "--n", "5")
    request = ["analyze", "--rule", maj5, "--min-coalition", "--format", "machine"]
    for caps, message in (
        ("budget=-1", "cap budget=-1 is negative"),
        ("scan=-3", "cap scan=-3 is negative"),
        ("factorial=-1", "cap factorial=-1 is negative"),
        ("scan=12,scan=13", "cap 'scan' given twice"),
        ("budget=5, budget=5", "cap 'budget' given twice"),
    ):
        rc, out, err = run(capsys, *request, "--caps", caps)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and message in err
    rc, out, _ = run(capsys, *request, "--caps", "scan=0,budget=0")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["caps"]["scan"], doc["caps"]["budget"]) == (0, 0)
    assert doc["min_coalition"]["lower_bound"] == 1


def test_analyze_has_no_budget_option(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "m5.rule", "--type", "majority", "--n", "5")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "analyze", "--rule", rule, "--min-coalition", "--budget", "10")
    assert exc.value.code == 2
    rc, out, _ = run(capsys, "analyze", "--rule", rule, "--min-coalition")
    assert json.loads(out)["caps"]["budget"] == COALITION_BUDGET


def test_analyze_caps_bound_every_scan(capsys, tmp_path):
    maj12 = make_rule(capsys, tmp_path, "maj12.rule", "--type", "majority", "--n", "12")
    request = ["analyze", "--rule", maj12, "--equity", "--k", "2", "--min-coalition"]
    request += ["--pivotality", "ternary", "--format", "machine"]
    rc, out, _ = run(capsys, *request)
    reference = REPO / "bench" / "reference" / "analyze-table" / "maj12.out"
    assert (rc, out) == (0, reference.read_text())
    rc, out, _ = run(capsys, *request, "--caps", "scan=5")
    assert rc == 0
    assert json.loads(out)["pivotality"] == {"ternary": None}

    # the Fano lines without provenance: only the family stabilizer certifies
    fano = make_rule(capsys, tmp_path, "f.rule", "--type", "fano", "--p", "2")
    doc = json.loads(Path(fano).read_text())
    del doc["provenance"]
    lines = tmp_path / "lines.rule"
    lines.write_text(json.dumps(doc))
    request = ["analyze", "--rule", str(lines), "--equity", "--format", "machine"]
    for caps, verdict, method in (
        ([], "true", "family_stabilizer"),
        (["--caps", "factorial=4"], "unknown", "capped"),
    ):
        rc, out, _ = run(capsys, *request, *caps)
        got = json.loads(out)
        assert (rc, got["equitable"], got["methods"]["equitable"]) == (0, verdict, method)


def test_verify_human(capsys):
    rc, out, _ = run(capsys, "verify", "lemma3")
    assert rc == 0
    assert "[PASS] lemma3" in out
    assert out.strip().endswith("overall: PASS")

    # one line per claim, in CLAIM_IDS order, then the overall verdict
    rc, out, _ = run(capsys, "verify", "all")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "overall: PASS"
    assert len(lines) == len(CLAIM_IDS) + 1
    for claim, line in zip(CLAIM_IDS, lines):
        got = re.fullmatch(
            rf"\[PASS\] {claim}: (\d+)/(\d+) checks \(\d+\.\d\ds\)", line
        )
        assert got, line
        assert got[1] == got[2] != "0"


def test_verify_machine_deterministic(capsys, tmp_path):
    rc1, out1, _ = run(capsys, "verify", "lemma3", "--format", "machine")
    rc2, out2, _ = run(capsys, "verify", "lemma3", "--format", "machine")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert doc["reports"]["lemma3"]["passed"] is True
    assert "wall_time_s" not in doc["reports"]["lemma3"]

    path = tmp_path / "verify.json"
    rc3, out3, _ = run(
        capsys, "verify", "lemma3", "--format", "machine", "--out", str(path)
    )
    assert rc3 == 0
    assert out3 == ""
    assert path.read_text() == out1


def test_verify_overrides(capsys):
    rc, out, _ = run(capsys, "verify", "lemma3", "--n", "3,5", "--format", "machine")
    assert rc == 0
    assert json.loads(out)["reports"]["lemma3"]["params"]["ns"] == [3, 5]

    rc, _, _ = run(capsys, "verify", "thm3", "--depth", "1")
    assert rc == 0

    rc, _, _ = run(
        capsys, "verify", "prop4", "--group", "cyclic", "--n", "16", "--seed", "0"
    )
    assert rc == 0


# each override the claim does not take, and the flags its refusal names
REFUSED_FLAGS = {
    ("lemma1", "--n", "4"): "--n",
    ("thm7", "--seed", "1"): "--seed",
    ("thm1", "--p", "3"): "--p",
    ("prop4", "--seed", "3"): "--seed",
    ("prop4", "--group", "pgl2", "--p", "5", "--n", "5"): "--n",
    ("thm1", "--group", "cyclic", "--n", "5"): "--group",
    ("thm1", "--group", "pgl2", "--n", "5"): "--group",
    ("lemma1", "--n", "4", "--seed", "2", "--p", "3"): "--n, --p, --seed",
}


@pytest.mark.parametrize("argv", list(REFUSED_FLAGS))
def test_verify_refuses_flags_the_claim_does_not_take(capsys, argv):
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: claim {argv[0]!r} ")
    assert err.count("\n") == 1
    assert err == f"error: claim {argv[0]!r} does not accept {REFUSED_FLAGS[argv]}\n"


def test_verify_override_rejects_all(capsys):
    rc, _, err = run(capsys, "verify", "all", "--n", "4")
    assert rc == 2
    assert "single claim" in err


def test_verify_bad_grid(capsys):
    rc, _, err = run(capsys, "verify", "lemma3", "--n", "x..y")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "claim, flag, grid", [("thm1", "--n", "5..4"), ("thm8", "--p", ",")]
)
def test_verify_empty_grid_exits_two(capsys, claim, flag, grid):
    rc, out, err = run(capsys, "verify", claim, flag, grid)
    assert (rc, out) == (2, "")
    assert err == f"error: empty grid {grid!r}\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    import equivote.cli as cli

    broken = VerificationReport(
        claim="lemma3",
        passed=False,
        checks=(CheckResult(name="probe", passed=False, detail="forced"),),
        params={},
        wall_time=0.0,
    )
    monkeypatch.setattr(cli, "verify_claim", lambda claim, **kw: broken)
    rc, out, _ = run(capsys, "verify", "lemma3")
    assert rc == 1
    assert "[FAIL] lemma3" in out
    assert "FAIL probe: forced" in out
    assert out.strip().endswith("overall: FAIL")

    rc, out, _ = run(capsys, "verify", "lemma3", "--format", "machine")
    assert rc == 1
    assert json.loads(out)["passed"] is False


def test_bad_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm99"])
    assert exc.value.code == 2


def test_construct_serialize_parse_analyze_roundtrip(capsys, tmp_path):
    first = make_rule(capsys, tmp_path, "c34.rule", "--type", "ccc", "--rows", "3", "--cols", "4")
    reparsed = tmp_path / "c34b.rule"
    from equivote.serialize import dumps_rule

    reparsed.write_text(dumps_rule(load_rule_file(first)) + "\n")
    assert reparsed.read_text() == Path(first).read_text()

    rc1, out1, _ = run(
        capsys, "analyze", "--rule", first, "--equity", "--cyclic", "--format", "machine"
    )
    rc2, out2, _ = run(
        capsys, "analyze", "--rule", str(reparsed), "--equity", "--cyclic", "--format", "machine"
    )
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["equitable"] == "true"
    assert doc["cyclic"] == "true"


def test_malformed_rule_documents_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.rule"
    for doc in (
        {"format": 1, "type": "majority"},
        [{"format": 1, "type": "majority", "n": 3}],
        {"format": 1, "type": "majority", "n": "3"},
        {"format": 1, "type": "dictatorship", "n": 3, "dictator": True},
        {"format": 1, "type": "majority", "n": 2_000_000},
    ):
        path.write_text(json.dumps(doc))
        for argv in (
            ("eval", "--rule", str(path), "--profile", "1,1,-1"),
            ("analyze", "--rule", str(path), "--equity"),
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, ""), doc
            assert err.startswith("error: ") and err.count("\n") == 1


def test_oversized_groups_exit_two(capsys):
    start = time.perf_counter()
    for argv in (
        ("--group", "pgl2", "--p", "101"),
        ("--group", "cyclic", "--n", "20000"),
        ("--group", "cyclic", "--n", "2000"),
    ):
        rc, out, err = run(capsys, "construct", "--type", "group_orbit", *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "argv, voters",
    [
        (("construct", "--type", "grd", "--branching", ",".join(["3"] * 14)), 3**14),
        (("construct", "--type", "grd", "--branching", ",".join(["3"] * 10)), 3**10),
        (("verify", "thm3", "--depth", "14"), 3**14),
        # a zero arity below 14 levels of 3s would make 3^14 empty nodes
        (("construct", "--type", "grd", "--branching", "3," * 14 + "0"), 0),
    ],
)
def test_oversized_trees_exit_two_before_they_are_built(capsys, argv, voters):
    # a tree of 3^14 leaves takes over 20 s to build
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: branching gives {voters} voters, outside 1..16384\n"
    assert time.perf_counter() - start < 1.0


def test_oversized_depth_refused_before_any_depth_is_checked(capsys, monkeypatch):
    import equivote.verify as verify

    calls = []
    real = verify.grd_min_coalition_structural
    monkeypatch.setattr(
        verify,
        "grd_min_coalition_structural",
        lambda tree: calls.append(tree) or real(tree),
    )
    rc, out, err = run(capsys, "verify", "thm3", "--depth", "8,14")
    assert (rc, out, len(calls)) == (2, "", 0)
    assert err == f"error: branching gives {3**14} voters, outside 1..16384\n"


def test_nonpositive_size_refused_before_any_size_is_checked(capsys, monkeypatch):
    import equivote.verify as verify

    calls = []
    real = verify.proof_coalition
    monkeypatch.setattr(verify, "proof_coalition", lambda n: calls.append(n) or real(n))
    for sizes in ("0", "4,-1"):
        rc, out, err = run(capsys, "verify", "thm1", "--n", sizes)
        assert (rc, out, len(calls)) == (2, "", 0)
        assert err == "error: n must be positive\n"


def test_largest_uniform_tree_within_the_limit_is_built(capsys):
    rc, out, _ = run(capsys, "construct", "--type", "grd", "--branching", "2," * 13 + "2")
    assert rc == 0
    assert loads_rule(out).n == 2**14  # MAX_DEGREE itself


def test_oversized_plane_group_is_capped(capsys, tmp_path):
    rule = make_rule(capsys, tmp_path, "fano5.rule", "--type", "fano", "--p", "5")
    start = time.perf_counter()
    rc, out, _ = run(capsys, "analyze", "--rule", rule, "--equity", "--format", "machine")
    assert time.perf_counter() - start < 10.0
    assert rc == 0
    doc = json.loads(out)
    assert (doc["equitable"], doc["methods"]) == ("unknown", {"equitable": "capped"})


def test_unnamed_cyclic_orbit_equity_finishes_in_seconds(capsys, tmp_path):
    # with no provenance to name the rotation, the family stabilizer of this
    # sub-kilobyte document once walked most of Sym(13) for minutes
    path = tmp_path / "c13.rule"
    make_rule(capsys, tmp_path, "c13.rule", "--type", "group_orbit", "--group", "cyclic",
              "--n", "13", "--seed", "0")
    doc = json.loads(path.read_text())
    del doc["provenance"]
    path.write_text(json.dumps(doc))
    done = subprocess.run(
        [sys.executable, "-m", "equivote.cli", "analyze", "--rule", str(path),
         "--equity", "--caps", "factorial=13", "--format", "machine"],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["equitable"], report["methods"]) == (
        "true", {"equitable": "family_stabilizer"}
    )


def _valid_documents():
    sizes = st.integers(1, 6)
    return st.one_of(
        sizes.map(lambda n: {"type": "majority", "n": n}),
        sizes.map(lambda n: {"type": "longest_run", "n": n}),
        sizes.flatmap(
            lambda n: st.integers(0, n - 1).map(
                lambda d: {"type": "dictatorship", "n": n, "dictator": d}
            )
        ),
        st.sampled_from([0, [0, 1, 2], [[0, 1], [2, 3]], [0, 1, [2, 3, 4]]]).map(
            lambda tree: {"type": "grd", "tree": tree}
        ),
        st.tuples(st.integers(1, 3), st.integers(1, 2)).map(
            lambda rc: {"type": "ccc", "rows": rc[0], "cols": rc[1]}
        ),
        st.sampled_from([[[0]], [[0, 1], [1, 2], [0, 2]]]).map(
            lambda family: {"type": "coalition", "n": 3, "family": family}
        ),
    ).map(lambda doc: {"format": 1, **doc})


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(
        st.one_of(st.integers(-1, 3), st.booleans(), st.lists(st.integers(-1, 3), max_size=2)),
        max_size=3,
    ),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
_DROP = object()
_KEYS = (
    "format", "type", "n", "dictator", "tree", "rows", "cols", "family", "provenance", "x",
)


def _mutate(doc_and_edits):
    doc, edits = doc_and_edits
    for key, value in edits:
        if value is _DROP:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


_DOCUMENTS = st.one_of(
    _valid_documents(),
    st.tuples(
        _valid_documents(),
        st.lists(
            st.tuples(st.sampled_from(_KEYS), st.one_of(st.just(_DROP), _JUNK)),
            min_size=1,
            max_size=2,
        ),
    ).map(_mutate),
    _JUNK,
)


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS, st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=9))
def test_eval_rule_documents_fuzzed(tmp_path_factory, doc, votes):
    path = tmp_path_factory.mktemp("fuzz") / "rule.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["eval", "--rule", str(path), "--profile=" + ",".join(map(str, votes))])
    if rc == 0:
        assert out.getvalue() in ("-1\n", "0\n", "1\n")
    else:
        assert rc == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Runs the CLI's main in a fresh interpreter (this one has numpy loaded) and
# prints, as JSON, its exit code and the modules it imported that a start
# must not need: numpy's submodules and the standard modules that only some
# paths load.
CLI_IMPORTS = """
import json, sys
from equivote.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
late = {"dataclasses", "inspect", "fractions", "decimal"}
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("numpy.") or m in late)]))
"""


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def cli_start_modules(cwd, *argv):
    """The exit code of one CLI run in a fresh process, and which of numpy's
    submodules, dataclasses, inspect, fractions and decimal it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", CLI_IMPORTS, *argv],
        cwd=cwd,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("eval", "--rule", "maj5.rule", "--profile", "1,1,-1,0,0"),
        ("construct", "--type", "majority", "--n", "5", "--out", "out.rule"),
        ("construct", "--type", "longest_run", "--n", "5", "--out", "out.rule"),
        ("construct", "--type", "dictatorship", "--n", "5", "--out", "out.rule"),
        ("construct", "--type", "grd", "--branching", "3,3", "--out", "out.rule"),
        ("construct", "--type", "ccc", "--rows", "3", "--cols", "4", "--out", "out.rule"),
        ("construct", "--type", "fano", "--p", "2", "--out", "out.rule"),
        ("construct", "--type", "group_orbit", "--group", "cyclic", "--n", "12", "--seed", "0",
         "--out", "out.rule"),
        ("construct", "--type", "group_orbit", "--group", "pgl2", "--p", "13", "--out", "out.rule"),
        ("analyze", "--rule", "pgl13.rule", "--equity", "--k", "3", "--cyclic"),
        ("analyze", "--rule", "c16.rule", "--min-coalition"),
        ("analyze", "--rule", "fan1414.rule", "--min-coalition"),
        ("analyze", "--rule", "maj19.rule", "--min-coalition"),
        ("analyze", "--rule", "grd27.rule", "--min-coalition", "--caps", "budget=200000"),
        ("verify", "thm3", "--depth", "3"),
        ("analyze", "--rule", "maj5.rule", "--min-coalition"),
        ("analyze", "--rule", "maj16.rule", "--pivotality", "binary"),
    ],
)
def test_commands_without_arrays_do_not_load_numpy(capsys, tmp_path, argv):
    (tmp_path / "maj5.rule").write_text('{"format":1,"type":"majority","n":5}')
    make_rule(capsys, tmp_path, "pgl13.rule", "--type", "group_orbit", "--group", "pgl2", "--p", "13")
    make_rule(capsys, tmp_path, "c16.rule", "--type", "group_orbit", "--group", "cyclic", "--n", "16")
    (tmp_path / "fan1414.rule").write_text('{"format":1,"type":"coalition","n":1414,"family":[[0,1,2]]}')
    (tmp_path / "maj19.rule").write_text('{"format":1,"type":"majority","n":19}')
    make_rule(capsys, tmp_path, "grd27.rule", "--type", "grd", "--branching", "3,3,3")
    (tmp_path / "maj16.rule").write_text('{"format":1,"type":"majority","n":16}')
    assert cli_start_modules(tmp_path, *argv) == [0, []]


def test_pivotality_report_does_not_load_fractions(tmp_path):
    # the shares are written as text; numpy (and with it inspect) loads for
    # this rule's blocks
    (tmp_path / "lr5.rule").write_text('{"format":1,"type":"longest_run","n":5}')
    rc, modules = cli_start_modules(tmp_path, "analyze", "--rule", "lr5.rule", "--pivotality", "both")
    assert (rc, [m for m in modules if m in ("fractions", "decimal")]) == (0, [])


def test_analysis_loads_numpy(tmp_path):
    # a rule with no monotone certificate reads its outcome table's slabs
    (tmp_path / "lr5.rule").write_text('{"format":1,"type":"longest_run","n":5}')
    rc, modules = cli_start_modules(tmp_path, "analyze", "--rule", "lr5.rule", "--min-coalition")
    assert rc == 0
    assert any(m.startswith("numpy.") for m in modules)


# Runs the CLI in a child process; prints its exit code and peak RSS (KiB on
# Linux), then its output. Only that child counts towards RUSAGE_CHILDREN.
CLI_PEAK_RSS = """
import resource, subprocess, sys
done = subprocess.run([sys.executable, "-m", "equivote.cli", *sys.argv[1:]], capture_output=True, text=True)
print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(done.stdout)
"""


@pytest.mark.parametrize(
    "doc, search",
    [
        (
            {"format": 1, "type": "dictatorship", "n": 16384},
            {"size": 1, "exact": True, "lower_bound": 1, "witness_count": 1,
             "witnesses_complete": True, "witnesses": [[0]], "subsets_checked": 16384},
        ),
        (
            {"format": 1, "type": "coalition", "n": 16384, "family": [[0, 1, 2]]},
            {"size": None, "exact": False, "lower_bound": 2, "witness_count": 0,
             "witnesses_complete": False, "witnesses": [], "subsets_checked": 16384},
        ),
    ],
)
def test_coalition_search_at_the_degree_limit_stays_small(tmp_path, doc, search):
    # once n > 64 a block holds at most 2^21 votes: 64 subsets of 16,384
    # voters here, not the 16,384 subsets (512 MiB of votes) of smaller n
    (tmp_path / "big.rule").write_text(json.dumps(doc))
    argv = ["analyze", "--rule", "big.rule", "--min-coalition", "--format", "machine"]
    done = subprocess.run(
        [sys.executable, "-c", CLI_PEAK_RSS, *argv],
        cwd=tmp_path,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    status, out = done.stdout.split("\n", 1)
    rc, peak_kib = map(int, status.split())
    assert rc == 0
    assert peak_kib < 150 * 1024
    report = json.loads(out)
    assert report["min_coalition"] == search
    assert report["methods"] == {"min_coalition": "direct+monotone"}


# Runs the CLI's main in a fresh interpreter under an address-space limit of
# argv[1] MiB, so a run that needs more fails instead of passing; prints, as
# JSON, its exit code and the numpy submodules it loaded, after its output.
CLI_UNDER_LIMIT = """
import json, resource, sys
limit = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from equivote.cli import main
rc = main(sys.argv[2:])
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""

CCC100_ANALYSIS = {
    "caps": {"budget": 2000000, "factorial": 8, "scan": 12, "workers": 1},
    "equitable": "true",
    "format": 1,
    "kind": "analysis",
    "methods": {"equitable": "grid_shifts", "min_coalition": "direct+monotone"},
    "min_coalition": {
        "exact": False,
        "lower_bound": 2,
        "size": None,
        "subsets_checked": 10000,
        "witness_count": 0,
        "witnesses": [],
        "witnesses_complete": False,
    },
    "n": 10000,
    "rule": {"cols": 100, "format": 1, "rows": 100, "type": "ccc"},
}


def _ccc100_within(tmp_path, mib):
    """Construct CCC(100, 100), then analyze it, each under a `mib` MiB
    address-space limit, and check both outputs."""

    def bounded(*argv):
        done = subprocess.run(
            [sys.executable, "-c", CLI_UNDER_LIMIT, str(mib), *argv],
            cwd=tmp_path,
            env=src_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        out, _, status = done.stdout.rstrip("\n").rpartition("\n")
        assert json.loads(status) == [0, []]
        return out

    bounded("construct", "--type", "ccc", "--rows", "100", "--cols", "100", "--out", "ccc100.rule")
    rule = {"cols": 100, "format": 1, "rows": 100, "type": "ccc"}
    assert (tmp_path / "ccc100.rule").read_text() == json.dumps(rule, indent=2) + "\n"
    out = bounded("analyze", "--rule", "ccc100.rule", "--equity", "--min-coalition")
    assert out == json.dumps(CCC100_ANALYSIS, indent=2, sort_keys=True)


def test_ccc100_fits_in_150_mib(tmp_path):
    # a 100 x 100 grid lists 1,990,000 voters over its 10,000 members; both
    # commands need about 37 MiB of address space on Python 3.11 (117 MiB
    # while members were frozensets)
    _ccc100_within(tmp_path, 150)


def test_ccc100_fits_in_64_mib(tmp_path):
    # the 37 MiB measured on Python 3.11, with headroom for other versions;
    # members held as frozensets needed 117 MiB and fail here
    _ccc100_within(tmp_path, 64)


def test_a_closed_stdout_exits_quietly_with_one_code(tmp_path):
    # about 4 MB of output, far above a 64 KiB pipe buffer: the CLI is still
    # writing when the reader leaves after one byte, as in `| head -c 1`
    argv = ["construct", "--type", "group_orbit", "--group", "cyclic", "--n", "1000"]
    results = set()
    for _ in range(5):
        with subprocess.Popen(
            [sys.executable, "-m", "equivote.cli", *argv],
            cwd=tmp_path,
            env=src_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.read(1) == b"{"
            child.stdout.close()
            results.add((child.wait(timeout=60), child.stderr.read()))
    # one exit code, and no message or traceback on stderr
    assert results == {(141, b"")}


# Registers an atexit hook that writes the interpreter's frozen-object count
# and whether automatic collection is on to the file argv[1], then runs the
# CLI's process entry point on argv[2:].
CLI_FROZEN_AT_EXIT = """
import atexit, gc, sys
def note(path=sys.argv[1]):
    with open(path, "w") as fh:
        fh.write(f"{gc.get_freeze_count()} {gc.isenabled()}")
atexit.register(note)
sys.argv[1:] = sys.argv[2:]
from equivote.cli import run
run()
"""

EXIT_PATHS = [
    (("construct", "--type", "majority", "--n", "5"), 0),
    (("--help",), 0),
    (("analyze",), 2),  # usage error: no --rule
    (("analyze", "--rule", "missing.rule"), 2),  # input error
]


@pytest.mark.parametrize("argv, code", EXIT_PATHS)
def test_run_freezes_the_heap_on_every_exit_path(tmp_path, argv, code):
    report = tmp_path / "frozen.txt"
    done = subprocess.run(
        [sys.executable, "-c", CLI_FROZEN_AT_EXIT, str(report), *argv],
        cwd=tmp_path,
        env=src_env(),
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == code, done.stderr
    frozen, enabled = report.read_text().split()
    assert int(frozen) > 0
    assert enabled == "False"


def test_main_and_import_leave_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["construct", "--type", "majority", "--n", "5"]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before
    assert gc.isenabled()
    script = "import gc, equivote.cli; print(gc.get_freeze_count(), gc.isenabled())"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout == "0 True\n", done.stderr


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in EXIT_PATHS]
    + [("analyze", "--rule", "lr5.rule", "--min-coalition", "--format", "machine",
        "--out", "report.json")],
)
def test_run_exits_as_main_returns(capsys, monkeypatch, tmp_path, argv):
    # help text is wrapped to COLUMNS, which is fixed for both runs
    monkeypatch.setenv("COLUMNS", "80")
    lr5 = '{"format":1,"type":"longest_run","n":5}'
    child_dir, own_dir = tmp_path / "child", tmp_path / "own"
    for d in (child_dir, own_dir):
        d.mkdir()
        (d / "lr5.rule").write_text(lr5)
    done = subprocess.run(
        [sys.executable, "-m", "equivote.cli", *argv],
        cwd=child_dir,
        env=src_env(),
        capture_output=True,
        timeout=60,
    )
    monkeypatch.chdir(own_dir)
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert done.returncode == rc
    assert done.stdout == captured.out.encode()
    assert done.stderr.decode() == captured.err
    def files(d):
        return {p.name: p.read_bytes() for p in d.iterdir()}

    assert files(child_dir) == files(own_dir)
