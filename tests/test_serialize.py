import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import intersecting_families

from equivote.analysis import AnalysisReport, analyze_rule
from equivote.geometry import build_projective_rule
from equivote.limits import CCC_MAX_ENTRIES, FAMILY_MAX_MEMBERS, MAX_DEGREE
from equivote.randomized import build_rule_from_group, group_from_descriptor
from equivote.rules import (
    CCC,
    CoalitionRule,
    Dictatorship,
    GRD,
    LongestRun,
    Majority,
    ccc_family,
    make_coalition_rule,
)
from equivote.serialize import (
    FORMAT_VERSION,
    RULE_TYPES,
    _family_field,
    canonical_json,
    dumps_rule,
    load_rule_file,
    loads_rule,
    report_to_dict,
    rule_from_dict,
    rule_to_dict,
)

ROUNDTRIP_RULES = [
    Majority(5),
    LongestRun(9),
    Dictatorship(4, dictator=2),
    GRD((0, 1, (2, 3, 4))),
    CCC(3, 4),
    make_coalition_rule(4, [{0}]),
    build_projective_rule(2),
    build_rule_from_group(
        group_from_descriptor({"kind": "cyclic", "n": 16}),
        {"kind": "cyclic", "n": 16},
        seed=0,
    ),
]


def test_rule_roundtrips():
    for rule in ROUNDTRIP_RULES:
        assert loads_rule(dumps_rule(rule)) == rule


def test_rule_types_are_the_documents_the_rules_write():
    # one rule of each family, and a coalition document
    rules = [
        Majority(5),
        LongestRun(9),
        Dictatorship(4, dictator=2),
        GRD((0, 1, (2, 3, 4))),
        CCC(3, 4),
        make_coalition_rule(4, [{0}]),
    ]
    docs = [rule_to_dict(rule) for rule in rules]
    assert [rule_from_dict(doc) for doc in docs] == rules
    assert sorted(doc["type"] for doc in docs) == sorted(RULE_TYPES)


def test_rule_doc_shape():
    doc = rule_to_dict(Majority(5))
    assert doc == {"format": FORMAT_VERSION, "type": "majority", "n": 5}
    tree = rule_to_dict(GRD((0, 1, (2, 3, 4))))["tree"]
    assert tree == [0, 1, [2, 3, 4]]


def test_grid_documents_frozen():
    # bytes recorded before CCC became a coalition rule over a grid
    ccc = '{"cols":3,"format":1,"rows":2,"type":"ccc"}'
    assert canonical_json(rule_to_dict(CCC(2, 3))) == ccc
    assert canonical_json(rule_to_dict(loads_rule(ccc))) == ccc
    coalition = (
        '{"family":[[0,1,2,3],[0,1,2,4],[0,1,2,5],[0,3,4,5],[1,3,4,5],[2,3,4,5]],'
        '"format":1,"n":6,"provenance":{"cols":3,"kind":"grid_note","rows":2},'
        '"type":"coalition"}'
    )
    rule = make_coalition_rule(
        6, ccc_family(2, 3), provenance={"kind": "grid_note", "rows": 2, "cols": 3}
    )
    assert rule == CCC(2, 3)
    assert canonical_json(rule_to_dict(rule)) == coalition
    assert canonical_json(rule_to_dict(loads_rule(coalition))) == coalition


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        intersecting_families(),
        st.builds(CCC, st.integers(1, 6), st.integers(1, 6)),
    ),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
)
def test_every_coalition_rule_reads_back_as_itself(rule, grid):
    # with `grid` set, a rule constructs only over that grid's own family,
    # so its "ccc" document cannot read back as another rule
    built = [rule]
    try:
        built.append(CoalitionRule(rule.n, rule.family, grid=grid))
    except ValueError:
        pass
    for r in built:
        back = loads_rule(dumps_rule(r))
        assert back == r and back.label == r.label


def test_provenance_survives_roundtrip():
    rule = build_projective_rule(2)
    back = loads_rule(dumps_rule(rule))
    assert back.provenance == {"kind": "projective_plane", "p": 2}


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'
    assert dumps_rule(Majority(5)) == dumps_rule(Majority(5))
    assert "\n" in dumps_rule(Majority(5))


def test_bad_documents_rejected():
    with pytest.raises(ValueError):
        rule_from_dict({"format": 2, "type": "majority", "n": 3})
    with pytest.raises(ValueError):
        rule_from_dict({"format": FORMAT_VERSION, "type": "plurality", "n": 3})
    with pytest.raises(ValueError):
        rule_from_dict({"format": FORMAT_VERSION, "type": "grd", "tree": [0, "x"]})
    with pytest.raises(AttributeError):
        rule_to_dict(object())


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"format": 1, "type": "majority"}, "'n'"),
        ([{"format": 1, "type": "majority", "n": 3}], "JSON object"),
        ({"format": 1, "type": "majority", "n": "3"}, "'n'"),
        ({"format": 1, "type": "majority", "n": 3.0}, "'n'"),
        ({"format": 1, "type": "dictatorship", "n": 3, "dictator": True}, "'dictator'"),
        ({"format": 1, "type": "majority", "n": 3, "dictator": 0}, "'dictator'"),
        ({"format": True, "type": "majority", "n": 3}, "format"),
        ({"format": 1, "type": ["majority"], "n": 3}, "type"),
        ({"format": 1, "type": "grd", "tree": [0, True]}, "tree node"),
        ({"format": 1, "type": "ccc", "rows": 2}, "'cols'"),
        ({"format": 1, "type": "coalition", "n": 3, "family": [[0], 1]}, "'family'"),
        ({"format": 1, "type": "coalition", "n": 3, "family": [[0, True]]}, "'family'"),
        (
            {"format": 1, "type": "coalition", "n": 3, "family": [[0]], "provenance": 7},
            "'provenance'",
        ),
        ({"format": 1, "type": "majority", "n": 2_000_000}, "'n'.*limit"),
        ({"format": 1, "type": "coalition", "n": 10**9, "family": [[0]]}, "'n'.*limit"),
        ({"format": 1, "type": "ccc", "rows": 200, "cols": 200}, "200 x 200 grid"),
        ({"format": 1, "type": "grd", "tree": list(range(MAX_DEGREE + 1))}, "'tree'"),
    ],
)
def test_malformed_documents_name_the_field(doc, field):
    with pytest.raises(ValueError, match=field):
        rule_from_dict(doc)


def test_report_to_dict_drops_empty_fields():
    doc = report_to_dict(AnalysisReport(n=5, equitable="true"))
    assert doc == {
        "format": FORMAT_VERSION,
        "kind": "analysis",
        "n": 5,
        "equitable": "true",
    }
    full = report_to_dict(analyze_rule(Majority(3), want_min_coalition=True))
    assert full["min_coalition"]["size"] == 2
    json.dumps(full)  # stays serializable


def test_rule_files(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(dumps_rule(CCC(3, 4)) + "\n")
    assert load_rule_file(str(path)) == CCC(3, 4)
    deep = tmp_path / "deep.json"
    nested = "[" * 100_000 + "0" + "]" * 100_000
    deep.write_text('{"format":1,"type":"grd","tree":' + nested + "}")
    with pytest.raises(ValueError, match="nests too deeply"):
        load_rule_file(str(deep))


def test_loads_rule_refuses_deep_nesting():
    nested = "[" * 100_000 + "0" + "]" * 100_000
    with pytest.raises(ValueError, match="nests too deeply"):
        loads_rule('{"format":1,"type":"grd","tree":' + nested + "}")


# Runs the CLI in a fresh process under a 1 GiB address-space limit, so a
# document that allocated without bound fails instead of growing.
BOUNDED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from equivote.cli import main
sys.exit(main(sys.argv[1:]))
"""


def bounded_analyze(tmp_path, n, family):
    """Exit code, stderr lines and seconds of `analyze` of a coalition
    document in a bounded process."""
    path = tmp_path / "family.rule"
    path.write_text(json.dumps({"format": 1, "type": "coalition", "n": n, "family": family}))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["analyze", "--rule", str(path), "--format", "machine"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", BOUNDED_CLI, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stderr.splitlines(), time.perf_counter() - start


def non_star_family(members):
    """4-voter members {a, b, x, y} of 16,384 voters, with (a, b) one of
    (0, 1), (0, 2) and (1, 2): pairwise intersecting, no voter in all."""
    family = [
        [a, b, x, y]
        for a, b in ((0, 1), (0, 2), (1, 2))
        for x in range(3, 16384)
        for y in (x + 1, x + 2)
        if y < 16384
    ]
    assert len(family) >= members
    return family[: members - 1] + family[-1:]


def test_family_member_limit(tmp_path):
    rc, err, _ = bounded_analyze(tmp_path, 16384, non_star_family(FAMILY_MAX_MEMBERS))
    assert (rc, err) == (0, [])
    rc, err, seconds = bounded_analyze(
        tmp_path, 16384, non_star_family(FAMILY_MAX_MEMBERS + 1)
    )
    assert rc == 2 and seconds < 10
    assert err == [
        f"error: rule field 'family': {FAMILY_MAX_MEMBERS + 1} members, "
        f"above the limit of {FAMILY_MAX_MEMBERS}"
    ]


def test_family_entry_limit(tmp_path):
    # as many members as the limit allows, 32 voters each, and one voter more
    family = [list(range(32))] * (FAMILY_MAX_MEMBERS - 1) + [list(range(33))]
    assert sum(map(len, family)) == CCC_MAX_ENTRIES + 1
    rc, err, seconds = bounded_analyze(tmp_path, 33, family)
    assert rc == 2 and seconds < 10
    assert err == [
        f"error: rule field 'family': {CCC_MAX_ENTRIES + 1} voters listed over its "
        f"members, above the limit of {CCC_MAX_ENTRIES}"
    ]


def test_family_limits_admit_the_largest_built_documents():
    # CCC(100, 100)'s family as a coalition document: 10,000 members and
    # 1,990,000 entries; CI's two documents have 40,000 members each
    family = [sorted(member) for member in ccc_family(100, 100)]
    assert len(_family_field("family", family)) == 10_000
    assert sum(map(len, family)) == 1_990_000 <= CCC_MAX_ENTRIES
    assert 40_000 <= FAMILY_MAX_MEMBERS
