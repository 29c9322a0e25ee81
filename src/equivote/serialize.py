"""Canonical JSON interchange for rules and reports.

Serialized forms carry a format version and sort all keys, so equal objects
always produce byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Any

from .analysis import AnalysisReport
from .rules import (
    CCC,
    GRD,
    Dictatorship,
    GRDTree,
    LongestRun,
    MAX_DEGREE,
    Majority,
    VotingRule,
    make_coalition_rule,
    tree_leaves,
)

FORMAT_VERSION = 1


def canonical_json(obj: Any, indent: int | None = None) -> str:
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _tree_from_json(node) -> GRDTree:
    if _is_int(node):
        return node
    if isinstance(node, list):
        return tuple(_tree_from_json(child) for child in node)
    raise ValueError(f"bad tree node {node!r}")


def rule_to_dict(rule: VotingRule) -> dict:
    return {"format": FORMAT_VERSION, **rule.to_doc()}


# fields of each rule document type besides "format" and "type": required,
# then optional
_RULE_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "majority": (("n",), ()),
    "longest_run": (("n",), ()),
    "dictatorship": (("n",), ("dictator",)),
    "grd": (("tree",), ()),
    "ccc": (("rows", "cols"), ()),
    "coalition": (("n", "family"), ("provenance",)),
}


def _int_field(doc: dict, key: str, default: int | None = None) -> int:
    value = doc.get(key, default)
    if not _is_int(value):
        raise ValueError(f"rule field {key!r} must be an integer, got {value!r}")
    return value


def _check_degree(degree: int, fields: str) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(
            f"rule {fields}: {degree} voters, above the limit of {MAX_DEGREE}"
        )


def _family_field(doc: dict) -> list[frozenset[int]]:
    family = doc["family"]
    if not isinstance(family, list) or not all(
        isinstance(member, list) and all(_is_int(v) for v in member)
        for member in family
    ):
        raise ValueError("rule field 'family' must be a list of integer lists")
    return [frozenset(member) for member in family]


def rule_from_dict(doc: Any) -> VotingRule:
    """The rule a document describes; a malformed document raises a
    ValueError naming the offending field."""
    if not isinstance(doc, dict):
        raise ValueError("a rule document must be a JSON object")
    if not _is_int(doc.get("format")) or doc["format"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in _RULE_FIELDS:
        raise ValueError(f"unknown rule type {kind!r}")
    required, optional = _RULE_FIELDS[kind]
    unknown = sorted(set(doc) - {"format", "type", *required, *optional})
    if unknown:
        raise ValueError(f"unknown rule field {unknown[0]!r} for type {kind!r}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"missing rule field {missing[0]!r} for type {kind!r}")
    if "n" in required:
        _check_degree(_int_field(doc, "n"), "field 'n'")
    if kind == "majority":
        return Majority(n=_int_field(doc, "n"))
    if kind == "longest_run":
        return LongestRun(n=_int_field(doc, "n"))
    if kind == "dictatorship":
        return Dictatorship(
            n=_int_field(doc, "n"), dictator=_int_field(doc, "dictator", 0)
        )
    if kind == "grd":
        tree = _tree_from_json(doc["tree"])
        _check_degree(len(tree_leaves(tree)), "field 'tree'")
        return GRD(tree=tree)
    if kind == "ccc":
        # CCC_MAX_ENTRIES admits at most about 10,400 voters, below MAX_DEGREE
        return CCC(rows=_int_field(doc, "rows"), cols=_int_field(doc, "cols"))
    provenance = doc.get("provenance")
    if "provenance" in doc and not isinstance(provenance, dict):
        raise ValueError("rule field 'provenance' must be an object")
    return make_coalition_rule(
        _int_field(doc, "n"), _family_field(doc), provenance=provenance
    )


def dumps_rule(rule: VotingRule, indent: int | None = 2) -> str:
    return canonical_json(rule_to_dict(rule), indent=indent)


def loads_rule(text: str) -> VotingRule:
    try:
        return rule_from_dict(json.loads(text))
    except RecursionError:
        raise ValueError("rule document nests too deeply") from None


def report_to_dict(report: AnalysisReport) -> dict:
    doc = {"format": FORMAT_VERSION, "kind": "analysis"}
    doc.update((k, v) for k, v in vars(report).items() if v is not None)
    return doc


def load_rule_file(path: str) -> VotingRule:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_rule(text)
