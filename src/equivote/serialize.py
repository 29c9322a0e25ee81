"""Canonical JSON interchange for rules and reports.

Serialized forms carry a format version and sort all keys, so equal objects
always produce byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .analysis import AnalysisReport
from .limits import CCC_MAX_ENTRIES, FAMILY_MAX_MEMBERS, MAX_DEGREE, refuse_above
from .rules import (
    CCC,
    GRD,
    Dictatorship,
    GRDTree,
    LongestRun,
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


def _int_field(key: str, value: Any) -> int:
    if not _is_int(value):
        raise ValueError(f"rule field {key!r} must be an integer, got {value!r}")
    return value


def _degree_field(key: str, value: Any) -> int:
    n = _int_field(key, value)
    return refuse_above(n, MAX_DEGREE, f"rule field {key!r}: {n} voters")


def _tree_field(key: str, value: Any) -> GRDTree:
    tree = _tree_from_json(value)
    _degree_field(key, len(tree_leaves(tree)))
    return tree


def _family_field(key: str, value: Any) -> list[list[int]]:
    if not isinstance(value, list) or not all(
        isinstance(member, list) and all(_is_int(v) for v in member)
        for member in value
    ):
        raise ValueError(f"rule field {key!r} must be a list of integer lists")
    members = len(value)
    refuse_above(members, FAMILY_MAX_MEMBERS, f"rule field {key!r}: {members} members")
    entries = sum(map(len, value))
    what = f"rule field {key!r}: {entries} voters listed over its members"
    refuse_above(entries, CCC_MAX_ENTRIES, what)
    return value


def _provenance_field(key: str, value: Any) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"rule field {key!r} must be an object")
    return value


_FIELD_READERS: dict[str, Callable[[str, Any], Any]] = {
    "n": _degree_field,
    "dictator": _int_field,
    "rows": _int_field,
    "cols": _int_field,
    "tree": _tree_field,
    "family": _family_field,
    "provenance": _provenance_field,
}

# each rule document type's constructor, which takes the fields as keywords,
# and its fields besides "format" and "type": required, then optional
RULE_TYPES: dict[str, tuple[Callable[..., VotingRule], tuple[str, ...], tuple[str, ...]]] = {
    "majority": (Majority, ("n",), ()),
    "longest_run": (LongestRun, ("n",), ()),
    "dictatorship": (Dictatorship, ("n",), ("dictator",)),
    "grd": (GRD, ("tree",), ()),
    "ccc": (CCC, ("rows", "cols"), ()),
    "coalition": (make_coalition_rule, ("n", "family"), ("provenance",)),
}


def rule_from_dict(doc: Any) -> VotingRule:
    """The rule a document describes; a malformed document raises a
    ValueError naming the offending field."""
    if not isinstance(doc, dict):
        raise ValueError("a rule document must be a JSON object")
    if not _is_int(doc.get("format")) or doc["format"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in RULE_TYPES:
        raise ValueError(f"unknown rule type {kind!r}")
    construct, required, optional = RULE_TYPES[kind]
    unknown = sorted(set(doc) - {"format", "type", *required, *optional})
    if unknown:
        raise ValueError(f"unknown rule field {unknown[0]!r} for type {kind!r}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"missing rule field {missing[0]!r} for type {kind!r}")
    fields = [key for key in (*required, *optional) if key in doc]
    return construct(**{key: _FIELD_READERS[key](key, doc[key]) for key in fields})


def dumps_rule(rule: VotingRule) -> str:
    return canonical_json(rule_to_dict(rule), indent=2)


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
