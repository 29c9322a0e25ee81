"""The benchmark's three workloads: rule documents to build, then requests.

A workload's set-up builds its rule documents with `equivote construct`.
Only the group-orbit constructions take the run's seed; every other input
is fixed, so most request outputs are the same bytes for every seed.

`expect` lists top-level report fields whose values the construction
guarantees for any seed. They are what a run checks when the request reads
a seeded rule and no reference bytes were stored for the run's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Rule:
    name: str
    construct: tuple[str, ...]
    seeded: bool = False


@dataclass(frozen=True)
class Request:
    name: str
    args: tuple[str, ...]
    rule: Optional[str] = None
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    rules: tuple[Rule, ...]
    requests: tuple[Request, ...]


def _rule(name: str, *construct: str) -> Rule:
    return Rule(name, construct, seeded="group_orbit" in construct)


def _analyze(name: str, rule: str, *flags: str, expect=None) -> Request:
    args = ("analyze", "--rule", f"{rule}.rule", *flags, "--format", "machine")
    return Request(name, args, rule, expect or {})


ORBIT_VERDICTS = {"equitable": "true", "cyclic": "true"}

# One long `verify all` process: the only workload whose outcome tables are
# reused across calls, and so the only one where the table LRU can evict.
VERIFY_SUITE = Workload(
    name="verify-suite",
    rules=(),
    requests=(Request("verify-all", ("verify", "all", "--format", "machine")),),
)

# Rules at or below the 3^n scan cap (n <= 12), all six families. Every
# request starts cold, so tables are built once per request. dict8 runs two
# exhaustive 8! automorphism scans; the two `--workers 2` requests are where
# removing the worker pools would show.
ANALYZE_TABLE = Workload(
    name="analyze-table",
    rules=(
        _rule("lr10", "--type", "longest_run", "--n", "10"),
        _rule("lr11", "--type", "longest_run", "--n", "11"),
        _rule("lr12", "--type", "longest_run", "--n", "12"),
        _rule("maj12", "--type", "majority", "--n", "12"),
        _rule("ccc34", "--type", "ccc", "--rows", "3", "--cols", "4"),
        _rule("ccc24", "--type", "ccc", "--rows", "2", "--cols", "4"),
        _rule("grd9", "--type", "grd", "--branching", "3,3"),
        _rule("fano", "--type", "fano", "--p", "2"),
        _rule("dict8", "--type", "dictatorship", "--n", "8"),
        _rule("c12", "--type", "group_orbit", "--group", "cyclic", "--n", "12"),
        _rule("maj5", "--type", "majority", "--n", "5"),
    ),
    # Short requests sit between long ones, so that a few seconds of machine
    # noise cannot slow every request near the median at once.
    requests=(
        _analyze("fano", "fano", "--equity", "--k", "2", "--min-coalition"),
        _analyze(
            "maj12", "maj12", "--equity", "--k", "2", "--min-coalition",
            "--pivotality", "ternary",
        ),
        _analyze("lr11", "lr11", "--equity", "--min-coalition", "--cyclic"),
        _analyze("ccc24", "ccc24", "--equity", "--cyclic", "--pivotality", "ternary"),
        _analyze(
            "c12", "c12", "--equity", "--cyclic", "--min-coalition", "--aut-order",
            expect=ORBIT_VERDICTS,
        ),
        _analyze("lr12-workers2", "lr12", "--min-coalition", "--workers", "2"),
        _analyze("grd9", "grd9", "--min-coalition", "--pivotality", "both"),
        _analyze("ccc34-workers2", "ccc34", "--min-coalition", "--workers", "2"),
        _analyze("dict8-aut", "dict8", "--equity", "--aut-order"),
        _analyze(
            "maj5-caps", "maj5", "--aut-order", "--cyclic",
            "--caps", "scan=10,factorial=7",
        ),
        _analyze("lr10", "lr10", "--equity", "--min-coalition", "--pivotality", "both"),
    ),
)

# Rules above the scan cap (n = 13..40): no outcome table is built, so the
# scalar `outcome`, the direct coalition search, the group layers and the
# PGL(2,p) rebuilds in `certified_subgroup` do the work.
ANALYZE_DIRECT = Workload(
    name="analyze-direct",
    rules=(
        _rule("maj19", "--type", "majority", "--n", "19"),
        _rule("grd27", "--type", "grd", "--branching", "3,3,3"),
        _rule("c16", "--type", "group_orbit", "--group", "cyclic", "--n", "16"),
        _rule("c40", "--type", "group_orbit", "--group", "cyclic", "--n", "40"),
        _rule("lr13", "--type", "longest_run", "--n", "13"),
        _rule("maj16", "--type", "majority", "--n", "16"),
        _rule("pgl13", "--type", "group_orbit", "--group", "pgl2", "--p", "13"),
        _rule("pgl19", "--type", "group_orbit", "--group", "pgl2", "--p", "19"),
    ),
    # Interleaved for the same reason as analyze-table's requests.
    requests=(
        _analyze("maj19-mwc", "maj19", "--min-coalition"),
        _analyze("lr13-pivot", "lr13", "--pivotality", "binary"),
        _analyze("c40-mwc", "c40", "--min-coalition", "--caps", "budget=200000"),
        _analyze("grd27-mwc", "grd27", "--min-coalition", "--caps", "budget=200000"),
        _analyze(
            "pgl13-verdicts", "pgl13", "--equity", "--k", "3", "--cyclic",
            expect={**ORBIT_VERDICTS, "k_equity": {"3": "true"}},
        ),
        _analyze("maj16-pivot", "maj16", "--pivotality", "binary"),
        _analyze(
            "pgl19-verdicts", "pgl19", "--equity", "--k", "3", "--cyclic",
            expect={**ORBIT_VERDICTS, "k_equity": {"3": "true"}},
        ),
        _analyze("c16-mwc", "c16", "--min-coalition"),
    ),
)

WORKLOADS = {w.name: w for w in (VERIFY_SUITE, ANALYZE_TABLE, ANALYZE_DIRECT)}
