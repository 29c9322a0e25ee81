"""Command-line surface: construct, eval, analyze, verify.

`run` is the process entry point (the `equivote` console script and
`python -m equivote.cli`): it turns automatic garbage collection off before
it calls `main`, so no collection walks the objects numpy's import makes,
and freezes the heap before the interpreter shuts down, because shutdown's
collections run even with collection off. `main(argv)` and `import
equivote.cli` leave the collector as they find it, so tests and library
callers keep a collected heap.

Exit codes: 0 success, 1 verification failure, 2 usage or input error, 141
stdout closed early. Machine-format output is canonical JSON with sorted
keys and no timing data, so identical inputs give byte-identical documents.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Optional, Sequence

from .analysis import COALITION_BUDGET, FACTORIAL_CAP, analyze_rule
from .geometry import build_projective_rule
from .profiles import VoteProfile
from .randomized import build_rule_from_group, group_from_descriptor
from .rules import InfeasibleError, PROFILE_SCAN_CAP, evaluate, uniform_grd
from .serialize import (
    FORMAT_VERSION,
    RULE_TYPES,
    canonical_json,
    dumps_rule,
    load_rule_file,
    report_to_dict,
    rule_from_dict,
    rule_to_dict,
)
from .verify import CLAIM_IDS, claim_parameters, verification_to_dict, verify_claim


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)  # a closed pipe fails here, not at exit


def _parse_votes(raw: str) -> VoteProfile:
    try:
        votes = [int(tok) for tok in raw.replace(" ", "").split(",") if tok != ""]
    except ValueError as exc:
        raise ValueError(f"bad profile {raw!r}: {exc}") from None
    return VoteProfile.of(votes)


def _parse_int_list(raw: str) -> list[int]:
    """Accept "4..16", "3,5,7", or a single integer."""
    raw = raw.strip()
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        grid = list(range(int(lo), int(hi) + 1))
    else:
        grid = [int(tok) for tok in raw.split(",") if tok != ""]
    if not grid:
        raise ValueError(f"empty grid {raw!r}")
    return grid


def cmd_construct(args: argparse.Namespace) -> int:
    kind = args.type
    if kind == "grd":
        branching = tuple(
            int(tok) for tok in _require(args.branching, "--branching").split(",")
        )
        rule = uniform_grd(branching)
    elif kind == "fano":
        rule = build_projective_rule(_require(args.p, "--p"))
    elif kind == "group_orbit":
        desc = _group_descriptor(args)
        rule = build_rule_from_group(
            group_from_descriptor(desc), desc, seed=args.seed
        )
    else:
        # read back as a document, so each flag passes its field's reader;
        # an optional field's flag has a default, so it is never None
        _, required, optional = RULE_TYPES[kind]
        fields = {k: _require(getattr(args, k), f"--{k}") for k in required + optional}
        rule = rule_from_dict({"format": FORMAT_VERSION, "type": kind, **fields})
    _emit(dumps_rule(rule), args.out)
    return 0


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required for this type")
    return value


_GROUP_FLAGS = {"cyclic": "n", "pgl2": "p"}  # the flag that sizes each --group


def _group_size(args: argparse.Namespace):
    """The value of the flag that sizes the --group, refused when absent."""
    flag = _GROUP_FLAGS[args.group]
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"--group {args.group} needs --{flag}")
    return value


def _group_descriptor(args: argparse.Namespace) -> dict:
    if args.group not in _GROUP_FLAGS:
        raise ValueError("--group must be cyclic or pgl2")
    return {"kind": args.group, _GROUP_FLAGS[args.group]: _group_size(args)}


def cmd_eval(args: argparse.Namespace) -> int:
    rule = load_rule_file(args.rule)
    phi = _parse_votes(args.profile)
    print(evaluate(rule, phi), flush=True)
    return 0


_CAP_KEYS = ("scan", "factorial", "budget")
# At scan=15, --equity --k 2 --cyclic --min-coalition --pivotality ternary
# took 12 s on LongestRun(15) and 208 MiB peak RSS on Majority(15), on
# 2 cores; each degree above triples both. The automorphism search builds
# the 3^n table too, so factorial has the same limit.
SCAN_CAP_LIMIT = 15


def _parse_caps(raw: Optional[str]) -> dict[str, int]:
    """Parse "scan=10,factorial=7,budget=50000" into cap overrides."""
    caps: dict[str, int] = {}
    if not raw:
        return caps
    for token in raw.split(","):
        if "=" not in token:
            raise ValueError(f"bad cap {token!r}, expected KEY=VALUE")
        key, value = token.split("=", 1)
        key = key.strip()
        if key not in _CAP_KEYS:
            raise ValueError(f"unknown cap {key!r}, known: {', '.join(_CAP_KEYS)}")
        if key in caps:
            raise ValueError(f"cap {key!r} given twice")
        caps[key] = int(value)
        if caps[key] < 0:
            raise ValueError(f"cap {key}={caps[key]} is negative")
    for key in ("scan", "factorial"):
        if caps.get(key, 0) > SCAN_CAP_LIMIT:
            raise ValueError(f"cap {key}={caps[key]} exceeds the limit {SCAN_CAP_LIMIT}")
    return caps


def cmd_analyze(args: argparse.Namespace) -> int:
    rule = load_rule_file(args.rule)
    distributions: list[str] = []
    if args.pivotality in ("binary", "both"):
        distributions.append("binary")
    if args.pivotality in ("ternary", "both"):
        distributions.append("ternary")
    caps = _parse_caps(args.caps)
    effective = {
        "scan": caps.get("scan", PROFILE_SCAN_CAP),
        "factorial": caps.get("factorial", FACTORIAL_CAP),
        "budget": caps.get("budget", COALITION_BUDGET),
        "workers": args.workers,
    }
    report = analyze_rule(
        rule,
        want_equity=args.equity,
        k=args.k,
        want_min_coalition=args.min_coalition,
        want_aut=args.aut_order,
        want_cyclic=args.cyclic,
        pivot_distributions=distributions,
        budget=effective["budget"],
        scan_cap=effective["scan"],
        factorial_cap=effective["factorial"],
    )
    doc = report_to_dict(report)
    doc["rule"] = rule_to_dict(rule)
    doc["caps"] = effective
    _emit(canonical_json(doc, indent=None if args.format == "machine" else 2), args.out)
    return 0


def _verify_params(args: argparse.Namespace) -> dict:
    """Map each override flag onto the verifier parameter it sets, and
    refuse by name every flag whose parameter the claim does not take.
    With --group, a claim that takes configs (prop4) gets one config per
    value of the --n or --p grid, with --seed (default 0)."""
    sets = {"n": "ns", "depth": "depths", "p": "primes", "seed": "seed"}
    accepted = claim_parameters(args.claim)
    grid_flag = None
    if args.group is not None:
        sets["group"] = "configs"
        if "configs" in accepted:
            grid_flag = _GROUP_FLAGS[args.group]
            sets[grid_flag] = sets["seed"] = "configs"
    given = [flag for flag in sets if getattr(args, flag) is not None]
    refused = [f"--{flag}" for flag in given if sets[flag] not in accepted]
    if refused:
        raise ValueError(f"claim {args.claim!r} does not accept {', '.join(refused)}")
    params = {
        sets[flag]: args.seed if flag == "seed" else _parse_int_list(getattr(args, flag))
        for flag in given
        if sets[flag] != "configs"
    }
    if grid_flag is not None:
        grid = _parse_int_list(_group_size(args))
        seed = 0 if args.seed is None else args.seed
        params["configs"] = [({"kind": args.group, grid_flag: v}, seed) for v in grid]
    return params


def cmd_verify(args: argparse.Namespace) -> int:
    if args.claim == "all":
        overridden = any(
            v is not None for v in (args.n, args.depth, args.p, args.group, args.seed)
        )
        if overridden:
            raise ValueError("parameter overrides require a single claim, not 'all'")
        claims, params = list(CLAIM_IDS), {}
    else:
        claims, params = [args.claim], _verify_params(args)
    reports = {claim: verify_claim(claim, **params) for claim in claims}
    overall = all(r.passed for r in reports.values())
    if args.format == "machine":
        doc = {
            "format": FORMAT_VERSION,
            "kind": "verification_suite",
            "passed": overall,
            "reports": {
                claim: verification_to_dict(r) for claim, r in reports.items()
            },
        }
        _emit(canonical_json(doc), args.out)
    else:
        lines = []
        for claim, report in reports.items():
            n_checks = len(report.checks)
            n_pass = sum(1 for c in report.checks if c.passed)
            tag = "PASS" if report.passed else "FAIL"
            lines.append(
                f"[{tag}] {claim}: {n_pass}/{n_checks} checks"
                f" ({report.wall_time:.2f}s)"
            )
            for c in report.checks:
                if not c.passed:
                    lines.append(f"  FAIL {c.name}: {c.detail}")
        lines.append("overall: " + ("PASS" if overall else "FAIL"))
        _emit("\n".join(lines), args.out)
    return 0 if overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equivote",
        description="Voting rules with symmetric structure: construction, "
        "evaluation, analysis, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="emit a rule document")
    p_construct.add_argument(
        "--type",
        required=True,
        choices=[
            "majority",
            "longest_run",
            "dictatorship",
            "grd",
            "ccc",
            "fano",
            "group_orbit",
        ],
    )
    p_construct.add_argument("--n", type=int)
    p_construct.add_argument("--p", type=int)
    p_construct.add_argument("--dictator", type=int, default=0)
    p_construct.add_argument("--branching", help="comma list, e.g. 3,3")
    p_construct.add_argument("--rows", type=int)
    p_construct.add_argument("--cols", type=int)
    p_construct.add_argument("--group", choices=["cyclic", "pgl2"])
    p_construct.add_argument("--seed", type=int, default=0)
    p_construct.add_argument("--out")
    p_construct.set_defaults(fn=cmd_construct)

    p_eval = sub.add_parser("eval", help="evaluate a rule on one profile")
    p_eval.add_argument("--rule", required=True, help="rule document file")
    p_eval.add_argument("--profile", required=True, help="comma votes, e.g. 1,0,-1")
    p_eval.set_defaults(fn=cmd_eval)

    p_analyze = sub.add_parser("analyze", help="emit an analysis report")
    p_analyze.add_argument("--rule", required=True)
    p_analyze.add_argument("--equity", action="store_true")
    p_analyze.add_argument("--k", type=int)
    p_analyze.add_argument("--min-coalition", action="store_true")
    p_analyze.add_argument("--aut-order", action="store_true")
    p_analyze.add_argument("--cyclic", action="store_true")
    p_analyze.add_argument(
        "--pivotality", choices=["binary", "ternary", "both"], default=None
    )
    p_analyze.add_argument(
        "--caps", help="cap overrides, e.g. scan=10,factorial=7,budget=50000"
    )
    p_analyze.add_argument(
        "--workers", type=int, default=1, help="accepted; has no effect"
    )
    p_analyze.add_argument("--format", choices=["human", "machine"], default="human")
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("claim", choices=list(CLAIM_IDS) + ["all"])
    p_verify.add_argument("--n", help="size grid, e.g. 4..16 or 3,4,5,6")
    p_verify.add_argument("--depth", help="tree depth grid, e.g. 1..3")
    p_verify.add_argument("--p", help="prime grid, e.g. 3,5,7")
    p_verify.add_argument("--group", choices=["cyclic", "pgl2"])
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument(
        "--workers", type=int, default=1, help="accepted; has no effect"
    )
    p_verify.add_argument("--format", choices=["human", "machine"], default="human")
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # the reader has gone; exit flushes to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, InfeasibleError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Exit the process with `main`'s code, collection off, heap frozen at exit."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
