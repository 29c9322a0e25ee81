#!/usr/bin/env python3
"""Benchmark of the equivote command line, end to end and per layer.

Run from the repository root, with no installed copy of the package needed:

    python3 bench/run.py --workload analyze-table --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One client sends one request at a time and waits for it (a closed loop), and
every request is a fresh `python3 -m equivote.cli` process, because that is
what a user of the command line pays for. The workloads are in workloads.py.

--trace 0 times the workload: set-up (building the rule documents) several
times, then whole passes over the request list for about --seconds, and
reports the `end_to_end` metrics of BENCHMARK.json. --trace 1 makes one
untraced and one traced pass, each traced request running through
trace_boot.py, and reports the `per_layer` metrics. Either way every
request's stdout is checked against the reference bytes in reference/ (or,
for a seeded rule at a seed with no references, against the verdicts its
construction guarantees). The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference"

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS, Request, Workload  # noqa: E402

SETUP_REPEATS = 3
STARTUP_PROBES = 5
# Kills a hung request well inside the 180 s a whole run may take.
REQUEST_TIMEOUT_S = 150
# `--workers 2` is never raised above the cores this process may use.
NPROC = len(os.sched_getaffinity(0))
WORKERS = min(2, NPROC)

CLI = (sys.executable, "-m", "equivote.cli")
BOOT = (sys.executable, str(BENCH / "trace_boot.py"))


class SetupFailed(RuntimeError):
    pass


@dataclass
class Result:
    name: str
    seconds: float
    rss_mib: float
    exit_code: int
    stdout: bytes
    error: Optional[str] = None


def child_env() -> dict:
    env = dict(os.environ)
    # Requests load cached bytecode, as an installed command would; the
    # set-up's first CLI start writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(name: str, argv, cwd: Path, log_dir: Path) -> Result:
    """Run one process to completion; its peak RSS comes from its own rusage.

    os.wait4 reaps exactly this child. RUSAGE_CHILDREN would instead keep the
    largest child this process ever waited for.
    """
    with open(log_dir / f"{name}.out", "wb") as out, open(
        log_dir / f"{name}.err", "wb"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            cwd=cwd,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(REQUEST_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Stops any pool worker the request left behind in its process group.
    _kill_group(proc.pid)
    return Result(
        name=name,
        seconds=seconds,
        rss_mib=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        stdout=(log_dir / f"{name}.out").read_bytes(),
    )


def set_up(
    workload: Workload, seed: int, rule_dir: Path, trace_dir: Optional[Path] = None
) -> float:
    """Warm the bytecode cache with one CLI start, then build the rule
    documents with `equivote construct`. Returns the wall time."""
    start = time.perf_counter()
    shutil.rmtree(rule_dir, ignore_errors=True)
    rule_dir.mkdir(parents=True)
    warm = run_process("warm-up", CLI + ("--help",), rule_dir, rule_dir)
    if warm.exit_code != 0:
        raise SetupFailed(f"`equivote --help` exited {warm.exit_code}")
    for rule in workload.rules:
        args = ("construct", *rule.construct, "--out", f"{rule.name}.rule")
        if rule.seeded:
            args += ("--seed", str(seed))
        prefix = CLI if trace_dir is None else BOOT + (
            str(trace_dir / f"construct-{rule.name}.jsonl"),
        )
        done = run_process(f"construct-{rule.name}", prefix + args, rule_dir, rule_dir)
        if done.exit_code != 0:
            raise SetupFailed(f"construct {rule.name} exited {done.exit_code}")
    return time.perf_counter() - start


def request_args(request: Request) -> tuple[str, ...]:
    args = list(request.args)
    if "--workers" in args:
        args[args.index("--workers") + 1] = str(WORKERS)
    return tuple(args)


def check(
    workload: Workload, request: Request, result: Result, seed: int
) -> Optional[str]:
    """Why the request's output is wrong, or None when it is right."""
    if result.exit_code != 0:
        return f"exit code {result.exit_code}"
    rules = {rule.name: rule for rule in workload.rules}
    seeded = request.rule is not None and rules[request.rule].seeded
    if seed == DEFAULT_SEED or not seeded:
        path = REFERENCE / workload.name / f"{request.name}.out"
        if not path.is_file():
            return f"no reference {path.relative_to(ROOT)}"
        expected = path.read_bytes()
        if WORKERS != 2:
            expected = expected.replace(b'"workers":2', f'"workers":{WORKERS}'.encode())
        if result.stdout != expected:
            return f"stdout differs from {path.relative_to(ROOT)}"
        return None
    try:
        doc = json.loads(result.stdout)
    except ValueError:
        return "stdout is not JSON"
    if doc.get("kind") != "analysis":
        return "not an analysis report"
    if doc.get("rule", {}).get("provenance", {}).get("seed") != seed:
        return "rule provenance does not carry the run's seed"
    for key, want in request.expect.items():
        if doc.get(key) != want:
            return f"{key} is {doc.get(key)!r}, the construction guarantees {want!r}"
    search = doc.get("min_coalition")
    if search and search["exact"] and search["size"] is not None:
        # Equitable rules have no winning coalition below sqrt(n).
        if search["size"] ** 2 < doc["n"]:
            return f"winning coalition of size {search['size']} below sqrt(n)"
    return None


def run_pass(
    workload: Workload,
    seed: int,
    rule_dir: Path,
    log_dir: Path,
    trace_dir: Optional[Path] = None,
) -> list[Result]:
    log_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for request in workload.requests:
        prefix = CLI if trace_dir is None else BOOT + (
            str(trace_dir / f"{request.name}.jsonl"),
        )
        result = run_process(
            request.name, prefix + request_args(request), rule_dir, log_dir
        )
        result.error = check(workload, request, result, seed)
        results.append(result)
    return results


def startup_seconds(rule_dir: Path) -> list[float]:
    """Cold processes that import equivote.cli and exit."""
    argv = (sys.executable, "-c", "import equivote.cli")
    return [
        run_process("startup", argv, rule_dir, rule_dir).seconds
        for _ in range(STARTUP_PROBES)
    ]


def read_trace(trace_dir: Path) -> dict:
    """Self time, inclusive time and span count per span name, plus counters.

    A span's self time is its duration minus that of its direct children;
    spans of one process nest, so children never overlap.
    """
    self_s: Counter = Counter()
    inclusive_s: Counter = Counter()
    spans: Counter = Counter()
    counts: Counter = Counter()
    distinct: Counter = Counter()
    for path in sorted(trace_dir.iterdir()):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            in_children: Counter = Counter()
            for _, parent, _, start, end in record["spans"]:
                in_children[parent] += end - start
            for sid, _, name, start, end in record["spans"]:
                inclusive_s[name] += end - start
                self_s[name] += end - start - in_children[sid]
                spans[name] += 1
            counts.update(record["counts"])
            distinct.update(record["distinct"])
    return {
        "self_s": self_s,
        "inclusive_s": inclusive_s,
        "spans": spans,
        "counts": counts,
        "distinct": distinct,
    }


def layer_metric(name: str, trace: dict):
    """Resolve a per-layer metric name against the trace.

    `X.self_s` is the self time of spans named X, `X.s` their inclusive
    time, `X.distinct` the distinct argument tuples X was called with, and
    any other name a counter, with `X.calls` falling back to the number of
    spans named X.
    """
    if name.endswith(".self_s"):
        return trace["self_s"][name[: -len(".self_s")]]
    if name.endswith(".s"):
        return trace["inclusive_s"][name[: -len(".s")]]
    if name.endswith(".distinct"):
        return trace["distinct"][name[: -len(".distinct")]]
    if name in trace["counts"]:
        return trace["counts"][name]
    if name.endswith(".calls"):
        return trace["spans"][name[: -len(".calls")]]
    return 0


def machine_record() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "equivote").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _summary(results: list[Result], values: dict, metrics: list[dict]) -> dict:
    """Print the failed requests; the result object the last line holds."""
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"  FAILED {r.name}: {r.error}")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }


def measure(workload: Workload, seed: int, seconds: float, spec: dict) -> dict:
    """Untraced run: set-up SETUP_REPEATS times, then whole passes."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    rule_dir = work / "rules"
    setups = [set_up(workload, seed, rule_dir) for _ in range(SETUP_REPEATS)]
    walls: list[float] = []
    results: list[Result] = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        results += run_pass(workload, seed, rule_dir, work / "out")
        walls.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    # The lower median is an observed latency: with an even request count the
    # mean of the two middle ones would jump whenever noise reorders them.
    latencies = [r.seconds for r in results]
    failed = sum(r.error is not None for r in results)
    values = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "req_p50_s": (statistics.median_low(latencies), "s", len(latencies)),
        "peak_rss_mb": (max(r.rss_mib for r in results), "MiB", len(results)),
        "failed_ratio": (failed / len(results), "ratio", len(results)),
    }
    # req_p50_s and failed_ratio are printed but not in BENCHMARK.json:
    # failed_ratio is 0 on every correct run, and the median request of
    # analyze-table is a short, start-up-bound process whose spread over ten
    # runs on a shared 2-core host exceeded the largest bound allowed.
    print(f"workload {workload.name}  seed {seed}  passes {len(walls)}")
    for name, (value, unit, samples) in values.items():
        print(f"  {name:<14} {value:12.4f} {unit:<5} n={samples}")
    measured = {name: value for name, (value, _, _) in values.items()}
    return _summary(results, measured, spec["end_to_end"])


def trace(workload: Workload, seed: int, spec: dict) -> dict:
    """Traced run: traced set-up, one untraced and one traced pass."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    rule_dir, trace_dir = work / "rules", work / "trace"
    trace_dir.mkdir(parents=True)
    set_up(workload, seed, rule_dir, trace_dir=trace_dir)
    start = time.perf_counter()
    plain = run_pass(workload, seed, rule_dir, work / "out")
    plain_wall = time.perf_counter() - start
    start = time.perf_counter()
    traced = run_pass(workload, seed, rule_dir, work / "out-traced", trace_dir)
    traced_wall = time.perf_counter() - start
    spans = read_trace(trace_dir)
    special = {
        "cli.startup_s": statistics.median(startup_seconds(rule_dir)),
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    values = {
        m["name"]: special.get(m["name"], layer_metric(m["name"], spans))
        for m in spec["per_layer"]
    }
    print(f"workload {workload.name}  seed {seed}  traced")
    print(f"  {'request':<16} {'untraced_s':>10} {'traced_s':>10} {'rss_MiB':>8}")
    for a, b in zip(plain, traced):
        print(f"  {a.name:<16} {a.seconds:10.3f} {b.seconds:10.3f} {a.rss_mib:8.1f}")
    for metric in spec["per_layer"]:
        value = values[metric["name"]]
        shown = f"{value:14.4f}" if isinstance(value, float) else f"{value:14d}"
        print(f"  {metric['name']:<46} {shown} {metric['unit']}")
    return _summary(plain + traced, values, spec["per_layer"])


def record_references(workload: Workload) -> None:
    """Store the outputs of one pass at the default seed as the references."""
    if WORKERS != 2:
        raise SystemExit("references are recorded with --workers 2; need 2 cores")
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    set_up(workload, DEFAULT_SEED, work / "rules")
    target = REFERENCE / workload.name
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for result in run_pass(workload, DEFAULT_SEED, work / "rules", work / "out"):
        if result.exit_code != 0:
            raise SystemExit(f"{result.name} exited {result.exit_code}")
        (target / f"{result.name}.out").write_bytes(result.stdout)
        print(f"recorded {workload.name}/{result.name} ({len(result.stdout)} bytes)")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="store this commit's outputs at the default seed as the references",
    )
    args = parser.parse_args(argv)
    if not (SRC / "equivote" / "cli.py").is_file():
        print(f"error: no equivote sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_references:
        for name in names:
            record_references(WORKLOADS[name])
        return 0
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    reports = {}
    try:
        for name in names:
            if args.trace:
                reports[name] = trace(WORKLOADS[name], args.seed, spec)
            else:
                reports[name] = measure(WORKLOADS[name], args.seed, args.seconds, spec)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        summary = reports[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, report in reports.items()
                for metric, value in report["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
