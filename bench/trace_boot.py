"""Run one equivote CLI request with span wrappers installed from outside.

    python3 bench/trace_boot.py TRACE_FILE equivote-arguments...

Each wrapper records a span (id, parent, name, start, end) or bumps a
counter around one public function. It is installed in every equivote module
namespace that bound the function, because the package imports most of them
with `from .module import name` and a wrapper on the defining module alone
would miss those calls. The request runs in its own process, as in the
untraced run, so its caches behave the same.

Spans and counters stay in memory. The request process writes them to
TRACE_FILE as one JSON line when it ends. Forked pool workers are killed
rather than exited, so each writes its own line to TRACE_FILE.<pid> after
every task it runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.root_pid = os.getpid()
        self.last_table: dict = {}  # rule -> weakref to the array last returned
        self.clear()
        os.register_at_fork(after_in_child=self.clear)

    def clear(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.next_id = 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def record(self) -> str:
        return json.dumps(
            {
                "pid": os.getpid(),
                "spans": self.spans,
                "counts": self.counts,
                "distinct": {name: len(keys) for name, keys in self.keys.items()},
            }
        )

    def write(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.record() + "\n")

    def flush_worker(self) -> None:
        if os.getpid() != self.root_pid:
            with open(f"{self.path}.{os.getpid()}", "a", encoding="utf-8") as fh:
                fh.write(self.record() + "\n")
            self.clear()

    def span(self, fn, label, before=None, after=None):
        """Wrap fn in a span; label is a name or label(arguments, result).

        after(tracer, name, arguments, result) runs when fn returns; result
        is None when fn raised.
        """
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if before is not None:
                before(self, bound.arguments)
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else 0
            self.stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                name = label
                if not isinstance(label, str):
                    name = label(bound.arguments, result)
                self.spans.append((sid, parent, name, start, end))
                if after is not None:
                    after(self, name, bound.arguments, result)

        return wrapper

    def counter(self, fn, name):
        """Wrap fn in a bare call counter, for functions called too often
        to give each call a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def worker_task(self, fn):
        """Pool task entry: in a forked worker, write the trace after each task."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.flush_worker()

        return wrapper


def _distinct(tracer: Tracer, name: str, arguments: dict, result) -> None:
    tracer.keys.setdefault(name, set()).add(tuple(arguments.items()))


def _table_built(tracer: Tracer, name: str, arguments: dict, result) -> None:
    """A call built the table when it did not return the array it returned
    the last time it was called for an equal rule."""
    if result is None:
        return
    rule = arguments["rule"]
    seen = tracer.last_table.get(rule)
    if seen is None or seen() is not result:
        tracer.count(name + ".builds")
        tracer.count(name + ".entries_built", int(result.size))
        if seen is not None:
            tracer.count(name + ".rebuilds")
        tracer.last_table[rule] = weakref.ref(result)


def _count_perms(tracer: Tracer, arguments: dict) -> None:
    def counted(perms):
        for p in perms:
            tracer.count("tables.automorphism_filter.perms_checked")
            yield p

    arguments["perms"] = counted(arguments["perms"])


def _mwc_label(arguments: dict, result) -> str:
    if result is None:
        return "analysis.min_winning_coalitions.refused"
    return "analysis.min_winning_coalitions." + result.method.split("+")[0]


def _add(field: str, metric: str):
    def after(tracer: Tracer, name: str, arguments: dict, result) -> None:
        if result is None:
            return
        value = getattr(result, field)
        tracer.count(metric, len(value) if isinstance(value, tuple) else int(value))

    return after


def _bytes_out(tracer: Tracer, name: str, arguments: dict, result) -> None:
    if result is not None:
        tracer.count("serialize.bytes_out", len(result.encode("utf-8")))


# (module, function, span label or None for a bare call counter, before, after)
HOOKS = (
    ("serialize", "load_rule_file", "serialize.load_rule_file", None, None),
    ("serialize", "canonical_json", "serialize.canonical_json", None, _bytes_out),
    ("rules", "outcome", None, None, None),
    ("rules", "is_neutral", "rules.axiom_scans", None, None),
    ("rules", "is_symmetric", "rules.axiom_scans", None, None),
    ("rules", "is_positively_responsive", "rules.axiom_scans", None, None),
    ("tables", "outcome_table", "tables.outcome_table", None, _table_built),
    ("tables", "automorphism_filter", "tables.automorphism_filter", _count_perms, None),
    (
        "analysis",
        "min_winning_coalitions",
        _mwc_label,
        None,
        _add("subsets_checked", "analysis.min_winning_coalitions.subsets_checked"),
    ),
    ("analysis", "is_winning_coalition", "analysis.is_winning_coalition", None, None),
    (
        "analysis",
        "pivotality",
        lambda arguments, result: "analysis.pivotality." + arguments["distribution"],
        None,
        None,
    ),
    ("analysis", "automorphism_group", "analysis.automorphism_group", None, _distinct),
    ("analysis", "certified_subgroup", "analysis.certified_subgroup", None, _distinct),
    ("analysis", "is_equitable", "analysis.verdicts", None, None),
    ("analysis", "is_k_equitable", "analysis.verdicts", None, None),
    ("analysis", "is_cyclic_rule", "analysis.verdicts", None, None),
    ("analysis", "assignment_classes", "analysis.assignment_classes", None, None),
    (
        "perms",
        "generate_closure",
        "perms.generate_closure",
        None,
        _add("elements", "perms.generate_closure.elements"),
    ),
    ("perms", "is_k_transitive", "perms.is_k_transitive", None, None),
    ("geometry", "pgl2_elements", "geometry.pgl2_elements", None, None),
    ("geometry", "pgl3_elements", "geometry.pgl3_elements", None, None),
    (
        "randomized",
        "intersecting_set",
        "randomized.intersecting_set",
        None,
        _add("attempts", "randomized.intersecting_set.attempts"),
    ),
    (
        "verify",
        "verify_claim",
        lambda arguments, result: "verify." + arguments["claim"],
        None,
        None,
    ),
)

# Functions the fork pools run in their workers.
POOL_TASKS = (("tables", "_loop_chunk_star"), ("analysis", "_scan_size_chunk"))


def install(tracer: Tracer) -> None:
    import equivote  # noqa: F401  (imports every module but the CLI)
    import equivote.cli  # noqa: F401

    modules = [
        module
        for name, module in sys.modules.items()
        if name == "equivote" or name.startswith("equivote.")
    ]

    def replace(module_name: str, function: str, make) -> None:
        original = getattr(sys.modules["equivote." + module_name], function, None)
        if original is None:
            return
        wrapper = make(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for module_name, function, label, before, after in HOOKS:
        if label is None:
            make = functools.partial(
                tracer.counter, name=f"{module_name}.{function}.calls"
            )
        else:
            make = functools.partial(
                tracer.span, label=label, before=before, after=after
            )
        replace(module_name, function, make)
    for module_name, function in POOL_TASKS:
        replace(module_name, function, tracer.worker_task)


def main() -> int:
    tracer = Tracer(sys.argv[1])
    install(tracer)
    from equivote.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main())
