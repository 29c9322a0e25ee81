"""The benchmark's trace wrappers find package functions by name and skip
a name that no longer exists, so a rename would silently zero a per-layer
metric. These checks make such a rename fail here instead."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACE_BOOT = REPO / "bench" / "trace_boot.py"


def _trace_boot():
    spec = importlib.util.spec_from_file_location("trace_boot", TRACE_BOOT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    return _trace_boot().HOOKS


def _hooked(module_name, function):
    return getattr(importlib.import_module("equivote." + module_name), function, None)


def test_every_trace_hook_resolves():
    for module_name, function, *_ in _hooks():
        fn = _hooked(module_name, function)
        assert callable(fn), f"equivote.{module_name}.{function} is gone"
        assert fn.__module__ == "equivote." + module_name


def test_trace_labels_read_parameters_that_exist():
    # span labels are built from these arguments
    assert "distribution" in inspect.signature(_hooked("analysis", "pivotality")).parameters
    assert "claim" in inspect.signature(_hooked("verify", "verify_claim")).parameters
    # perms_checked counts the prefixes passed to the filter as `perms`
    perms_filter = _hooked("tables", "automorphism_filter")
    assert "perms" in inspect.signature(perms_filter).parameters


def test_the_report_calls_the_hooked_pivotality(monkeypatch):
    # the analysis.pivotality.<distribution> spans time the report's shares
    # only while analyze_rule calls the module's `pivotality` by that name
    from equivote import analysis
    from equivote.rules import Majority

    original, seen = analysis.pivotality, []

    def spy(*args, **kwargs):
        seen.append(kwargs["distribution"])
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "pivotality", spy)
    analysis.analyze_rule(
        Majority(3), want_equity=False, pivot_distributions=("binary", "ternary")
    )
    assert seen == ["binary", "ternary"]


def test_package_and_cli_imports_load_every_hooked_module():
    # install() reads sys.modules["equivote.<module>"] after importing only
    # the package and the CLI, so neither may defer a submodule import
    boot = _trace_boot()
    wanted = {"equivote." + entry[0] for entry in boot.HOOKS + boot.POOL_TASKS}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    script = "import sys, equivote, equivote.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert sorted(wanted - set(loaded)) == []


def test_closures_carry_the_count_the_trace_reads():
    # the perms.generate_closure.elements metric reads `elements` off each
    # closure, as a tuple's length or an int
    from equivote.perms import generate_closure, symmetric_generators

    assert generate_closure(4, symmetric_generators(4)).elements == 24
