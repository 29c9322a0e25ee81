"""The benchmark's trace wrappers find package functions by name and skip
a name that no longer exists, so a rename would silently zero a per-layer
metric. These checks make such a rename fail here instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACE_BOOT = Path(__file__).resolve().parent.parent / "bench" / "trace_boot.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("trace_boot", TRACE_BOOT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


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
