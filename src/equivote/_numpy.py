"""The numpy module every equivote module uses, executed on first use.

Importing numpy takes longer than the rest of a cold CLI start, yet
`--help`, `eval`, every `construct`, the equity, k-equity and cyclicity
verdicts on a group-orbit rule, and the minimal winning coalitions of a
coalition rule above the scan cap touch no array. So `np` is the
module object of numpy under `importlib.util.LazyLoader`: it is
registered in `sys.modules` at once and runs numpy's own import on its
first attribute access. When numpy is already imported, `np` is that
module.

The start keeps other imports small the same way: the value classes are
frozen records from `_record`, not dataclasses (so neither `dataclasses`
nor `inspect` loads), and the report writes pivotality shares as text
without `fractions`: only the public `pivotality()` imports it. The package
and the CLI still import every equivote module eagerly: the benchmark's
tracer (`bench/trace_boot.py`) wraps functions in each `equivote.<module>`
it finds in `sys.modules` right after `import equivote, equivote.cli`.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
