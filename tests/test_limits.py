import ast
import importlib
import pathlib

import pytest

import equivote
from equivote.limits import refuse_above

SRC = pathlib.Path(equivote.__file__).parent
LIMITS = (
    "PROFILE_SCAN_CAP",
    "FAMILY_WINDOW",
    "CCC_MAX_ENTRIES",
    "FAMILY_MAX_MEMBERS",
    "MAX_DEGREE",
    "MAX_GROUP_ENTRIES",
    "FACTORIAL_CAP",
    "ASSIGNMENT_CAP",
    "PIVOT_BINARY_CAP",
    "COALITION_BUDGET",
    "WITNESS_LIMIT",
    "BATCH_ROWS",
    "_TABLE_CACHE_BYTES",
    "SCAN_CAP_LIMIT",
    "MAX_ATTEMPTS",
)


def _int_constants(path: pathlib.Path):
    """(module, name) for each name a module's top-level statements bind to
    an int, read off the imported module, so derived values count too;
    imports bind no name here."""
    module = importlib.import_module(f"equivote.{path.stem}")
    for node in ast.parse(path.read_text()).body:
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name) and type(getattr(module, target.id)) is int:
                yield path.stem, target.id


def test_every_integer_constant_is_a_limit():
    bound = {pair for path in SRC.glob("*.py") for pair in _int_constants(path)}
    assert bound == {("limits", name) for name in LIMITS} | {
        ("serialize", "FORMAT_VERSION")
    }


def test_each_limit_has_a_one_line_note():
    lines = (SRC / "limits.py").read_text().splitlines()
    for name in LIMITS:
        (i,) = [i for i, line in enumerate(lines) if line.startswith(f"{name} = ")]
        assert lines[i - 1].startswith("# ") and not lines[i - 2].startswith("#")


def test_refuse_above():
    assert refuse_above(16384, 16384, "unused") == 16384
    with pytest.raises(ValueError) as info:
        refuse_above(16385, 16384, "PG(2,131) has 16385 points")
    assert str(info.value) == "PG(2,131) has 16385 points, above the limit of 16384"
