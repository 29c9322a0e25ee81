"""Frozen value records: the class decorator behind every equivote value.

`record` does for the classes here what `dataclasses.dataclass(frozen=True)`
did, with plain closures instead of methods generated by `exec`, and without
importing `dataclasses` and the `inspect` it loads. On Python 3.11 those
imports and the generated methods were about 70% of `import equivote.cli`.
What it does:

- the fields are the class's own annotations, in order, and a class
  attribute of the same name is that field's default;
- `__init__` takes the fields by position or keyword, then runs the class's
  `__post_init__`, if it has one;
- assigning or deleting an attribute raises AttributeError
  (`functools.cached_property` still works: it writes the instance
  `__dict__` directly);
- two records are equal only when they are of the same class and their
  compared fields are equal, and a record hashes as the tuple of its
  compared fields; the fields named in `uncompared` take part in neither;
- the repr shows the class and every field.
"""

from __future__ import annotations

import operator


def record(cls: type | None = None, *, uncompared: tuple[str, ...] = ()):
    """Make cls a frozen record; `@record(uncompared=(...))` also works."""
    if cls is None:
        return lambda cls: record(cls, uncompared=uncompared)
    name = cls.__qualname__
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    compared = tuple(f for f in fields if f not in uncompared)
    post_init = getattr(cls, "__post_init__", None)
    get = operator.attrgetter(*compared)
    # attrgetter returns a bare value, not a tuple, for one name
    key = get if len(compared) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = _bind(name, fields, defaults, args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({shown})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def _bind(
    name: str, fields: tuple, defaults: dict, args: tuple, kwargs: dict
) -> list:
    """The field values, in field order, that a call with these arguments
    gives, or the TypeError that calling a function would raise."""
    if len(args) > len(fields):
        given = f"{len(args)} were given"
        raise TypeError(f"{name}() takes {len(fields)} positional arguments but {given}")
    bound = dict(zip(fields, args))
    for f, value in kwargs.items():
        if f not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {f!r}")
        if f in bound:
            raise TypeError(f"{name}() got multiple values for argument {f!r}")
        bound[f] = value
    missing = [f for f in fields if f not in bound and f not in defaults]
    if missing:
        names = ", ".join(map(repr, missing))
        raise TypeError(f"{name}() missing required arguments: {names}")
    return [bound[f] if f in bound else defaults[f] for f in fields]
