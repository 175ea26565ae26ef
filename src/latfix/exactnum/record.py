"""Frozen records: the part of the standard library's frozen
``dataclass`` that latfix uses, without its import and per-class cost
(see the package docstring).

    @record
    class Pair:
        left: int
        right: int = 0

A record holds only its fields: its annotated attributes, each with an
optional plain default, which stays a class attribute.  State derived
from the fields is a ``functools.cached_property`` (instances keep their
``__dict__``) or is set by ``__post_init__`` with ``object.__setattr__``,
and is never a field.

``__init__``, ``__eq__`` and ``__hash__`` come from one generated source
per class, so they run as fast as the standard ones.  ``__init__`` takes
the fields in annotation order, positionally or by keyword, sets them
and calls ``__post_init__`` if the class has one.  ``__eq__``,
``__hash__`` and ``__repr__`` read every field, and ``__eq__`` answers
only for instances of the same class.  These four replace any the class
defines, so a record checks its arguments in ``__post_init__``.  Setting
or deleting an attribute raises ``FrozenRecordError``.
"""
from __future__ import annotations


class FrozenRecordError(AttributeError):
    """An attempt to set or delete an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record over its annotated attributes."""
    names = tuple(cls.__annotations__)
    cls.__record_fields__ = names

    # one generated source; the defaults are its globals
    scope = {"_set": object.__setattr__}
    params, body = ["self"], []
    for name in names:
        if name in cls.__dict__:
            scope[f"_dflt_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        body.append(f"    _set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    key = "".join(f"self.{name}," for name in names)
    other = "".join(f"other.{name}," for name in names)
    exec(
        f"def __init__({', '.join(params)}):\n" + "\n".join(body) + "\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({key}) == ({other})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({key}))\n",
        scope,
    )

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    for method in (scope["__init__"], __repr__, scope["__eq__"], scope["__hash__"]):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
