"""Frozen records: the part of the standard library's frozen
``dataclass`` that latfix uses, without its import and per-class cost
(see the package docstring).

    @record
    class Pair:
        left: int
        right: int = 0
        cache: dict = field(default_factory=dict, repr=False, compare=False)

``__init__``, ``__eq__`` and ``__hash__`` come from one generated source
per class, so they run as fast as the standard ones.  ``__init__`` takes
the ``init`` fields in annotation order, positionally or by keyword,
sets every field (a ``default_factory`` field gets a fresh value) and
calls ``__post_init__`` if the class has one; an ``init=False`` field
with no default is left for ``__post_init__``, which sets fields with
``object.__setattr__``.  ``__eq__`` and ``__hash__`` read the tuple of
``compare`` fields, and ``__eq__`` answers only for instances of the
same class.  ``__repr__`` shows the ``repr`` fields.  Setting or
deleting an attribute raises ``FrozenRecordError``.  Instances keep
their ``__dict__``, so ``functools.cached_property`` works on them.  A
method the class defines itself is kept.
"""
from __future__ import annotations

# the default and default_factory of a field that has none
MISSING = object()


class FrozenRecordError(AttributeError):
    """An attempt to set or delete an attribute of a record."""


class Field:
    """How one annotated attribute of a record is initialised, shown and
    compared."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(
        self,
        *,
        default=MISSING,
        default_factory=MISSING,
        init: bool = True,
        repr: bool = True,
        compare: bool = True,
    ) -> None:
        if default is not MISSING and default_factory is not MISSING:
            raise ValueError("cannot specify both default and default_factory")
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


field = Field


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record over its annotated attributes."""
    fields = []
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, MISSING)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        spec.name = name
        fields.append(spec)
        if spec.default is MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
    cls.__record_fields__ = tuple(fields)

    # one generated source; defaults and factories are its globals
    scope = {"MISSING": MISSING, "_set": object.__setattr__}
    params, body = ["self"], []
    for f in fields:
        name = f.name
        scope[f"_dflt_{name}"] = f.default
        scope[f"_fact_{name}"] = f.default_factory
        if f.init:
            value = name
            if f.default is not MISSING:
                params.append(f"{name}=_dflt_{name}")
            elif f.default_factory is not MISSING:
                params.append(f"{name}=MISSING")
                value = f"_fact_{name}() if {name} is MISSING else {name}"
            else:
                params.append(name)
        elif f.default is not MISSING:
            value = f"_dflt_{name}"
        elif f.default_factory is not MISSING:
            value = f"_fact_{name}()"
        else:
            continue
        body.append(f"    _set(self, {name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    compared = [f.name for f in fields if f.compare]
    key = "".join(f"self.{name}," for name in compared)
    other = "".join(f"other.{name}," for name in compared)
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

    shown = tuple(f.name for f in fields if f.repr)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({inner})"

    methods = {
        "__init__": scope["__init__"],
        "__repr__": __repr__,
        "__eq__": scope["__eq__"],
        "__hash__": scope["__hash__"],
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
