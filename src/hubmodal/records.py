"""Record classes without per-class code generation.

``@record`` and ``@record(frozen=True)`` stand in for ``@dataclass`` and
``@dataclass(frozen=True)``.  The standard decorator writes each class's
``__init__``, ``__repr__``, ``__eq__`` and (when frozen) ``__hash__``,
``__setattr__`` and ``__delattr__`` as source text and compiles it with
``exec``: about 1 ms a class on CPython 3.11, paid again by every
process that imports the class, compiled bytecode cache or not.
``record`` runs ``dataclass(init=False, repr=False, eq=False)`` only to
collect the fields, so ``dataclasses.fields``, ``replace``, ``asdict``
and ``is_dataclass`` keep working, and installs methods written once
here and bound to the class's field names: no ``exec`` at all.

The methods behave as the standard ones do: ``__init__`` takes the
fields positionally or by keyword, fills defaults and default factories,
raises the same ``TypeError`` messages for a missing, surplus, repeated
or unknown argument, and then calls ``__post_init__`` when the class has
one; ``__repr__`` and ``__eq__`` (same class only, over the field tuple)
and the frozen hash and ``FrozenInstanceError`` match too, and a method
the class body defines itself is kept.  ``inspect.signature(cls)`` lists
the fields, with ``<factory>`` for a default factory.  Unsupported:
``InitVar``, keyword-only and ``init=False`` fields, ``slots`` and the
ordering methods.
"""

from __future__ import annotations

import dataclasses
import inspect
from _thread import get_ident
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter


class _Factory:
    """The default shown in a signature for a field with a default factory."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def record(cls=None, /, *, frozen: bool = False):
    """Make ``cls`` a record class: ``@record`` or ``@record(frozen=True)``."""

    def wrap(cls):
        return _process(cls, frozen)

    return wrap if cls is None else wrap(cls)


def _process(cls, frozen: bool):
    # the doc a docstring-less dataclass gets reads this signature
    cls.__signature__ = _Signature()
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    if any(f.kw_only or not f.init for f in fields):
        raise TypeError(f"{cls.__name__}: record fields must be init fields, not keyword-only")
    own = cls.__dict__
    if "__init__" in own:
        del cls.__signature__  # inspect reads the class's own
    methods = {
        "__init__": _initializer(cls, fields, frozen),
        "__repr__": _repr([f.name for f in fields if f.repr]),
        "__eq__": _eq(_values([f.name for f in fields if f.compare])),
    }
    # as dataclass decides: a class body's __eq__ alone sets __hash__ to None
    explicit_hash = "__hash__" in own and not (own["__hash__"] is None and "__eq__" in own)
    if frozen:
        for name in ("__setattr__", "__delattr__"):
            if name in own:
                raise TypeError(f"Cannot overwrite attribute {name} in class {cls.__name__}")
        names = frozenset(f.name for f in fields)
        methods["__setattr__"] = _frozen_setattr(cls, names)
        methods["__delattr__"] = _frozen_delattr(cls, names)
    for name, method in methods.items():
        if name not in own:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if not explicit_hash:
        cls.__hash__ = None
        if frozen:
            cls.__hash__ = _hash(_values([f.name for f in fields if (f.compare if f.hash is None else f.hash)]))
            cls.__hash__.__qualname__ = f"{cls.__qualname__}.__hash__"
    return cls


def _values(names):
    """A function giving an object's ``names`` attributes as a tuple."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    if not names:
        return lambda obj: ()
    return attrgetter(*names)


def _initializer(cls, fields, frozen: bool):
    """``__init__`` over ``fields``, as dataclass writes it."""
    names = tuple(f.name for f in fields)
    known = frozenset(names)
    n = len(names)
    defaults = {}
    factories = {}
    for f in fields:
        if f.default_factory is not MISSING:
            factories[f.name] = f.default_factory
        elif f.default is not MISSING:
            defaults[f.name] = f.default
        elif defaults or factories:
            raise TypeError(f"non-default argument {f.name!r} follows default argument")
    required = n - len(defaults) - len(factories)
    qualname = f"{cls.__qualname__}.__init__"
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """The values of every init field, as a call binds them."""
        given = len(args)
        if kwargs:
            taken = names[:given]
            for key in kwargs:
                if key not in known:
                    raise TypeError(f"{qualname}() got an unexpected keyword argument '{key}'")
                if key in taken:
                    raise TypeError(f"{qualname}() got multiple values for argument '{key}'")
        if given > n:
            takes = f"from {required + 1} to {n + 1}" if required < n else f"{n + 1}"
            raise TypeError(
                f"{qualname}() takes {takes} positional argument{'s' if n else ''}"
                f" but {given + 1} were given"
            )
        values = list(args)
        missing = []
        for name in names[given:]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in defaults:
                values.append(defaults[name])
            elif name in factories:
                values.append(factories[name]())
            else:
                missing.append(name)
        if missing:
            quoted = [repr(name) for name in missing]
            listed = quoted[0] if len(quoted) == 1 else " and ".join(quoted) if len(quoted) == 2 else (
                ", ".join(quoted[:-1]) + ", and " + quoted[-1]
            )
            s = "s" if len(missing) > 1 else ""
            raise TypeError(f"{qualname}() missing {len(missing)} required positional argument{s}: {listed}")
        return values

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == n:
            values = zip(names, args)
        elif not args and kwargs.keys() == known:  # every field by keyword
            values = {name: kwargs[name] for name in names}
        else:
            values = zip(names, bind(args, kwargs))
        if frozen:
            self.__dict__.update(values)
        else:
            for name, value in dict(values).items():
                setattr(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__


class _Signature:
    """``cls.__signature__``: the fields as ``__init__`` parameters, built
    when asked for."""

    def __get__(self, obj, owner):
        params = []
        for f in dataclasses.fields(owner):
            default = f.default if f.default_factory is MISSING else _FACTORY
            params.append(
                inspect.Parameter(
                    f.name,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    default=inspect.Parameter.empty if default is MISSING else default,
                    annotation=f.type,
                )
            )
        return inspect.Signature(params, return_annotation=None)


def _repr(names):
    running = set()

    def __repr__(self):
        key = id(self), get_ident()
        if key in running:
            return "..."
        running.add(key)
        try:
            body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        finally:
            running.discard(key)
        return f"{self.__class__.__qualname__}({body})"

    return __repr__


def _eq(values):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    return __eq__


def _hash(values):
    def __hash__(self):
        return hash(values(self))

    return __hash__


def _frozen_setattr(cls, names):
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    return __setattr__


def _frozen_delattr(cls, names):
    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __delattr__
