"""Value records built from closures: the part of ``dataclasses`` this package uses,
without the ``exec`` of generated methods and the ``inspect`` import it costs at start-up.
A record checks nothing itself (no ``__post_init__`` runs): the reader that builds one
from a document checks it."""

from operator import attrgetter

__all__ = ["Record", "field", "record"]

_MISSING = object()
_setattr = object.__setattr__


class field:
    """One field's options, named as for ``dataclasses.field``."""

    def __init__(self, *, default=_MISSING, default_factory=None, compare=True, repr=True):
        self.factory = default_factory or (None if default is _MISSING else lambda: default)
        self.compare, self.repr = compare, repr


def _bind(cls, args, kwargs) -> tuple:
    """Every field's value, in field order, from ``__init__``'s arguments."""
    fields, values = cls._record_fields, {**dict(zip(cls._record_fields, args)), **kwargs}
    unset = [name for name, spec in fields.items() if name not in values and spec.factory is None]
    if unset or len(args) > len(fields) or len(values) < len(args) + len(kwargs) or values.keys() - fields.keys():
        raise TypeError(f"{cls.__name__}() takes {list(fields)}: missing {unset} or extra arguments")
    return tuple(values[name] if name in values else spec.factory() for name, spec in fields.items())


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls, frozen=False):
    """Give ``cls`` (annotated fields, class-level defaults) the ``__init__``,
    ``__repr__`` and ``==`` it lacks; frozen, also a hash and no assignment.
    Formula nodes are built by the ten thousand: two fields skip the loop, the
    hash is cached, and ``==`` stops at two classes or cached hashes."""
    fields = cls._record_fields = dict(getattr(cls, "_record_fields", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        fields[name] = spec if isinstance(spec, field) else field(default=spec)
    names, n = tuple(fields), len(fields)
    compared = [name for name, spec in fields.items() if spec.compare]
    values = attrgetter(*compared or ["__class__"])  # one name gives a bare value; none, the class

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, args, kwargs)
        if n == 2:
            _setattr(self, names[0], args[0])
            _setattr(self, names[1], args[1])
        else:
            for name, value in zip(names, args):
                _setattr(self, name, value)

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name, spec in fields.items() if spec.repr)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return False if hasattr(other, "_record_fields") else NotImplemented
        h, k = self._record_hash, other._record_hash
        if h != k and h is not None and k is not None:
            return False
        a, b = values(self), values(other)
        return a is b or a == b  # the identity test a tuple makes of its items

    def __hash__(self):
        if self._record_hash is None:
            key = values(self) if len(compared) > 1 else tuple(getattr(self, name) for name in compared)
            _setattr(self, "_record_hash", hash(key))
        return self._record_hash

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__, "__hash__": __hash__ if frozen else None}
    methods.update({"__setattr__": _frozen, "__delattr__": _frozen} if frozen else {})
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._record_hash = None
    return cls


class Record:
    """Base class: ``record`` makes each subclass frozen unless given ``frozen=False``."""

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        record(cls, frozen)
