"""Immutable value types, defined without generating code.

A subclass of ``Value`` lists its fields as annotations, in order, with
optional defaults, as a frozen dataclass would::

    class Space(Value):
        kind: str
        params: tuple[int, ...] = ()

The metaclass turns the fields into ``__slots__``, so defining a class
compiles and runs nothing beyond its own body.  Instances take positional
or keyword fields, compare field by field and only with their own class,
print as ``Name(field=value, ...)`` and refuse assignment.  The hash is
computed from the fields on first use and kept in a slot: the fields never
change, so every later lookup in a memo table skips re-hashing them.  Two
threads hashing one value at once store the same number, so the slot needs
no lock.
"""

from __future__ import annotations

from operator import attrgetter


class _ValueType(type):
    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace.setdefault("__slots__", fields)
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields = fields
        cls._defaults = defaults
        cls._getters = tuple(attrgetter(f) for f in fields)
        cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)
        cls._key = attrgetter(*fields) if fields else None
        return cls


class Value(metaclass=_ValueType):
    """Base of the immutable, hashable value types of gwcalc."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)
        _put_hash(self, None)

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values in order, from positional, keyword and default values."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__} takes {len(fields)} fields, got {len(args)}"
            )
        given = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields or name in given:
                raise TypeError(
                    f"{cls.__name__} got an unexpected or repeated field {name!r}"
                )
        given = {**cls._defaults, **given, **kwargs}
        missing = [f for f in fields if f not in given]
        if missing:
            raise TypeError(f"{cls.__name__} is missing fields {', '.join(missing)}")
        return [given[f] for f in fields]

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        for get in self._getters:
            a = get(self)
            b = get(other)
            if a is not b and not a == b:
                return False
        return True

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(self._key(self))
            _put_hash(self, value)
        return value

    def __repr__(self):
        body = ", ".join(
            f"{f}={get(self)!r}" for f, get in zip(self._fields, self._getters)
        )
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([get(self) for get in self._getters])


_put_hash = Value._hash.__set__
