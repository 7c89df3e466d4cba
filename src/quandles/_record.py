"""Base of the package's small immutable value types.

A subclass names its fields in __slots__, in constructor order, and its
explicit __init__ validates the arguments and stores them once with
_set.  A subclass whose equality ignores some fields (display labels)
names the fields it compares in _compared.  Plain classes keep the
dataclasses module and the code it generates out of the import of every
command-line request.
"""


class Record:
    """Equality, hashing, repr and copying by the fields in __slots__.

    Two records are equal when they have the same class and equal
    compared fields (_compared, by default every field); the hash is
    that of their tuple.  Fields cannot be assigned or deleted after
    __init__.  Copies and pickles go through the constructor, so they
    are validated again.
    """

    __slots__ = ()
    _compared = None

    def _set(self, *values):
        """Store the fields, in __slots__ order; for __init__ only."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self, names=None) -> tuple:
        return tuple([getattr(self, f) for f in names or self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self._compared) == other._fields(self._compared)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self._compared))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
