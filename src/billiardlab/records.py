"""The base of the library's immutable records.

A record is a plain class that names its fields once, in ``__slots__``,
and is built by :class:`Frozen`'s constructor from one positional value
per field.  Records that are compared take :func:`same_fields` as their
``__eq__``; the others compare by identity.
"""

from __future__ import annotations


def same_fields(self, other):
    """The ``__eq__`` of the records that are compared: equal when of one
    type and equal field by field."""
    if type(other) is not type(self):
        return NotImplemented
    return all(getattr(self, name) == getattr(other, name)
               for name in self.__slots__)


class Frozen:
    """A record whose fields, the names in its own ``__slots__``, are set
    once by the constructor and never reassigned or deleted.

    The constructor takes exactly one positional value per field, in
    ``__slots__`` order, and raises TypeError for any other number.  A
    record that validates its values first (``CirclePoint``) passes the
    results on through ``super().__init__``.  Copy and pickle rebuild a
    record by calling its class with the stored fields."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields ({', '.join(names)}), got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _refuse(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set "
                             f"or delete {name!r}")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
