"""The base of the library's immutable records.

A record is a plain class with ``__slots__`` and a hand-written
``__init__`` that stores each field once through :data:`init_field`.
Records that are compared take :func:`same_fields` as their ``__eq__``;
the others compare by identity.
"""

from __future__ import annotations

#: Stores a field from ``__init__``, past the refusing ``__setattr__``.
init_field = object.__setattr__


def same_fields(self, other):
    """The ``__eq__`` of the records that are compared: equal when of one
    type and equal field by field."""
    if type(other) is not type(self):
        return NotImplemented
    return all(getattr(self, name) == getattr(other, name)
               for name in self.__slots__)


class Frozen:
    """A record whose fields, the names in ``__slots__``, are never
    reassigned or deleted after ``__init__``.

    ``__slots__`` lists the fields in the order of the ``__init__``
    parameters, so copy and pickle rebuild a record by calling its class
    with the stored fields."""

    __slots__ = ()

    def _refuse(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set "
                             f"or delete {name!r}")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
