"""Plain slotted records: the base of the package's value classes.

A record names its fields in _fields.  Two records are equal when they are
of the same class and their _fields are equal, and repr reads
Class(field=value, ...).  A FrozenRecord also hashes as the tuple of its
_fields and refuses assignment, so its __init__ sets slots through
object.__setattr__.  A class may write its own __eq__, __hash__ or __repr__.
"""

from __future__ import annotations


class Record:
    """A mutable record: equality and repr over _fields, no hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record, hashed as the tuple of its _fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value}) from object.__getstate__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
