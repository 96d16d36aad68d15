"""Plain record classes: fields named by `_fields`, compared as a tuple.

They stand where `dataclasses` would, without importing it (it loads
`inspect` and `ast`, which the command line never needs).  Each record
has an explicit __init__; a frozen one stores its fields by `setfield`.
"""

# stores one field past FrozenRecord.__setattr__, in the instance's own
# attribute slots: going through vars(self) would build a dict per record
setfield = object.__setattr__


class Record:
    """A mutable record, equal to another of its class with equal fields
    and, like a mutable dataclass, unhashable."""

    _fields = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    """An immutable record, hashed by its fields."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
