"""Plain record classes: fields named by `_fields`, compared as a tuple.

They stand where `dataclasses` would, without importing it (it loads
`inspect` and `ast`, which the command line never needs).  One constructor,
`Record.__init__`, takes the fields in `_fields` order, by position or by
name; a class that checks its fields or has defaults defines its own
`__init__` and ends it in `super().__init__`.
"""

# stores one field past FrozenRecord.__setattr__, in the instance's own
# attribute slots: going through vars(self) would build a dict per record
setfield = object.__setattr__


class Record:
    """A mutable record, equal to another of its class with equal fields
    and, like a mutable dataclass, unhashable."""

    _fields = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # a missing, extra, unknown or twice-given field is refused, as a
            # hand-written constructor refuses it
            given = dict(zip(fields, args))
            bad = [name for name in kwargs if name in given or name not in fields]
            given.update(kwargs)
            if len(args) > len(fields) or bad or len(given) < len(fields):
                raise TypeError(f"{type(self).__name__}() takes {fields}; got {len(args)} "
                                f"by position and {sorted(kwargs)} by name")
            args = [given[name] for name in fields]
        for name, value in zip(fields, args):
            setfield(self, name, value)

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
