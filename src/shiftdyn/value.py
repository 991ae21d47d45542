"""Value semantics for the package's record classes, from one field list.

A subclass names its constructor's parameters in `_fields`, in order, and
keeps each in a slot of that name.  Equality compares the tuples of their
values between instances of one class, the repr shows them as name=value
(then the class constants named in `_shown`, such as a weight family's
`family`), and a copy or a pickle calls the constructor again with them, so
it passes the constructor's checks and holds nothing but its fields.  A
class declared with `frozen=True` is immutable and hashable, its `__init__`
setting its slots through `object.__setattr__`; any other is mutable and
unhashable.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # the constructor's parameters, in order
    _shown: tuple[str, ...] = ()  # class constants the repr shows after them
    __hash__ = None

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__hash__ = Value._hash
            cls.__setattr__ = cls.__delattr__ = Value._refuse

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def _hash(self) -> int:
        return hash(self._values())

    def _refuse(self, name: str, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields + self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()
