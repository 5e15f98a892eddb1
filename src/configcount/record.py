"""One base for the frozen result records.

A record's fields are its annotations, in order, inherited fields first, read
once per class.  ``Record`` gives every record what ``@dataclass(frozen=True)``
would generate: equality and a hash by field values, within one class only;
``Name(field=value, ...)`` as its repr; and no assignment or deletion.  Each
record writes its own ``__init__``, which checks its arguments and sets each
field with ``set_field``, that is ``object.__setattr__``.  A dataclass writes
those methods as source and compiles each one at import, which cost every
command about 1 ms per class.
"""

from __future__ import annotations

# A record's own __setattr__ refuses, so its __init__ sets each field with this.
set_field = object.__setattr__


class Record:
    """A frozen record of named fields; subclasses declare them as annotations."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys(
            name for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__annotations__", ())))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__, which takes
        # the fields in order; the frozen __setattr__ refuses the default way.
        return self.__class__, self._values()
