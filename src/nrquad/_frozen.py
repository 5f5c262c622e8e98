"""A base for immutable value types that, unlike dataclasses, generates no code at import.

A subclass names its fields in ``__slots__`` and sets them in its own
``__init__`` through the setters that :func:`slot_setters` binds once,
after the class statement.  Each is the ``__set__`` of a field's slot
descriptor, so an assignment stores the value without looking the field
up by name, as ``object.__setattr__(self, name, value)`` does on every
call.  From the field tuple it gets equality and hashing (only against an
instance of the same class), a ``Name(field=value, ...)`` repr,
``__match_args__`` for class patterns, and pickling and copying through
its constructor.  Any other assignment or deletion raises
``AttributeError``.
"""

from __future__ import annotations

from collections.abc import Callable


def slot_setters(cls: type) -> tuple[Callable[[object, object], None], ...]:
    """The setter of each field ``cls`` declares, in ``__slots__`` order; a plain assignment raises."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Frozen:
    __slots__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, self._fields()
