"""Base of the package's validated, immutable value types."""

from __future__ import annotations


class Record:
    """An immutable value whose ``__init__`` checks its arguments and stores
    them with ``_set``.

    ``_fields`` names, in ``__init__`` order, the attributes that ``==``,
    ``hash``, ``repr`` and pickling use; records of different classes never
    compare equal.  Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._key()
