"""Exception types shared across the package, and the base of its immutable value classes."""

import numpy as np


class InputError(ValueError):
    """Rejected input: malformed data, dimension mismatch, or a broken precondition."""


class InvariantError(ArithmeticError):
    """A numeric postcondition failed; signals an internal defect, not bad input."""


class Frozen:
    """Slotted instance whose fields are read-only once ``__init__`` has set them.

    ``__init__`` sets the slots, in order, by ``_assign``; assigning or deleting a field
    afterwards raises ``AttributeError``.  ``repr`` shows ``_fields``: every slot, unless the
    class names fewer.  Instances compare and hash by identity; copies hold read-only arrays.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # pickle and copy would restore slots by the refused setattr, and protocols 0-1 not at all
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for value in state:  # numpy restores an array writable; the original's is read-only
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._assign(*state)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Value(Frozen):
    """Frozen instance equal to one of its class whose ``_fields`` are equal; hashed by them."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())
