"""Exception types shared across the package, and the one base of its immutable value classes."""


class InputError(ValueError):
    """Rejected input: malformed data, dimension mismatch, or a broken precondition."""


class InvariantError(ArithmeticError):
    """A numeric postcondition failed; signals an internal defect, not bad input."""


class Frozen:
    """Slotted instance whose fields are read-only once ``__init__`` has set them.

    ``__init__`` sets the slots, in order, by ``_assign``, which calls ``_setters``, the slot
    descriptors' ``__set__``; assigning or deleting a field afterwards raises ``AttributeError``.
    ``_fields`` is every slot, unless the class names fewer: ``__init__`` takes them in that
    order, and ``repr`` shows them.  Every bellmd value class derives from it, so every one
    compares and hashes by identity; a copy or an unpickled instance is built anew by ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _assign(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # pickle and copy rebuild through the checking __init__, which rejects an edited pickle
    # and freezes the arrays that numpy restores writable
    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
