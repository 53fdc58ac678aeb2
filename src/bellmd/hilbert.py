"""Dense complex linear algebra for small Hilbert spaces.

State vectors, exactly hermitian observables and their expectation values.
Everything is validated eagerly and immutable afterwards, so values can be
shared freely across threads.  Every expectation value is computed by one
evaluator, ``_hermitian_expectations``, over a stack of operators checked
where they enter: ``ChshScenario`` checks a CHSH scenario's four observables
as one stack, by the same ``_hermitian_parts`` that ``OperatorMatrix`` runs.
Teleportation's receiver states are derived from a checked input in closed form
and checked there, so they are built without a re-check.  All spaces in this
package are tiny (dimension at most 4 for two-qubit work, 3 for qutrit work),
so a dense numpy representation is used throughout.  The checks reduce through
``ufunc.reduce`` (``np.add.reduce`` for ``.sum()``): the ndarray methods reach the
same reduce, bit for bit, through a Python-level wrapper that costs more than the
arithmetic on arrays this small.
"""

from __future__ import annotations

import numpy as np

from .errors import Frozen, InputError, InvariantError
from .tolerances import ARITHMETIC, NORMALIZATION, OPERATOR


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class StateVector(Frozen):
    """Complex amplitude vector of unit length.

    The constructor enforces sum(|amplitude|^2) == 1 within ``NORMALIZATION``.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        arr = _freeze(np.array(amplitudes, dtype=np.complex128)).reshape(-1)  # the base frozen too
        if not np.logical_and.reduce(np.isfinite(arr)):
            raise InputError("state vector amplitudes must be finite")
        self._assign(arr)
        # an amplitude past 2 fails the gate either way; the clamp keeps its square finite
        actual = float(np.add.reduce(np.minimum(np.abs(arr), 2.0) ** 2))
        if abs(actual - 1.0) > NORMALIZATION:
            with np.errstate(over="ignore"):  # the unclamped norm, for the message
                actual = float((np.abs(arr) ** 2).sum())
            raise InputError(f"amplitudes have squared norm {actual:.12g}, expected 1")

    @classmethod
    def _derived(cls, amplitudes: np.ndarray) -> StateVector:
        """State that takes over ``amplitudes``, a unit vector computed from checked inputs."""
        state = object.__new__(cls)
        state._assign(_freeze(amplitudes))
        return state

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def fidelity(self, other: StateVector) -> float:
        """|<self|other>|^2 -- insensitive to global phase; summed in real arithmetic,
        component by component, so no complex loop that numpy picks per CPU sets its bits."""
        if other.dim != self.dim:
            raise InputError(f"dimension mismatch: {self.dim} vs {other.dim}")
        re = im = 0.0
        for x, y in zip(self.amplitudes.tolist(), other.amplitudes.tolist()):
            re += x.real * y.real + x.imag * y.imag
            im += x.real * y.imag - x.imag * y.real
        return re * re + im * im


class OperatorMatrix(Frozen):
    """Matrix A with max |A - A^dagger| <= ``ARITHMETIC``, stored as its exactly hermitian part.

    Stored entries equal their adjoint exactly, so products of them are exactly
    hermitian; an exactly hermitian A is kept bit for bit, so a copy keeps every bit.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InputError(f"operator must be a nonempty square matrix, got shape {arr.shape}")
        self._assign(_freeze(_hermitian_parts(arr[None]))[0])

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def _hermitian_parts(ops: np.ndarray, names=None) -> np.ndarray:
    """The exactly hermitian part of each member A of an (n, d, d) stack, after its checks.

    In order: finite entries, then max |A - A^dagger| <= ``ARITHMETIC``, as |A/2 - A^dagger/2|
    <= ``ARITHMETIC`` / 2, an exact scaling that cannot overflow.  The first member that fails
    raises, prefixed by its entry of ``names`` and a colon when ``names`` is given.  An entry
    that equals its adjoint's entry is kept; any other becomes A/2 + A^dagger/2.  Halving
    rounds a subnormal, so A/2 + A^dagger/2 alone would change such an entry on a rebuild.
    """
    finite = np.isfinite(ops)
    if np.logical_and.reduce(finite, axis=None):
        adjoint = ops.swapaxes(1, 2).conj()
        half, half_adjoint = ops * 0.5, adjoint * 0.5
        gaps = np.abs(half - half_adjoint)
        if np.maximum.reduce(gaps, axis=None, initial=0.0) <= ARITHMETIC / 2.0:
            return np.where(ops == adjoint, ops, half + half_adjoint)
        i = int(np.argmax(gaps.max(axis=(1, 2)) > ARITHMETIC / 2.0))
        residue = 2.0 * float(gaps[i].max())  # a float past the maximum reads inf, unwarned
        defect = f"operator must be hermitian: max |A - A^dagger| = {residue:.3g}"
    else:
        i, defect = int(np.argmin(finite.all(axis=(1, 2)))), "operator entries must be finite"
    raise InputError(defect if names is None else f"{names[i]}: {defect}")


def tensor_op(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product a (x) b with the left factor as the high-order index."""
    return OperatorMatrix(np.kron(a.entries, b.entries))


def _hermitian_expectations(arr: np.ndarray, s: StateVector) -> np.ndarray:
    """<s|A|s> for every A in a finite hermitian stack of shape (..., d, d), checked by its caller.

    The package's one evaluator; it checks only the imaginary residue of each result.
    """
    psi = s.amplitudes
    # psi^dagger (A psi), grouped as np.vdot groups it, so one operator gives the same bits
    values = (psi.conj() @ (arr @ psi)[..., None])[..., 0]
    residue = float(np.maximum.reduce(np.abs(values.imag), axis=None, initial=0.0))
    if residue > OPERATOR:
        raise InvariantError(f"expectation has imaginary residue {residue:.3g}")
    return values.real


def expectation(op: OperatorMatrix, s: StateVector) -> float:
    """<s|op|s> for a hermitian operator, after a check of its dimension."""
    if op.dim != s.dim:
        raise InputError(f"operator dimension {op.dim} does not match state dimension {s.dim}")
    return float(_hermitian_expectations(op.entries, s))
