"""Dense complex linear algebra for small Hilbert spaces.

State vectors, Kronecker products and expectation values of operator stacks.
State vectors are validated eagerly and immutable afterwards, so they can be
shared freely across threads.  Operators are plain complex arrays, checked where
they enter: ``ChshScenario`` checks a CHSH scenario's four observables as one
stack, by ``_hermitian_parts``.  ``tensor_op`` forms the Kronecker products of
whole stacks, and one evaluator, ``expectation``, computes every expectation
value over a stack its caller has checked.  All spaces in this package are tiny
(dimension at most 4 for two-qubit work, 3 for qutrit work), so a dense numpy
representation is used throughout.
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
        if not np.isfinite(arr).all():
            raise InputError("state vector amplitudes must be finite")
        self._assign(arr)
        # an amplitude past 2 fails the gate either way; the clamp keeps its square finite
        actual = float((np.minimum(np.abs(arr), 2.0) ** 2).sum())
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


def _hermitian_parts(ops: np.ndarray, names) -> np.ndarray:
    """The exactly hermitian part of each member A of an (n, d, d) stack, after its checks.

    In order: finite entries, then max |A - A^dagger| <= ``ARITHMETIC``, as |A/2 - A^dagger/2|
    <= ``ARITHMETIC`` / 2, an exact scaling that cannot overflow.  The first member that fails
    raises, prefixed by its entry of ``names`` and a colon.  An entry that equals its
    adjoint's entry is kept; any other becomes A/2 + A^dagger/2.  Halving rounds a
    subnormal, so A/2 + A^dagger/2 alone would change such an entry on a rebuild.
    """
    finite = np.isfinite(ops)
    if finite.all():
        adjoint = ops.swapaxes(1, 2).conj()
        half, half_adjoint = ops * 0.5, adjoint * 0.5
        gaps = np.abs(half - half_adjoint)
        if gaps.max(initial=0.0) <= ARITHMETIC / 2.0:
            return np.where(ops == adjoint, ops, half + half_adjoint)
        i = int(np.argmax(gaps.max(axis=(1, 2)) > ARITHMETIC / 2.0))
        residue = 2.0 * float(gaps[i].max())  # a float past the maximum reads inf, unwarned
        defect = f"operator must be hermitian: max |A - A^dagger| = {residue:.3g}"
    else:
        i, defect = int(np.argmin(finite.all(axis=(1, 2)))), "operator entries must be finite"
    raise InputError(f"{names[i]}: {defect}")


def tensor_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B of each pair of broadcast (..., m, m) and (..., n, n) stacks.

    The left factor is the high-order index.  Every entry is one product of an entry of A and
    one of B, formed by one broadcast multiply, which rounds as ``np.kron`` does (einsum may
    fuse multiply-adds).  Products of exactly hermitian factors are exactly hermitian.
    """
    m, n = a.shape[-1], b.shape[-1]
    products = a[..., :, None, :, None] * b[..., None, :, None, :]
    return products.reshape(*products.shape[:-4], m * n, m * n)


def expectation(ops: np.ndarray, s: StateVector) -> np.ndarray:
    """<s|A|s> for every A in a finite hermitian stack of shape (..., d, d), checked by its caller.

    The package's one evaluator; it checks only the imaginary residue of each result.
    """
    psi = s.amplitudes
    # psi^dagger (A psi), grouped as np.vdot groups it, so one operator gives the same bits
    values = (psi.conj() @ (ops @ psi)[..., None])[..., 0]
    residue = float(np.abs(values.imag).max(initial=0.0))
    if residue > OPERATOR:
        raise InvariantError(f"expectation has imaginary residue {residue:.3g}")
    return values.real
