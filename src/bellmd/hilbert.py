"""Dense complex linear algebra for small Hilbert spaces.

State vectors, exactly hermitian observables, tensor products and batched
expectation values.  Everything is validated eagerly and immutable
afterwards, so values can be shared freely across threads.  A CHSH
scenario's four observables are not built as ``OperatorMatrix`` values:
``ChshScenario`` checks them as one stack, by the same gates.  All spaces in
this package are tiny (dimension at most 8 for two-qubit-plus-ancilla work,
3 for qutrit work), so a dense numpy representation is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError
from .tolerances import DEFAULT_TOLERANCES

MAX_TENSOR_DIM = 64


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128).reshape(-1)
    if arr.size == 0:
        raise InputError("state vector needs at least one amplitude")
    if not np.all(np.isfinite(arr)):
        raise InputError("state vector amplitudes must be finite")
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector of unit length.

    The constructor enforces sum(|amplitude|^2) == 1 within the
    normalization tolerance.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_vector(self.amplitudes)
        object.__setattr__(self, "amplitudes", arr)
        actual = float(np.sum(np.abs(arr) ** 2))
        if abs(actual - 1.0) > DEFAULT_TOLERANCES.normalization:
            raise InputError(f"amplitudes have squared norm {actual:.12g}, expected 1")

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def overlap(self, other: StateVector) -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise InputError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: StateVector) -> float:
        """|<self|other>|^2 -- insensitive to global phase."""
        return float(abs(self.overlap(other)) ** 2)


def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise InputError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Matrix A with max |A - A^dagger| <= `arithmetic`, stored as A/2 + A^dagger/2.

    Stored entries equal their adjoint exactly, so products of them are exactly
    hermitian; an exactly hermitian A with normal entries is kept bit for bit.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InputError(f"operator must be a nonempty square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("operator entries must be finite")
        adjoint = arr.conj().T
        residue = float(np.max(np.abs(arr - adjoint)))
        if residue > DEFAULT_TOLERANCES.arithmetic:
            raise InputError(f"operator must be hermitian: max |A - A^dagger| = {residue:.3g}")
        object.__setattr__(self, "entries", _freeze(arr * 0.5 + adjoint * 0.5))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def identity(dim: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(dim, dtype=np.complex128))


def pauli_x() -> OperatorMatrix:
    return OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=np.complex128))


def pauli_z() -> OperatorMatrix:
    return OperatorMatrix(np.array([[1, 0], [0, -1]], dtype=np.complex128))


def rotated_zx(angle: float) -> OperatorMatrix:
    """cos(angle) sigma_z + sin(angle) sigma_x: a +/-1-valued spin observable in the zx plane."""
    c, s = math.cos(angle), math.sin(angle)
    return OperatorMatrix(np.array([[c, s], [s, -c]], dtype=np.complex128))


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Kronecker product u (x) v with the left factor as the high-order index."""
    out_dim = u.dim * v.dim
    if out_dim > MAX_TENSOR_DIM:
        raise InputError(f"tensor product dimension {out_dim} exceeds the max {MAX_TENSOR_DIM}")
    return StateVector(np.kron(u.amplitudes, v.amplitudes))


def tensor_op(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(np.kron(a.entries, b.entries))


def expectations(ops, s: StateVector) -> np.ndarray:
    """<s|A|s> for every hermitian operator A in a stack of shape (..., d, d).

    The whole stack is checked at once: matching dimension, finite entries,
    hermiticity within the arithmetic tolerance, and a real result within
    the operator tolerance.
    """
    arr = np.asarray(ops, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise InputError(f"operators must be square matrices, got shape {arr.shape}")
    if arr.shape[-1] != s.dim:
        raise InputError(
            f"operator dimension {arr.shape[-1]} does not match state dimension {s.dim}"
        )
    if not np.all(np.isfinite(arr)):
        raise InputError("operator entries must be finite")
    residue = float(np.max(np.abs(arr - np.swapaxes(arr, -1, -2).conj()), initial=0.0))
    if residue > DEFAULT_TOLERANCES.arithmetic:
        raise InputError("expectation requires a hermitian operator")
    return _hermitian_expectations(arr, s)


def _hermitian_expectations(arr: np.ndarray, s: StateVector) -> np.ndarray:
    """``expectations`` of a finite hermitian stack; checks only the imaginary residue."""
    psi = s.amplitudes
    # psi^dagger (A psi), grouped as np.vdot groups it, so one operator gives the same bits
    values = (psi.conj() @ (arr @ psi)[..., None])[..., 0]
    residue = float(np.max(np.abs(values.imag), initial=0.0))
    if residue > DEFAULT_TOLERANCES.operator:
        raise InvariantError(f"expectation has imaginary residue {residue:.3g}")
    return values.real


def expectation(op: OperatorMatrix, s: StateVector) -> float:
    """<s|op|s> for a hermitian operator."""
    return float(expectations(op.entries, s))
