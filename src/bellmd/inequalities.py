"""CHSH and KCBS inequality evaluation with brute-force classical bounds.

The CHSH statistic is symmetrized over the eight sign/relabeling
placements of the minus term, so it does not depend on which correlator
combination convention a table was produced under.  The KCBS statistic is
the five-cycle correlator sum on a qutrit; its noncontextual bound (-3)
comes from exhaustive enumeration of +/-1 assignments.  Each quantum
evaluator builds one operator stack and calls ``hilbert.expectation`` on it once.
The KCBS neighbour gate takes no matrix product.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import Frozen, InputError
from .hilbert import StateVector, _hermitian_parts, expectation, tensor_op
from .lhv import CorrelationTable
from .tolerances import ARITHMETIC, OPERATOR

KCBS_QUANTUM_OPTIMAL = -3.9442719099991588  # 5 - 4 sqrt(5), correctly rounded

# the neighbour i + 1 mod 5 of each member i of a five-cycle
_NEXT = np.array([1, 2, 3, 4, 0])
_OBSERVABLE_NAMES = [f"{party} observable {k}" for party in ("alice", "bob") for k in (0, 1)]
_EYE = np.eye(2)
_EYE3 = np.eye(3)


class ChshScenario(Frozen):
    """Two +/-1 observables per party and a shared two-qubit state.

    ``observables`` is one read-only complex (4, 2, 2) array, alice 0, alice 1,
    bob 0, bob 1, built from any four matrices, each stored as its exactly
    hermitian part by ``_hermitian_parts``.  The checks, in order, each over all four
    observables and naming or reporting the first that fails: shape (square,
    then a qubit's), ``_hermitian_parts``'s finite entries and max |A - A^dagger|
    <= ``ARITHMETIC``, max |A^2 - 1| <= ``ARITHMETIC`` / 4; then the state's dimension.
    """

    __slots__ = ("observables", "state")

    def __init__(self, observables, state: StateVector) -> None:
        ops = observables
        stacked = isinstance(ops, np.ndarray) and ops.shape == (4, 2, 2)
        if not stacked and len(ops) != 4:
            raise InputError("each party needs exactly two observables")
        for name, op in zip(_OBSERVABLE_NAMES, () if stacked else ops):
            shape = np.shape(op)
            if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
                raise InputError(f"operator must be a nonempty square matrix, got shape {shape}")
            if shape != (2, 2):
                raise InputError(f"{name} must act on a qubit")
        ops = _hermitian_parts(np.ascontiguousarray(ops, dtype=np.complex128), _OBSERVABLE_NAMES)
        # max |A^2 - 1| <= t keeps A's eigenvalues within t of +/-1, so (1 +/- A)/2 has
        # eigenvalues in [-t/2, 1 + t/2] and chsh_quantum's clamped, renormalized tables
        # and their correlators stay within a few t of an exact +/-1 measurement's. Nothing
        # downstream rejects a larger t; t = ``ARITHMETIC`` / 4 keeps that gap at rounding
        square_tol = ARITHMETIC / 4.0
        # a hermitian A with a real or imaginary part past 2 has (A^2)_ii >= 4, so it fails
        # with those parts clamped at 2 too, and the clamped products stay finite
        clamped = np.minimum(np.maximum(ops.view(float), -2.0), 2.0).view(np.complex128)
        if np.abs(clamped @ clamped - _EYE).max() > square_tol:
            with np.errstate(over="ignore", invalid="ignore"):  # the unclamped, for the message
                gaps = np.abs(ops @ ops - _EYE).max(axis=(1, 2))
            i = int(np.argmax(~(gaps <= square_tol)))
            raise InputError(f"{_OBSERVABLE_NAMES[i]} must square to the identity: "
                             f"max |A^2 - 1| = {gaps[i]:.3g} > {square_tol:.3g}")
        if state.dim != 4:
            raise InputError("shared state must live in the 4-dimensional two-qubit space")
        ops.setflags(write=False)
        self._assign(ops, state)


def chsh_value(t: CorrelationTable) -> float:
    """Symmetrized CHSH statistic: max_i |E_sum - 2 E_i| over the four correlators.

    In Python floats, E_sum = ((E00 + E01) + E10) + E11, the order numpy sums four entries in."""
    e = t.correlators
    if e.shape != (2, 2):
        raise InputError(f"CHSH needs a 2x2 correlation table, got {t.shape}")
    (e00, e01), (e10, e11) = e.tolist()
    total = e00 + e01 + e10 + e11
    return max(abs(total - 2.0 * e00), abs(total - 2.0 * e01), abs(total - 2.0 * e10),
               abs(total - 2.0 * e11))


def chsh_quantum(s: ChshScenario) -> CorrelationTable:
    """Quantum correlation table of a scenario, correlators implied by the projector tables.

    The joint table holds <state| P_i^x (x) Q_j^y |state> for the outcome
    projectors (1 +/- A)/2, clamped at 0 and renormalized per setting pair.
    The 16 products come from one ``tensor_op`` of the projector stacks; products
    of exactly hermitian factors are exactly hermitian, so they are not re-scanned.
    """
    ops = s.observables
    # [observable, outcome] -> (1 + A)/2 for outcome 0, (1 - A)/2 for outcome 1
    projs = np.array([_EYE + ops, _EYE - ops]).swapaxes(0, 1) / 2.0
    # axes (a, b, x, y) -> P_a^x (x) Q_b^y, alice's observable a and bob's b
    joint = expectation(tensor_op(projs[:2, None, :, None], projs[None, 2:, None, :]), s.state)
    joint = np.maximum(joint, 0.0)
    joint /= joint.sum(axis=(2, 3), keepdims=True)
    return CorrelationTable._derived(joint)


def lhv_chsh_max() -> float:
    """Brute-force CHSH maximum over all 16 deterministic setting-independent strategies."""
    best = 0.0
    for fa in itertools.product((1.0, -1.0), repeat=2):
        for fb in itertools.product((1.0, -1.0), repeat=2):
            table = CorrelationTable.from_correlators(np.outer(fa, fb))
            best = max(best, chsh_value(table))
    return best


def bell_optimal_scenario() -> ChshScenario:
    """Canonical maximal-violation configuration: S = 2 sqrt(2) on (|00>+|11>)/sqrt(2)."""
    state = StateVector(np.array([1, 0, 0, 1], dtype=np.complex128) / math.sqrt(2.0))
    # Z, X, then cos(t) Z + sin(t) X at t = +/-pi/4; ChshScenario is their one check
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    observables = [[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[c, s], [s, -c]], [[c, -s], [-s, -c]]]
    return ChshScenario(np.array(observables, dtype=np.complex128), state)


class KcbsScenario(Frozen):
    """Five unit vectors in real 3-space, cyclically orthogonal, plus a qutrit state."""

    __slots__ = ("vectors", "state")

    def __init__(self, vectors, state: StateVector) -> None:
        vecs = np.array(vectors, dtype=float)
        if vecs.shape != (5, 3):
            raise InputError(f"need five 3-vectors, got shape {vecs.shape}")
        if not np.isfinite(vecs).all():
            raise InputError("vectors must be finite")
        # an entry past 2 fails either way, and clamped its square is finite
        lengths = np.sqrt((np.minimum(np.abs(vecs), 2.0) ** 2).sum(axis=1))
        if (np.abs(lengths - 1.0) > OPERATOR).any():
            raise InputError("all five vectors must be unit length")
        # A_i A_{i+1} has hermiticity residue up to 4 |v_i . v_{i+1}|; an eighth of
        # ``ARITHMETIC`` keeps it at half that tolerance, a factor 2 left for rounding,
        # so kcbs_value evaluates the products without a hermiticity check
        ortho_tol = ARITHMETIC / 8.0
        dots = np.abs((vecs * vecs[_NEXT]).sum(axis=1))  # |v_i . v_{i+1}|, i = 0..4
        i = int(np.argmax(dots > ortho_tol))  # the first pair that fails, if any
        if dots[i] > ortho_tol:
            raise InputError(
                f"vectors {i} and {(i + 1) % 5} must be orthogonal: "
                f"|v_{i} . v_{(i + 1) % 5}| = {dots[i]:.3g} > {ortho_tol:.3g}"
            )
        if state.dim != 3:
            raise InputError("state must be a qutrit")
        vecs.setflags(write=False)
        self._assign(vecs, state)


def kcbs_pentagram() -> KcbsScenario:
    """Closed-form five-cycle configuration with the apex state along z.

    The five directions share the polar angle whose cosine squared is
    cos(pi/5) / (1 + cos(pi/5)); successive azimuths differ by 4 pi / 5,
    which makes neighbors exactly orthogonal.  With the apex state (0,0,1)
    the correlator sum reaches the quantum optimum 5 - 4 sqrt(5).  The vectors stay
    as the closed form rounds them: each has length 1 in float and neighbour dots of
    at most 1.7e-16, inside ``KcbsScenario``'s gates, and no BLAS kernel touches
    them, so their bits do not depend on the CPU.
    """
    cos_sq = math.cos(math.pi / 5.0) / (1.0 + math.cos(math.pi / 5.0))
    cos_t = math.sqrt(cos_sq)
    sin_t = math.sqrt(1.0 - cos_sq)
    vecs = np.array(
        [
            [sin_t * math.cos(4.0 * math.pi * k / 5.0),
             sin_t * math.sin(4.0 * math.pi * k / 5.0),
             cos_t]
            for k in range(5)
        ]
    )
    return KcbsScenario(vecs, StateVector(np.array([0, 0, 1], dtype=np.complex128)))


def kcbs_value(s: KcbsScenario) -> float:
    """Five-cycle correlator sum: sum_i <state| A_i A_{i+1} |state>."""
    v = s.vectors
    observables = 2.0 * (v[:, :, None] * v[:, None, :]) - _EYE3
    # hermitian within ``ARITHMETIC`` / 2 by KcbsScenario's orthogonality bound
    products = observables @ observables[_NEXT]
    return float(expectation(products, s.state).sum())


def kcbs_classical_min() -> float:
    """Minimum of sum_i x_i x_{i+1} over all 2^5 fixed +/-1 assignments (equals -3)."""
    best = math.inf
    for signs in itertools.product((1, -1), repeat=5):
        value = sum(signs[i] * signs[(i + 1) % 5] for i in range(5))
        best = min(best, value)
    return float(best)
