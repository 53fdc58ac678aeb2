"""Single-qubit teleportation over a shared maximally entangled pair.

The sender holds an unknown qubit a|0> + b|1> and half of the pair
(|00> + |11>)/sqrt(2).  A four-outcome entangled-basis measurement on the
sender's two qubits collapses the receiver's qubit into one of four images
of the input, each with probability exactly 1/4; the outcome index selects
the Pauli correction that restores the input state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, InvariantError, Value
from .hilbert import StateVector, _freeze
from .tolerances import NORMALIZATION

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# Entangled-basis order: (|00>+|11>), (|00>-|11>), (|01>+|10>), (|01>-|10>), all /sqrt(2)
_BELL_VECTORS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=np.complex128
) * _SQRT2_INV
_BELL_BRAS = _BELL_VECTORS.conj()

CORRECTION_LABELS = ("identity", "sigma_z", "sigma_x", "sigma_z.sigma_x")

# the correction each outcome selects, in outcome order: 1, Z, X and Z X
_CORRECTIONS = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]],
    dtype=np.complex128,
)


class TeleportInput(Value):
    """Amplitudes of the qubit to send, checked once as the sent ``StateVector``."""

    __slots__ = ("a", "b", "_state")
    _fields = ("a", "b")

    def __init__(self, a: complex, b: complex) -> None:
        a, b = complex(a), complex(b)
        self._assign(a, b, StateVector([a, b]))

    def state(self) -> StateVector:
        return self._state


class TeleportTranscript(Value):
    """One protocol run: measured branch, applied correction, receiver state, fidelity."""

    __slots__ = ("outcome_index", "outcome_probability", "correction_applied", "bob_final",
                 "fidelity")

    def __init__(self, outcome_index: int, outcome_probability: float, correction_applied: str,
                 bob_final: StateVector, fidelity: float) -> None:
        self._assign(outcome_index, outcome_probability, correction_applied, bob_final, fidelity)

    def to_json_dict(self) -> dict:
        return {
            "outcome_index": self.outcome_index,
            "outcome_probability": self.outcome_probability,
            "correction_applied": self.correction_applied,
            "bob_final": [[z.real, z.imag] for z in self.bob_final.amplitudes],
            "fidelity": self.fidelity,
        }


def _branch_stack(sent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (4,) and receiver pre-correction states (4, 2) of the 4 outcomes.

    ``sent`` holds the checked input amplitudes.  All four branches are one
    product of the conjugated entangled basis with the state, laid out as
    (sender's two qubits, receiver's qubit); each row is then normalized.
    """
    grid = (sent[:, None] * _BELL_VECTORS[0]).reshape(4, 2)  # np.kron's products, in its order
    raw = _BELL_BRAS @ grid
    probs = (np.abs(raw) ** 2).sum(axis=1)
    return probs, _freeze(raw / np.sqrt(probs)[:, None])


def branch_decomposition(inp: TeleportInput) -> list[tuple[float, StateVector]]:
    """Exact (probability, receiver pre-correction state) for each of the 4 outcomes.

    Probabilities are branch norms of the combined three-qubit state and
    equal 1/4 for every normalized input.  The states are rows of one
    stack computed from the checked input, so they are not checked again.
    """
    probs, pres = _branch_stack(inp.state().amplitudes)
    return [(prob, StateVector._derived(pre)) for prob, pre in zip(probs.tolist(), pres)]


def branch_transcripts(inp: TeleportInput) -> tuple[TeleportTranscript, ...]:
    """The transcript of each of the 4 branches, list index = outcome index.

    The input is checked once, as the sent state.  The four corrected
    receiver states are one (4, 2) stack, checked by one norm reduction;
    each is then compared with the sent state.
    """
    sent = inp.state()
    probs, pres = _branch_stack(sent.amplitudes)
    finals = _freeze(_CORRECTIONS @ pres[:, :, None])[:, :, 0]
    sq_norms = (np.abs(finals) ** 2).sum(axis=1)
    if not (np.abs(sq_norms - 1.0) <= NORMALIZATION).all():
        raise InvariantError(f"receiver states have squared norms {sq_norms}, expected 1")
    transcripts = []
    for k, (prob, final) in enumerate(zip(probs.tolist(), finals)):
        bob_final = StateVector._derived(final)
        transcripts.append(TeleportTranscript(
            outcome_index=k,
            outcome_probability=prob,
            correction_applied=CORRECTION_LABELS[k],
            bob_final=bob_final,
            # np.vdot per branch: one matmul over the stack rounds some overlaps differently
            fidelity=min(bob_final.fidelity(sent), 1.0),
        ))
    return tuple(transcripts)


def run_teleportation(inp: TeleportInput, forced_outcome: int) -> TeleportTranscript:
    """Execute one teleportation round in the branch ``forced_outcome`` selects."""
    if forced_outcome not in (0, 1, 2, 3):
        raise InputError(f"forced outcome {forced_outcome} must be in 0..3")
    return branch_transcripts(inp)[int(forced_outcome)]


# the draw whose outcomes ``outcome_counts`` counts; a data file records it, not the outcomes
OUTCOME_DRAW = ("numpy.random.default_rng(seed).choice(4, size=trials, p=p / p.sum()), "
                "p[k] = transcripts[k].outcome_probability")

# uniforms drawn at a time: memory stays fixed at any trial count, and chunks of one
# Generator give the same stream as one call
_CHUNK = 1 << 18


def outcome_counts(probabilities, trials: int, seed: int = 0) -> list[int]:
    """How many of ``trials`` rounds drawn from 4 probabilities give each outcome.

    The probabilities are normalized by their sum.  The rounds are those of
    ``default_rng(seed).choice(4, size=trials, p=p / p.sum())``, draw for
    draw: one uniform per trial, counted against the normalized cumulative
    sums, which is ``choice``'s own inverse-CDF step without its search.
    The uniforms are drawn in chunks of a fixed size, so memory does not
    grow with ``trials``; time does.
    """
    if trials <= 0:
        raise InputError("trials must be positive")
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (4,):
        raise InputError(f"need 4 outcome probabilities, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InputError("outcome probabilities must be finite")
    if np.any(p < 0):
        raise InputError("outcome probabilities must be nonnegative")
    with np.errstate(over="ignore"):
        total = p.sum()
    if not total > 0:
        raise InputError("outcome probabilities must have a positive sum")
    p = p / total
    # the sum check choice makes; it fails when the raw sum overflowed to inf
    if not abs(p.sum() - 1.0) <= math.sqrt(np.finfo(float).eps):
        raise InputError("outcome probabilities do not sum to 1 after normalizing")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    buffer = np.empty(min(_CHUNK, trials))  # each chunk is drawn into it, in place
    # at_least[k]: rounds with outcome >= k; u < 1 = cdf[3], so outcome >= k + 1 is u >= cdf[k]
    at_least = [trials, 0, 0, 0, 0]
    for start in range(0, trials, _CHUNK):
        u = rng.random(out=buffer[:trials - start])
        for k in range(3):
            at_least[k + 1] += int(np.count_nonzero(u >= cdf[k]))
    return [n - m for n, m in zip(at_least, at_least[1:])]


def verify_no_setting_choice() -> dict:
    """Machine-readable inventory of the measurements the teleportation protocol offers.

    The sender makes one fixed entangled-basis measurement (the one whose
    four branches ``branch_transcripts`` builds), so no party chooses a
    setting, unlike the two observables per party of a CHSH scenario.
    """
    return {
        "protocol": "teleportation",
        "measurement_count": 1,
        "measurements_per_party": {"alice": 1},
        "setting_choice_required": False,
    }
