"""Single-qubit teleportation over a shared maximally entangled pair.

The sender holds an unknown qubit a|0> + b|1> and half of the pair
(|00> + |11>)/sqrt(2).  A four-outcome entangled-basis measurement on the
sender's two qubits leaves the receiver's qubit with (a, b), (a, -b), (b, a)
or (-b, a), halved, each with probability p = (|a|^2 + |b|^2)/4, which is 1/4
for a normalized input (Bennett et al., PRL 70, 1895, 1993).  The outcome
index selects the Pauli correction, 1, Z, X or Z X, that undoes its flip.
The branches are computed in that closed form, in real arithmetic on each
amplitude component, so no matrix product sets their bits.  After its correction
every branch leaves the receiver with the same state, so ``run_teleportation`` returns
that one state with the probability and fidelity all four outcomes share.  The four
probabilities are one float, so each outcome is drawn with probability exactly 1/4.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, InvariantError
from .hilbert import StateVector
from .tolerances import NORMALIZATION

CORRECTION_LABELS = ("identity", "sigma_z", "sigma_x", "sigma_z.sigma_x")


def _branches(sent: StateVector) -> tuple[float, complex, complex]:
    """p, shared by the 4 outcomes, and the corrected receiver state (u, v) = (a, b)/(2 sqrt(p)).

    ``sent`` is the checked input (a, b).  Outcome k's receiver state before its correction
    is (u, v), (u, -v), (v, u) or (-v, u); each correction undoes its flip exactly.  Each
    component is divided on its own: complex / float is a full complex division, which
    can round differently and flip the sign of a zero.
    """
    a, b = sent.amplitudes.tolist()
    # one rounding past the four squares'; 2 sqrt(p) is then sqrt(4p), exactly
    p = math.fsum((a.real * a.real, a.imag * a.imag, b.real * b.real, b.imag * b.imag)) / 4.0
    norm = 2.0 * math.sqrt(p)
    return p, complex(a.real / norm, a.imag / norm), complex(b.real / norm, b.imag / norm)


def branch_decomposition(sent: StateVector) -> list[tuple[float, StateVector]]:
    """(probability, receiver pre-correction state) for each of the 4 outcomes.

    The states are computed from the checked sent state, so they are not checked again.
    """
    p, u, v = _branches(sent)
    return [(p, StateVector._derived(np.array(pre)))
            for pre in ((u, v), (u, -v), (v, u), (-v, u))]


def run_teleportation(sent: StateVector) -> tuple[float, StateVector, float]:
    """(probability, corrected receiver state, fidelity), the same for each of the 4 outcomes.

    ``sent`` was checked when it was built.  The receiver state is checked for unit norm
    and compared with ``sent`` once.
    """
    p, u, v = _branches(sent)
    sq_norm = u.real * u.real + u.imag * u.imag + v.real * v.real + v.imag * v.imag
    if abs(sq_norm - 1.0) > NORMALIZATION:
        raise InvariantError(f"receiver state has squared norm {sq_norm:.12g}, expected 1")
    bob_final = StateVector._derived(np.array([u, v]))
    return p, bob_final, min(bob_final.fidelity(sent), 1.0)


# the draw whose outcomes ``outcome_counts`` counts; a data file records it, not the outcomes
OUTCOME_DRAW = ("numpy.random.default_rng(seed).choice(4, size=trials, p=p / p.sum()), "
                "p[k] = transcripts[k].outcome_probability")

# uniforms drawn at a time, so memory stays fixed; chunks of one Generator continue its stream
_CHUNK = 1 << 18


def outcome_counts(trials: int, seed: int = 0) -> list[int]:
    """How many of ``trials`` rounds of ``OUTCOME_DRAW`` give each outcome, draw for draw.

    Its four probabilities are one float p, and ((p + p) + p) + p rounds to exactly 4p, so
    ``p / p.sum()`` is 1/4 each and ``choice``'s cumulative sums are exactly k/4: a round's
    outcome is the number of thresholds 1/4, 1/2, 3/4 at or below its uniform.  Uniforms are
    drawn in fixed-size chunks, so memory does not grow with ``trials``; time does.
    """
    if trials <= 0:
        raise InputError("trials must be positive")
    rng = np.random.default_rng(seed)
    buffer = np.empty(min(_CHUNK, trials))  # each chunk is drawn into it, in place
    at_least = [trials, 0, 0, 0, 0]  # at_least[k]: rounds with outcome >= k, for u >= k/4
    for start in range(0, trials, _CHUNK):
        u = rng.random(out=buffer[:trials - start])
        for k in range(1, 4):
            at_least[k] += int(np.count_nonzero(u >= k / 4))
    return [n - m for n, m in zip(at_least, at_least[1:])]


def verify_no_setting_choice() -> dict:
    """Machine-readable inventory of the measurements the teleportation protocol offers.

    The sender makes one fixed entangled-basis measurement (the one whose four
    outcomes ``run_teleportation`` corrects to one receiver state), so no party
    chooses a setting, unlike the two observables per party of a CHSH scenario.
    """
    return {
        "protocol": "teleportation",
        "measurement_count": 1,
        "measurements_per_party": {"alice": 1},
        "setting_choice_required": False,
    }
