import math

import numpy as np
import pytest

from bellmd.errors import InputError
from bellmd.hilbert import StateVector
from bellmd.inequalities import bell_optimal_scenario
from bellmd.teleport import (
    CORRECTION_LABELS,
    TeleportInput,
    TeleportationProtocol,
    bell_state,
    branch_decomposition,
    run_teleportation,
    sample_outcome_counts,
    sample_outcomes,
    verify_no_setting_choice,
)

SQRT2_INV = 1.0 / math.sqrt(2.0)


def random_input(rng) -> TeleportInput:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return TeleportInput(complex(v[0], v[1]), complex(v[2], v[3]))


def test_input_normalization_enforced():
    with pytest.raises(InputError):
        TeleportInput(1.0, 1.0)
    TeleportInput(0.6, 0.8j)


def test_basis_input_fixed_by_every_branch():
    inp = TeleportInput(1.0, 0.0)
    for outcome in range(4):
        t = run_teleportation(inp, forced_outcome=outcome)
        assert abs(t.fidelity - 1.0) <= 1e-12
        assert abs(abs(t.bob_final.amplitudes[0]) - 1.0) <= 1e-12


def test_swap_branch_uses_bit_flip_correction():
    # outcome 2 is the (|01>+|10>)/sqrt(2) branch; its correction is the bit flip
    inp = TeleportInput(0.6, 0.8)
    t = run_teleportation(inp, forced_outcome=2)
    assert t.correction_applied == "sigma_x"
    assert np.allclose(t.bob_final.amplitudes, [0.6, 0.8], atol=1e-12)


def test_branch_probabilities_are_exactly_uniform(rng):
    for _ in range(50):
        branches = branch_decomposition(random_input(rng))
        for prob, _ in branches:
            assert abs(prob - 0.25) <= 1e-12


def test_fidelity_one_across_random_inputs_and_outcomes(rng):
    for _ in range(250):
        inp = random_input(rng)
        for outcome in range(4):
            t = run_teleportation(inp, forced_outcome=outcome)
            assert abs(t.fidelity - 1.0) <= 1e-12


def test_correction_is_the_unique_pauli_per_branch(rng):
    # exhaustive search over the four-label Pauli set: exactly one correction
    # restores each branch image (up to phase) for a generic input
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    paulis = [np.eye(2, dtype=complex), z, x, z @ x]
    inp = random_input(rng)
    target = np.array([inp.a, inp.b])
    branches = branch_decomposition(inp)
    for outcome, (_, pre) in enumerate(branches):
        matches = [
            k for k, p in enumerate(paulis)
            if abs(np.vdot(target, p @ pre.amplitudes)) ** 2 >= 1.0 - 1e-10
        ]
        assert matches == [outcome]


def test_sampled_outcome_frequencies(rng):
    counts = sample_outcome_counts(TeleportInput(0.6, 0.8), trials=100_000, seed=7)
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - 0.25) <= 0.01)


def test_sampling_is_seed_deterministic():
    inp = TeleportInput(0.6, 0.8)
    probs = [p for p, _ in branch_decomposition(inp)]
    outcomes = sample_outcomes(probs, 1000, seed=5)
    assert np.array_equal(outcomes, sample_outcomes(probs, 1000, seed=5))
    assert not np.array_equal(outcomes, sample_outcomes(probs, 1000, seed=6))
    counts = sample_outcome_counts(inp, 1000, seed=5)
    assert np.array_equal(counts, np.bincount(outcomes, minlength=4))


def test_forced_outcome_validated():
    with pytest.raises(InputError):
        run_teleportation(TeleportInput(1.0, 0.0), forced_outcome=4)


def test_transcript_serialization_shape():
    t = run_teleportation(TeleportInput(0.6, 0.8), forced_outcome=1)
    doc = t.to_json_dict()
    assert set(doc) == {
        "outcome_index", "outcome_probability", "correction_applied",
        "bob_final", "fidelity",
    }
    assert doc["correction_applied"] in CORRECTION_LABELS
    assert len(doc["bob_final"]) == 2 and len(doc["bob_final"][0]) == 2


def test_protocol_exposes_single_measurement():
    report = verify_no_setting_choice()
    assert report["measurement_count"] == 1
    assert report["setting_choice_required"] is False
    assert verify_no_setting_choice() == report  # pure, idempotent


def test_chsh_scenario_reports_two_per_party():
    report = verify_no_setting_choice(bell_optimal_scenario())
    assert report["measurement_count"] == 2
    assert report["measurements_per_party"] == {"alice": 2, "bob": 2}
    assert report["setting_choice_required"] is True


def test_entangled_pair_is_a_valid_state():
    pair = bell_state(0)
    assert isinstance(pair, StateVector)
    assert np.allclose(pair.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-15)
    protocol = TeleportationProtocol()
    assert len(protocol.measurements) == 1
    assert protocol.measurements[0].outcome_count == 4
