import contextlib
import io
import json
import math

import numpy as np
import pytest

import oracles
from bellmd import cli, teleport
from bellmd.errors import InputError, InvariantError
from bellmd.hilbert import StateVector
from bellmd.teleport import (
    CORRECTION_LABELS,
    branch_decomposition,
    outcome_counts,
    run_teleportation,
    verify_no_setting_choice,
)

SQRT2_INV = 1.0 / math.sqrt(2.0)
# outcome k's correction, CORRECTION_LABELS[k], as a matrix
CORRECTIONS = [np.eye(2, dtype=complex), oracles.PAULI_Z, oracles.PAULI_X,
               oracles.PAULI_Z @ oracles.PAULI_X]


def random_input(rng) -> StateVector:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return StateVector([complex(v[0], v[1]), complex(v[2], v[3])])


def teleport_file(sent: StateVector, out) -> dict:
    """The document ``bellmd teleport --out`` writes for ``sent``, given component by component."""
    (a, b), flags = sent.amplitudes.tolist(), ("--a-re", "--a-im", "--b-re", "--b-im")
    argv = [f"{flag}={x!r}" for flag, x in zip(flags, (a.real, a.imag, b.real, b.imag))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["teleport", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_input_normalization_enforced():
    with pytest.raises(InputError):
        StateVector([1.0, 1.0])
    StateVector([0.6, 0.8j])


def test_basis_input_fixed_by_every_branch():
    sent = StateVector([1.0, 0.0])
    _, bob_final, fidelity = run_teleportation(sent)
    assert abs(fidelity - 1.0) <= 1e-12
    assert abs(abs(bob_final.amplitudes[0]) - 1.0) <= 1e-12
    for correction, (_, pre) in zip(CORRECTIONS, branch_decomposition(sent)):
        assert np.allclose(correction @ pre.amplitudes, bob_final.amplitudes, atol=1e-12)


def test_swap_branch_uses_bit_flip_correction():
    # outcome 2 is the (|01>+|10>)/sqrt(2) branch; its correction is the bit flip
    sent = StateVector([0.6, 0.8])
    _, bob_final, _ = run_teleportation(sent)
    _, pre = branch_decomposition(sent)[2]
    assert CORRECTION_LABELS[2] == "sigma_x"
    assert np.allclose(pre.amplitudes, [0.8, 0.6], atol=1e-12)
    assert np.allclose(oracles.PAULI_X @ pre.amplitudes, bob_final.amplitudes, atol=1e-12)
    assert np.allclose(bob_final.amplitudes, [0.6, 0.8], atol=1e-12)


def test_branch_probabilities_are_exactly_uniform(rng):
    for _ in range(50):
        branches = branch_decomposition(random_input(rng))
        for prob, _ in branches:
            assert abs(prob - 0.25) <= 1e-12


def test_fidelity_one_across_random_inputs_and_outcomes(rng):
    # every outcome leaves the one corrected state, so its fidelity is every outcome's
    for _ in range(250):
        _, _, fidelity = run_teleportation(random_input(rng))
        assert abs(fidelity - 1.0) <= 1e-12


def test_correction_is_the_unique_pauli_per_branch(rng):
    # each branch image is the receiver's part of the three-qubit state along one vector
    # of the entangled basis; exhaustive search over the four-label Pauli set: exactly
    # one correction restores each image (up to phase) for a generic input
    sent = random_input(rng)
    target = sent.amplitudes
    total = np.kron(target, oracles.ENTANGLED_BASIS[0]).reshape(4, 2)
    branches = branch_decomposition(sent)
    for outcome, (vector, (_, pre)) in enumerate(zip(oracles.ENTANGLED_BASIS, branches)):
        image = vector.conj() @ total
        assert np.max(np.abs(pre.amplitudes - image / np.linalg.norm(image))) <= 1e-15
        matches = [
            k for k, p in enumerate(CORRECTIONS)
            if abs(np.vdot(target, p @ pre.amplitudes)) ** 2 >= 1.0 - 1e-10
        ]
        assert matches == [outcome]


def test_the_branches_are_sign_flips_and_swaps_of_one_state(rng):
    # one probability for every outcome, which the recorded draw normalizes to exactly 1/4; each
    # pre-correction state is (u, v), (u, -v), (v, u) or (-v, u) of the corrected (u, v)
    for sent in [random_input(rng) for _ in range(50)] + [StateVector([0.6, 0.8])]:
        p, bob_final, _ = run_teleportation(sent)
        u, v = bob_final.amplitudes.tolist()
        images = [(u, v), (u, -v), (v, u), (-v, u)]
        branches = branch_decomposition(sent)
        for (prob, pre), image, correction in zip(branches, images, CORRECTIONS):
            assert prob == p
            assert pre.amplitudes.tobytes() == np.array(image).tobytes()
            assert (correction @ pre.amplitudes).tobytes() == bob_final.amplitudes.tobytes()
        p = np.array([prob for prob, _ in branches])
        assert (p / p.sum()).tolist() == [0.25] * 4


def test_a_unit_input_arrives_bit_for_bit():
    # squared norm exactly 1: every component is divided by 1.0, signed zeros included
    sent = StateVector([complex(-1.0, -0.0), complex(0.0, -0.0)])
    p, bob_final, fidelity = run_teleportation(sent)
    assert (p, fidelity) == (0.25, 1.0)
    assert bob_final.amplitudes.tobytes() == sent.amplitudes.tobytes()


def test_sampled_outcome_frequencies(rng):
    counts = outcome_counts(trials=100_000, seed=7)
    assert sum(counts) == 100_000
    freqs = np.array(counts) / 100_000
    assert np.all(np.abs(freqs - 0.25) <= 0.01)


def test_sampling_is_seed_deterministic():
    counts = outcome_counts(1000, seed=5)
    assert counts == outcome_counts(1000, seed=5)
    assert counts != outcome_counts(1000, seed=6)


def _reference_counts(p, trials: int, seed: int) -> list[int]:
    return np.bincount(oracles.sample_outcomes_reference(p, trials, seed), minlength=4).tolist()


def _teleport_probabilities(sent: StateVector) -> list[float]:
    """The four outcome probabilities a teleport file records: the one p, once per outcome."""
    return [run_teleportation(sent)[0]] * 4


def _near_unit_input(rng) -> StateVector:
    """A random input whose squared norm is off 1 by up to 1e-10, within the input check."""
    v = rng.normal(size=4)
    v *= (1.0 + rng.uniform(-1e-10, 1e-10)) / np.linalg.norm(v)
    return StateVector([complex(v[0], v[1]), complex(v[2], v[3])])


def test_four_equal_probabilities_normalize_to_exact_quarters(rng):
    # the premise of counting against k/4: ((p + p) + p) + p rounds to 4p for any positive
    # float p, so p / p.sum() is exactly 1/4; checked across exponents and near 1/4
    n = 100_000
    wide = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1000, 1000, n))
    p = np.concatenate([wide, 0.25 * (1.0 + rng.uniform(-1e-9, 1e-9, n))])
    assert np.array_equal(((p + p) + p) + p, 4.0 * p)
    for q in p[::1000]:
        assert (np.full(4, q) / np.full(4, q).sum()).tolist() == [0.25] * 4


def test_sampler_matches_generator_choice(rng):
    # the counts must be those of numpy's weighted choice at the probabilities a teleport file
    # records; a numpy release that changes choice's algorithm fails here
    cases = [[0.25] * 4, _teleport_probabilities(StateVector([0.6, 0.8]))]
    cases += [_teleport_probabilities(random_input(rng)) for _ in range(50)]
    cases += [_teleport_probabilities(_near_unit_input(rng)) for _ in range(50)]
    cases += [[0.25] * 4] * (1000 - len(cases))
    for seed, p in enumerate(cases):
        trials = int(rng.integers(1, 2000))
        got = outcome_counts(trials, seed)
        assert all(type(c) is int for c in got)
        assert got == _reference_counts(p, trials, seed), p


@pytest.mark.parametrize("trials", [2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5])
def test_counts_match_choice_across_chunk_boundaries(trials):
    # the uniforms come in chunks of 2**18; chunked draws must continue one stream
    cases = ([0.25] * 4, _teleport_probabilities(StateVector([0.6, 0.8])),
             _teleport_probabilities(_near_unit_input(np.random.default_rng(trials))))
    for seed, p in enumerate(cases):
        assert outcome_counts(trials, seed) == _reference_counts(p, trials, seed), p


def test_sampler_needs_a_positive_trial_count():
    with pytest.raises(InputError, match="^trials must be positive$"):
        outcome_counts(0)


# numpy raised its own TypeError for the first two and ValueError for the seed of -1
@pytest.mark.parametrize("args,message", [
    ((5.0,), "trials must be an integer"), ((True,), "trials must be an integer"),
    ((3, -1), "seed must be nonnegative"), ((3, 1.5), "seed must be an integer"),
    ((3, False), "seed must be an integer"), ((3, "7"), "seed must be an integer"),
])
def test_sampler_rejects_a_trial_count_or_seed_that_is_no_count(args, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        outcome_counts(*args)
    assert outcome_counts(np.int64(3), np.uint32(0)) == outcome_counts(3, 0)


class _FixedUniforms:
    """A generator whose uniforms are given, drawn in place as ``Generator.random(out=...)``."""

    def __init__(self, values):
        self.values = values

    def random(self, out):
        out[:] = self.values[:out.size]
        return out


def test_the_thresholds_are_the_cumulative_sums_over_their_last(monkeypatch):
    # choice's cumulative sums over their last are exactly 1/4, 1/2 and 3/4: a uniform at
    # k/4 counts as outcome k and the double just below it as outcome k - 1, so these eight
    # uniforms give each outcome twice
    uniforms = np.array([0.0, np.nextafter(0.25, 0), 0.25, np.nextafter(0.5, 0), 0.5,
                         np.nextafter(0.75, 0), 0.75, np.nextafter(1.0, 0)])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedUniforms(uniforms))
    assert outcome_counts(8) == [2, 2, 2, 2]


def test_branch_transcripts_match_each_branch(rng, tmp_path):
    # the --out file's transcripts, one per outcome in order, against each branch
    sent = random_input(rng)
    transcripts = teleport_file(sent, tmp_path / "t.json")["transcripts"]
    assert [t["outcome_index"] for t in transcripts] == [0, 1, 2, 3]
    p, bob_final, fidelity = run_teleportation(sent)
    for k, (t, (prob, pre)) in enumerate(zip(transcripts, branch_decomposition(sent))):
        assert t["outcome_probability"] == prob == p
        assert t["correction_applied"] == CORRECTION_LABELS[k]
        assert t["bob_final"] == [[z.real, z.imag] for z in bob_final.amplitudes.tolist()]
        assert t["fidelity"] == fidelity
        assert np.allclose(CORRECTIONS[k] @ pre.amplitudes, bob_final.amplitudes, atol=1e-15)


def test_the_receiver_stack_is_checked(monkeypatch):
    # a closed form that stretches the receiver state breaks its unit norm
    closed_form = teleport._branches

    def stretched(sent):
        p, u, v = closed_form(sent)
        return p, 1.1 * u, 1.1 * v

    monkeypatch.setattr(teleport, "_branches", stretched)
    with pytest.raises(InvariantError, match="^receiver state has squared norm 1.21, expected 1$"):
        run_teleportation(StateVector([0.6, 0.8]))


def test_forced_outcome_validated(capsys):
    # the transcripts are indexed by outcome; --force-outcome takes only an index, 0..3
    assert cli.main(["teleport", "--force-outcome", "4"]) == 2
    assert "--force-outcome: invalid choice: 4" in capsys.readouterr().err


def test_transcript_serialization_shape(tmp_path):
    doc = teleport_file(StateVector([0.6, 0.8]), tmp_path / "t.json")["transcripts"][1]
    assert list(doc) == [
        "outcome_index", "outcome_probability", "correction_applied",
        "bob_final", "fidelity",
    ]
    assert doc["correction_applied"] in CORRECTION_LABELS
    assert len(doc["bob_final"]) == 2 and len(doc["bob_final"][0]) == 2


def test_protocol_exposes_single_measurement():
    report = verify_no_setting_choice()
    assert list(report) == [
        "protocol", "measurement_count", "measurements_per_party", "setting_choice_required",
    ]
    assert report["protocol"] == "teleportation"
    assert report["measurement_count"] == 1
    assert report["measurements_per_party"] == {"alice": 1}
    assert report["setting_choice_required"] is False
    report["measurements_per_party"]["bob"] = 2
    assert verify_no_setting_choice()["measurements_per_party"] == {"alice": 1}  # a fresh copy


def test_entangled_pair_is_a_valid_state():
    basis = oracles.ENTANGLED_BASIS
    pair = StateVector(basis[0])
    assert np.allclose(pair.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-15)
    # the four measurement outcomes form an orthonormal basis
    assert np.allclose(basis.conj() @ basis.T, np.eye(4), atol=1e-15)


def _seeded_inputs() -> list[StateVector]:
    rng = np.random.default_rng(2024)
    return [StateVector([0.6, 0.8])] + [random_input(rng) for _ in range(5)]


@pytest.mark.parametrize("inp", _seeded_inputs())
def test_branch_transcripts_match_a_direct_kron_reference(inp, tmp_path):
    # each transcript of the --out file against the kron reference of its branch
    reference = oracles.teleport_branches_reference(*inp.amplitudes.tolist())
    transcripts = teleport_file(inp, tmp_path / "t.json")["transcripts"]
    assert len(transcripts) == len(reference) == 4
    for k, (doc, (prob, final)) in enumerate(zip(transcripts, reference)):
        assert (doc["outcome_index"], doc["correction_applied"]) == (k, CORRECTION_LABELS[k])
        assert abs(doc["outcome_probability"] - prob) <= 1e-15
        assert np.max(np.abs(np.array(doc["bob_final"]) @ [1, 1j] - final)) <= 1e-15
        assert abs(doc["fidelity"] - 1.0) <= 1e-12
