import math

import numpy as np
import pytest

import oracles
from bellmd.errors import InputError, InvariantError
from bellmd.hilbert import (
    OperatorMatrix,
    StateVector,
    _hermitian_expectations,
    expectation,
    tensor_op,
)

SQRT2_INV = 1.0 / math.sqrt(2.0)
ZERO = StateVector([1.0, 0.0])
PAULI_X, PAULI_Z = OperatorMatrix(oracles.PAULI_X), OperatorMatrix(oracles.PAULI_Z)
ENTANGLED_BASIS = oracles.ENTANGLED_BASIS


def random_qubit_pair(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


class TestComplexArithmetic:
    """Field behavior of the amplitude scalar type (built-in complex)."""

    def test_field_axioms_on_random_samples(self, rng):
        for _ in range(200):
            x, y, z = (complex(*rng.normal(size=2)) for _ in range(3))
            assert abs((x + y) - (y + x)) <= 1e-12
            assert abs((x * y) - (y * x)) <= 1e-12
            assert abs((x + y) + z - (x + (y + z))) <= 1e-12
            assert abs((x * y) * z - (x * (y * z))) <= 1e-10
            assert abs(x * (y + z) - (x * y + x * z)) <= 1e-10

    def test_conjugation_and_modulus(self, rng):
        for _ in range(100):
            x = complex(*rng.normal(size=2))
            assert abs(x.conjugate().conjugate() - x) == 0.0
            assert abs(abs(x) ** 2 - (x * x.conjugate()).real) <= 1e-12


class TestStateVector:
    def test_normalization_enforced(self):
        with pytest.raises(InputError):
            StateVector([1.0, 1.0])
        StateVector([SQRT2_INV, SQRT2_INV])  # fine

    def test_the_norm_gate_sits_at_its_tolerance(self):
        # squared norms half and five times NORMALIZATION (1e-9) from 1
        StateVector([math.sqrt(1.0 + 5e-10), 0.0])
        with pytest.raises(InputError, match=r"^amplitudes have squared norm 1\.000000005, "):
            StateVector([math.sqrt(1.0 + 5e-9), 0.0])

    def test_fidelity_needs_equal_dimensions(self):
        with pytest.raises(InputError, match="^dimension mismatch: 2 vs 3$"):
            StateVector([1, 0]).fidelity(StateVector([1, 0, 0]))

    def test_rejects_junk(self):
        with pytest.raises(InputError, match="^amplitudes have squared norm 0, expected 1$"):
            StateVector([])
        with pytest.raises(InputError):
            StateVector([np.nan, 0.0])


class TestTensor:
    def test_basis_times_basis(self):
        zero = OperatorMatrix(np.diag([1.0, 0.0]))
        out = tensor_op(zero, zero)
        assert np.allclose(out.entries, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-15)

    def test_plus_times_zero(self):
        # the left factor is the high-order index
        plus = OperatorMatrix(np.full((2, 2), 0.5))
        out = tensor_op(plus, OperatorMatrix(np.diag([1.0, 0.0])))
        wanted = np.zeros((4, 4))
        wanted[np.ix_([0, 2], [0, 2])] = 0.5
        assert np.allclose(out.entries, wanted, atol=1e-15)

    def test_entangled_basis_regrouping(self, rng):
        # the 8-dim combined state regroups into the four entangled-basis
        # branches, each carrying the matching image of the input qubit
        from bellmd.teleport import TeleportInput, branch_decomposition

        for _ in range(20):
            a, b = random_qubit_pair(rng)
            total = np.kron([a, b], ENTANGLED_BASIS[0])
            images = [
                np.array([a, b]), np.array([a, -b]),
                np.array([b, a]), np.array([-b, a]),
            ]
            rebuilt = np.zeros(8, dtype=complex)
            for k, (prob, pre) in enumerate(branch_decomposition(TeleportInput(a, b))):
                assert np.max(np.abs(pre.amplitudes - images[k])) <= 1e-12
                rebuilt += math.sqrt(prob) * np.kron(ENTANGLED_BASIS[k], pre.amplitudes)
            assert np.max(np.abs(rebuilt - total)) <= 1e-12

    def test_associativity(self, rng):
        def random_op(dim):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            return OperatorMatrix((raw + raw.conj().T) / 2.0)

        for _ in range(20):
            u, v, w = random_op(2), random_op(2), random_op(3)
            left = tensor_op(tensor_op(u, v), w)
            right = tensor_op(u, tensor_op(v, w))
            assert np.max(np.abs(left.entries - right.entries)) <= 1e-12


class TestBornProbabilities:
    def test_eigenstate_of_entangled_basis(self):
        projectors = ENTANGLED_BASIS[:, :, None] * ENTANGLED_BASIS[:, None, :]
        state = StateVector(ENTANGLED_BASIS[0])
        probs = [expectation(OperatorMatrix(p), state) for p in projectors]
        assert np.allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_combined_state_is_uniform_over_branches(self, rng):
        # oracle: project |psi>|pair> on (entangled basis (x) identity) by
        # explicit sums; every branch has weight exactly 1/4
        from bellmd.teleport import TeleportInput, branch_decomposition

        for _ in range(10):
            a, b = random_qubit_pair(rng)
            total = np.kron([a, b], ENTANGLED_BASIS[0])
            expected = []
            for bk in ENTANGLED_BASIS:
                weight = 0.0
                for j in range(2):
                    amp = sum(bk[m].conjugate() * total[2 * m + j] for m in range(4))
                    weight += abs(amp) ** 2
                expected.append(weight)
            assert np.allclose(expected, 0.25, atol=1e-12)

            probs = [p for p, _ in branch_decomposition(TeleportInput(a, b))]
            assert np.allclose(probs, expected, atol=1e-12)


class TestExpectation:
    def test_parallel_correlations_of_shared_pair(self):
        pair = StateVector(ENTANGLED_BASIS[0])
        zz = tensor_op(PAULI_Z, PAULI_Z)
        zx = tensor_op(PAULI_Z, PAULI_X)
        assert abs(expectation(zz, pair) - 1.0) <= 1e-12
        assert abs(expectation(zx, pair)) <= 1e-12

    def test_eigenvector(self):
        assert abs(expectation(PAULI_Z, ZERO) - 1.0) <= 1e-15

    def test_rejects_non_hermitian(self):
        ghost = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InputError, match="must be hermitian"):
            OperatorMatrix(ghost)

    def test_within_eigenvalue_range(self, rng):
        for dim in (2, 4):
            for _ in range(25):
                raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                herm = (raw + raw.conj().T) / 2.0
                op = OperatorMatrix(herm)
                s = StateVector(oracles.random_state(dim, rng))
                value = expectation(op, s)
                eigs = oracles.charpoly_eigenvalues(herm)
                assert eigs[0] - 1e-8 <= value <= eigs[-1] + 1e-8


class TestExpectations:
    def test_single_operator_matches_expectation_exactly(self, rng):
        # the stacked evaluator gives the bits of np.vdot on one operator
        for dim in (2, 3, 4):
            for _ in range(25):
                raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                op = OperatorMatrix((raw + raw.conj().T) / 2.0)
                s = StateVector(oracles.random_state(dim, rng))
                assert expectation(op, s) == oracles.checked_expectations(op.entries, s)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError, match="does not match state dimension"):
            expectation(PAULI_X, StateVector([1.0, 0.0, 0.0, 0.0]))

    def test_an_imaginary_residue_past_its_tolerance_raises(self):
        # a non-hermitian stack, which no caller passes: <psi|A|psi> = i/2 for psi = (1, i)/sqrt2
        ops = np.array([[[0, 1], [0, 0]]], dtype=complex)
        with pytest.raises(InvariantError, match=r"^expectation has imaginary residue 0\.5$"):
            _hermitian_expectations(ops, StateVector([SQRT2_INV, 1j * SQRT2_INV]))


class TestOperatorAndMeasurementValidation:
    def test_hermitian_flag_checked(self):
        with pytest.raises(InputError, match=r"max \|A - A\^dagger\| = 1$"):
            OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(InputError, match="must be hermitian"):
            OperatorMatrix(np.array([[0, 1], [1 + 2e-12, 0]], dtype=complex))
        within = OperatorMatrix(np.array([[0, 1], [1 + 5e-13, 0]], dtype=complex)).entries
        assert within[0, 1] == within[1, 0]
        assert abs(within[0, 1] - (1 + 2.5e-13)) <= 1e-15

    def test_a_residue_of_exactly_the_tolerance_loads(self):
        # max |A - A^dagger| = 1e-12 = ARITHMETIC, the largest residue the check allows
        entries = OperatorMatrix(np.array([[0, 1e-12], [0, 0]], dtype=complex)).entries
        assert entries[0, 1] == entries[1, 0] == 5e-13

    def test_stored_entries_are_exactly_hermitian(self, rng):
        for dim in (2, 3, 4):
            for _ in range(50):
                raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                near = (raw + raw.conj().T) / 2.0 + rng.uniform(-3e-13, 3e-13, size=(dim, dim))
                entries = OperatorMatrix(near).entries
                assert np.array_equal(entries, entries.conj().T)
                assert np.max(np.abs(entries - near)) <= 1e-12

    def test_exactly_hermitian_input_is_stored_bit_for_bit(self, rng):
        pairs = [(PAULI_X, [[0, 1], [1, 0]]), (PAULI_Z, [[1, 0], [0, -1]])]
        for t in np.linspace(-7.0, 7.0, 201):
            c, s = math.cos(t), math.sin(t)
            pairs.append((OperatorMatrix(oracles.rotated_zx(t)), [[c, s], [s, -c]]))
        for _ in range(500):
            bloch = oracles.bloch_observable(oracles.random_unit_bloch(rng))
            pairs.append((OperatorMatrix(bloch), bloch))
        for op, raw in pairs:
            assert op.entries.tobytes() == np.array(raw, dtype=complex).tobytes()
