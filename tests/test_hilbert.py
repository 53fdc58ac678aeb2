import math

import numpy as np
import pytest

import oracles
from bellmd.errors import InputError, InvariantError
from bellmd.hilbert import StateVector, _hermitian_parts, expectation, tensor_op

SQRT2_INV = 1.0 / math.sqrt(2.0)
ZERO = StateVector([1.0, 0.0])
PAULI_X, PAULI_Z = oracles.PAULI_X, oracles.PAULI_Z
ENTANGLED_BASIS = oracles.ENTANGLED_BASIS


def hermitian_part(matrix) -> np.ndarray:
    """One matrix's exactly hermitian part, checked as ``ChshScenario`` checks each observable."""
    return _hermitian_parts(np.array([matrix], dtype=complex), ["A"])[0]


def random_hermitian(rng, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0  # (r + conj(s))/2 and (s + conj(r))/2 are conjugates


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
        zero = np.diag([1.0, 0.0]).astype(complex)
        out = tensor_op(zero, zero)
        assert out.tobytes() == np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex).tobytes()

    def test_plus_times_zero(self):
        # the left factor is the high-order index
        plus, zero = np.full((2, 2), 0.5, dtype=complex), np.diag([1.0, 0.0]).astype(complex)
        out = tensor_op(plus, zero)
        wanted = np.zeros((4, 4), dtype=complex)
        wanted[np.ix_([0, 2], [0, 2])] = 0.5
        assert out.tobytes() == wanted.tobytes()

    def test_broadcast_stacks_match_np_kron_bit_for_bit(self, rng):
        # a (3, 1) stack of m x m against a (1, 4) stack of n x n gives the (3, 4) stack of
        # every pair's np.kron, each entry one rounded product
        for m, n in ((2, 2), (2, 3), (3, 2), (1, 4)):
            a = rng.normal(size=(3, 1, m, m)) + 1j * rng.normal(size=(3, 1, m, m))
            b = rng.normal(size=(1, 4, n, n)) + 1j * rng.normal(size=(1, 4, n, n))
            out = tensor_op(a, b)
            assert out.shape == (3, 4, m * n, m * n)
            for i in range(3):
                for j in range(4):
                    assert out[i, j].tobytes() == np.kron(a[i, 0], b[0, j]).tobytes()

    def test_entangled_basis_regrouping(self, rng):
        # the 8-dim combined state regroups into the four entangled-basis
        # branches, each carrying the matching image of the input qubit
        from bellmd.teleport import branch_decomposition

        for _ in range(20):
            a, b = random_qubit_pair(rng)
            total = np.kron([a, b], ENTANGLED_BASIS[0])
            images = [
                np.array([a, b]), np.array([a, -b]),
                np.array([b, a]), np.array([-b, a]),
            ]
            rebuilt = np.zeros(8, dtype=complex)
            for k, (prob, pre) in enumerate(branch_decomposition(StateVector([a, b]))):
                assert np.max(np.abs(pre.amplitudes - images[k])) <= 1e-12
                rebuilt += math.sqrt(prob) * np.kron(ENTANGLED_BASIS[k], pre.amplitudes)
            assert np.max(np.abs(rebuilt - total)) <= 1e-12

    def test_associativity(self, rng):
        for _ in range(20):
            u, v, w = random_hermitian(rng, 2), random_hermitian(rng, 2), random_hermitian(rng, 3)
            left = tensor_op(tensor_op(u, v), w)
            right = tensor_op(u, tensor_op(v, w))
            assert np.max(np.abs(left - right)) <= 1e-12


class TestBornProbabilities:
    def test_eigenstate_of_entangled_basis(self):
        projectors = ENTANGLED_BASIS[:, :, None] * ENTANGLED_BASIS[:, None, :]
        state = StateVector(ENTANGLED_BASIS[0])
        assert np.allclose(expectation(projectors, state), [1, 0, 0, 0], atol=1e-12)

    def test_combined_state_is_uniform_over_branches(self, rng):
        # oracle: project |psi>|pair> on (entangled basis (x) identity) by
        # explicit sums; every branch has weight exactly 1/4
        from bellmd.teleport import branch_decomposition

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

            probs = [p for p, _ in branch_decomposition(StateVector([a, b]))]
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
        with pytest.raises(InputError, match="^A: operator must be hermitian"):
            hermitian_part(ghost)

    def test_within_eigenvalue_range(self, rng):
        for dim in (2, 4):
            for _ in range(25):
                herm = random_hermitian(rng, dim)
                s = StateVector(oracles.random_state(dim, rng))
                value = expectation(herm, s)
                eigs = oracles.charpoly_eigenvalues(herm)
                assert eigs[0] - 1e-8 <= value <= eigs[-1] + 1e-8


class TestExpectations:
    def test_single_operator_matches_expectation_exactly(self, rng):
        # the evaluator gives the bits of np.vdot on one operator, and on each member of a stack
        for dim in (2, 3, 4):
            s = StateVector(oracles.random_state(dim, rng))
            ops = np.array([random_hermitian(rng, dim) for _ in range(25)])
            alone = [float(expectation(op, s)) for op in ops]
            assert alone == oracles.checked_expectations(ops, s).tolist()
            assert expectation(ops, s).tobytes() == np.array(alone).tobytes()

    def test_dimension_mismatch_rejected(self):
        # expectation trusts its callers' checks; each scenario checks its state's dimension
        from bellmd.inequalities import (ChshScenario, KcbsScenario, bell_optimal_scenario,
                                         kcbs_pentagram)

        with pytest.raises(InputError, match="^shared state must live in the 4-dimensional"):
            ChshScenario(bell_optimal_scenario().observables, StateVector([1.0, 0.0, 0.0]))
        with pytest.raises(InputError, match="^state must be a qutrit$"):
            KcbsScenario(kcbs_pentagram().vectors, ZERO)

    def test_an_imaginary_residue_past_its_tolerance_raises(self):
        # a non-hermitian stack, which no caller passes: <psi|A|psi> = i/2 for psi = (1, i)/sqrt2
        ops = np.array([[[0, 1], [0, 0]]], dtype=complex)
        with pytest.raises(InvariantError, match=r"^expectation has imaginary residue 0\.5$"):
            expectation(ops, StateVector([SQRT2_INV, 1j * SQRT2_INV]))


class TestOperatorAndMeasurementValidation:
    def test_hermitian_flag_checked(self):
        with pytest.raises(InputError, match=r"^A: operator must be hermitian: "
                                             r"max \|A - A\^dagger\| = 1$"):
            hermitian_part([[0, 1], [0, 0]])
        with pytest.raises(InputError, match="must be hermitian"):
            hermitian_part([[0, 1], [1 + 2e-12, 0]])
        with pytest.raises(InputError, match="^A: operator entries must be finite$"):
            hermitian_part([[0, 1], [1, np.inf]])
        within = hermitian_part([[0, 1], [1 + 5e-13, 0]])
        assert within[0, 1] == within[1, 0]
        assert abs(within[0, 1] - (1 + 2.5e-13)) <= 1e-15

    def test_a_residue_of_exactly_the_tolerance_loads(self):
        # max |A - A^dagger| = 1e-12 = ARITHMETIC, the largest residue the check allows
        entries = hermitian_part([[0, 1e-12], [0, 0]])
        assert entries[0, 1] == entries[1, 0] == 5e-13

    def test_stored_entries_are_exactly_hermitian(self, rng):
        for dim in (2, 3, 4):
            for _ in range(50):
                near = random_hermitian(rng, dim) + rng.uniform(-3e-13, 3e-13, size=(dim, dim))
                entries = hermitian_part(near)
                assert np.array_equal(entries, entries.conj().T)
                assert np.max(np.abs(entries - near)) <= 1e-12

    def test_exactly_hermitian_input_is_stored_bit_for_bit(self, rng):
        pairs = [(PAULI_X, [[0, 1], [1, 0]]), (PAULI_Z, [[1, 0], [0, -1]])]
        for t in np.linspace(-7.0, 7.0, 201):
            c, s = math.cos(t), math.sin(t)
            pairs.append((oracles.rotated_zx(t), [[c, s], [s, -c]]))
        for _ in range(500):
            bloch = oracles.bloch_observable(oracles.random_unit_bloch(rng))
            pairs.append((bloch, bloch))
        for op, raw in pairs:
            assert hermitian_part(op).tobytes() == np.array(raw, dtype=complex).tobytes()
