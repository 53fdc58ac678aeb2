import decimal
import itertools
import math

import numpy as np
import pytest

import oracles
from bellmd.errors import InputError
from bellmd.hilbert import StateVector
from bellmd.inequalities import (
    KCBS_QUANTUM_OPTIMAL,
    ChshScenario,
    KcbsScenario,
    bell_optimal_scenario,
    chsh_quantum,
    chsh_value,
    kcbs_classical_min,
    kcbs_pentagram,
    kcbs_value,
    lhv_chsh_max,
)
from bellmd.lhv import CorrelationTable
from bellmd.tolerances import ARITHMETIC

TSIRELSON = 2.0 * math.sqrt(2.0)


class TestChshValue:
    def test_all_plus_one_caps_at_two(self):
        table = CorrelationTable.from_correlators(np.ones((2, 2)))
        assert abs(chsh_value(table) - 2.0) <= 1e-15
        assert chsh_value(table) == pytest.approx(
            oracles.chsh_eight_placements(table.correlators), abs=1e-15
        )

    def test_algebraic_maximum(self):
        table = CorrelationTable.from_correlators([[1.0, 1.0], [1.0, -1.0]])
        assert chsh_value(table) == 4.0

    def test_matches_eight_placement_enumeration(self, rng):
        for _ in range(200):
            corr = rng.uniform(-1.0, 1.0, size=(2, 2))
            table = CorrelationTable.from_correlators(corr)
            value = chsh_value(table)
            assert abs(value - oracles.chsh_eight_placements(corr)) <= 1e-12
            assert 0.0 <= value <= 4.0

    def test_invariant_under_relabelings(self, rng):
        for _ in range(50):
            corr = rng.uniform(-1.0, 1.0, size=(2, 2))
            base = chsh_value(CorrelationTable.from_correlators(corr))
            for variant in (corr[::-1, :], corr[:, ::-1], corr.T, -corr):
                assert abs(chsh_value(CorrelationTable.from_correlators(variant)) - base) <= 1e-12

    def test_missing_setting_rejected(self):
        table = CorrelationTable.from_correlators([[0.5, 0.5]])
        message = r"^CHSH needs a 2x2 correlation table, got \(1, 2\)$"
        with pytest.raises(InputError, match=message):
            chsh_value(table)

    def test_python_floats_keep_numpys_bits(self):
        """``chsh_value`` in Python floats has the bits of ``np.abs(E_sum - 2 E).max()``.

        Tables come through ``from_correlators`` and through ``_derived`` (joint rows of
        drawn weights), with signed zeros, subnormals, +/-1 and mixed magnitudes.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        u = 5e-324
        edges = [0.0, -0.0, u, -u, 3 * u, 2.2250738585072014e-308, -2.2250738585072009e-308,
                 1.0, -1.0, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), 1e-300, 1e-16]
        correlator = st.one_of(st.sampled_from(edges), st.floats(-1.0, 1.0))
        weight = st.one_of(st.sampled_from([0.0, -0.0, u, 1e-300, 1e-16, 1.0]),
                           st.floats(0.0, 1.0), st.floats(0.0, 1e300))

        def numpy_chsh(e: np.ndarray) -> float:
            return float(np.abs(float(e.sum()) - 2.0 * e).max())

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(corr=st.lists(correlator, min_size=4, max_size=4),
                          weights=st.lists(weight, min_size=16, max_size=16))
        def check(corr, weights):
            w = np.array(weights).reshape(4, 4)
            w[w.sum(axis=1) == 0.0, 0] = 1.0
            joint = (w / w.sum(axis=1, keepdims=True)).reshape(2, 2, 2, 2)
            for table in (CorrelationTable.from_correlators(np.reshape(corr, (2, 2))),
                          CorrelationTable._derived(joint)):
                assert chsh_value(table).hex() == numpy_chsh(table.correlators).hex()

        check()


class TestChshQuantum:
    def test_optimal_scenario_reaches_tsirelson(self):
        value = chsh_value(chsh_quantum(bell_optimal_scenario()))
        assert abs(value - TSIRELSON) <= 1e-9

    def test_same_pair_first_correlator_is_one(self):
        # both parties measuring the same pair (z and the 45-degree zx mix)
        # are perfectly correlated on the shared pair state
        pair = [oracles.PAULI_Z, oracles.rotated_zx(math.pi / 4.0)]
        state = StateVector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))
        table = chsh_quantum(ChshScenario(pair + pair, state))
        assert abs(table.correlators[0, 0] - 1.0) <= 1e-12

    def test_product_state_never_violates(self, rng):
        state = StateVector([1, 0, 0, 0])
        for _ in range(50):
            obs = [oracles.bloch_observable(oracles.random_unit_bloch(rng)) for _ in range(4)]
            scenario = ChshScenario(obs, state)
            assert chsh_value(chsh_quantum(scenario)) <= 2.0 + 1e-9

    def test_singlet_reaches_tsirelson_via_symmetrization(self):
        singlet = StateVector(np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0))
        observables = [oracles.PAULI_Z, oracles.PAULI_X,
                       oracles.rotated_zx(math.pi / 4.0), oracles.rotated_zx(-math.pi / 4.0)]
        scenario = ChshScenario(observables, singlet)
        assert abs(chsh_value(chsh_quantum(scenario)) - TSIRELSON) <= 1e-9

    def test_tsirelson_bound_holds_empirically(self, rng):
        for _ in range(100):
            obs = [oracles.bloch_observable(oracles.random_unit_bloch(rng)) for _ in range(4)]
            state = StateVector(oracles.random_state(4, rng))
            scenario = ChshScenario(obs, state)
            assert chsh_value(chsh_quantum(scenario)) <= TSIRELSON + 1e-6

    def test_joint_tables_match_projector_expectations(self):
        scenario = bell_optimal_scenario()
        table = chsh_quantum(scenario)
        _, projector_expectations = oracles.chsh_quantum_reference(
            scenario.observables[:2], scenario.observables[2:], scenario.state.amplitudes,
        )
        assert np.max(np.abs(table.joint - projector_expectations)) <= 1e-12
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        implied = np.einsum("abij,ij->ab", table.joint, signs)
        assert np.max(np.abs(implied - table.correlators)) <= 1e-12

    def test_matches_kron_reference_on_random_scenarios(self, rng):
        for _ in range(50):
            alice = [oracles.bloch_observable(oracles.random_unit_bloch(rng)) for _ in range(2)]
            bob = [oracles.bloch_observable(oracles.random_unit_bloch(rng)) for _ in range(2)]
            state = oracles.random_state(4, rng)
            table = chsh_quantum(ChshScenario(alice + bob, StateVector(state)))
            corr, joint = oracles.chsh_quantum_reference(alice, bob, state)
            assert np.max(np.abs(table.correlators - corr)) <= 1e-12
            assert np.max(np.abs(table.joint - joint)) <= 1e-12

    def test_each_party_needs_two_observables(self):
        with pytest.raises(InputError, match="^each party needs exactly two observables$"):
            ChshScenario([oracles.PAULI_Z, oracles.PAULI_X, oracles.PAULI_Z],
                         StateVector([1, 0, 0, 0]))

    def test_observables_must_square_to_identity(self):
        bad = 0.5 * np.eye(2, dtype=complex)
        state = StateVector([1, 0, 0, 0])
        with pytest.raises(InputError):
            ChshScenario([bad, oracles.PAULI_X, oracles.PAULI_Z, oracles.PAULI_X], state)
        # [[0, 1 + d], [1 + d, 0]] squares to (1 + d)^2; d up to 5e-11 passed the
        # old 1e-10 gate, then failed CorrelationTable's [-1, 1] check
        pair = StateVector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))
        for d in (1e-12, 2.5e-11, 4.9e-11):
            stretched = np.array([[0, 1 + d], [1 + d, 0]], dtype=complex)
            with pytest.raises(InputError, match=r"bob observable 1 must square to the "
                                                 r"identity: max \|A\^2 - 1\| = .* > 2.5e-13"):
                ChshScenario([oracles.PAULI_Z, oracles.PAULI_X, oracles.PAULI_Z, stretched],
                             pair)
        within = np.array([[0, 1 + 1e-13], [1 + 1e-13, 0]], dtype=complex)
        table = chsh_quantum(ChshScenario([within, oracles.PAULI_Z] * 2, pair))
        assert abs(table.correlators[0, 0] - 1.0) <= 1e-12

    def test_a_stack_in_any_memory_layout_is_the_same_scenario(self):
        base = bell_optimal_scenario()
        for stack in (np.asfortranarray(base.observables), base.observables.transpose(0, 2, 1)):
            observables = ChshScenario(stack, base.state).observables
            assert np.array_equal(observables, np.ascontiguousarray(stack))

    def test_state_inside_the_norm_gate_evaluates(self):
        # a squared norm of 1 + 1e-10 passes StateVector's 1e-9 gate; the correlators
        # used to stay unnormalized and fail CorrelationTable's 1e-12 consistency check
        base = bell_optimal_scenario()
        state = StateVector(base.state.amplitudes * math.sqrt(1.0 + 1e-10))
        scenario = ChshScenario(base.observables, state)
        assert abs(chsh_value(chsh_quantum(scenario)) - TSIRELSON) <= 1e-9

    def test_every_constructed_scenario_evaluates(self, rng):
        built = 0
        for _ in range(2000):
            # up to both gates: max |A - A^dagger| <= 1e-12 and max |A^2 - 1| <= 2.5e-13
            ops = [oracles.perturbed_observable(
                oracles.random_unit_bloch(rng), *rng.uniform(-1e-13, 1e-13, size=2),
                rng.uniform(-1.1e-12, 1.1e-12)) for _ in range(4)]
            if rng.integers(2):
                state = oracles.random_state(4, rng)
            else:  # where |<A (x) B>| and the clamped projector tables peak
                state = oracles.top_eigenvector(np.kron(ops[rng.integers(2)],
                                                        ops[2 + rng.integers(2)]))
            # squared norm across StateVector's 1e-9 gate and a little past it
            state = state * math.sqrt(1.0 + rng.uniform(-1.1e-9, 1.1e-9))
            try:
                scenario = ChshScenario(ops, StateVector(state))
            except InputError:
                continue
            built += 1
            assert chsh_value(chsh_quantum(scenario)) <= TSIRELSON + 1e-9
        assert 500 <= built < 2000


class TestDeterministicEnumeration:
    def test_maximum_is_exactly_two(self):
        assert lhv_chsh_max() == 2.0

    def test_constant_strategies_already_attain_two(self):
        best = 0.0
        for xa in (1.0, -1.0):
            for yb in (1.0, -1.0):
                table = CorrelationTable.from_correlators(np.full((2, 2), xa * yb))
                best = max(best, chsh_value(table))
        assert best == 2.0


class TestKcbs:
    def test_classical_minimum(self):
        assert kcbs_classical_min() == -3.0
        # independent enumeration
        values = [
            oracles.kcbs_cycle_sum(signs)
            for signs in itertools.product((1, -1), repeat=5)
        ]
        assert min(values) == -3
        assert oracles.kcbs_cycle_sum((1, 1, 1, 1, 1)) == 5
        assert oracles.kcbs_cycle_sum((1, -1, 1, -1, 1)) == -3

    def test_every_assignment_at_least_minimum(self):
        for signs in itertools.product((1, -1), repeat=5):
            assert oracles.kcbs_cycle_sum(signs) >= kcbs_classical_min()

    def test_pentagram_reaches_quantum_optimum(self):
        scenario = kcbs_pentagram()
        assert abs(kcbs_value(scenario) - KCBS_QUANTUM_OPTIMAL) <= 1e-9
        with decimal.localcontext() as ctx:  # the double nearest 5 - 4 sqrt(5), to 60 digits
            ctx.prec = 60
            exact = 5 - 4 * decimal.Decimal(5).sqrt()
            gap = abs(decimal.Decimal(KCBS_QUANTUM_OPTIMAL) - exact)
            for neighbour in (math.nextafter(KCBS_QUANTUM_OPTIMAL, d) for d in (-4.0, 0.0)):
                assert gap < abs(decimal.Decimal(neighbour) - exact)

    def test_pentagram_geometry(self):
        scenario = kcbs_pentagram()
        for i in range(5):
            assert abs(np.linalg.norm(scenario.vectors[i]) - 1.0) <= 1e-10
            assert abs(scenario.vectors[i] @ scenario.vectors[(i + 1) % 5]) <= 1e-10

    def test_state_on_first_vector_stays_above_classical_bound(self):
        base = kcbs_pentagram()
        state = StateVector(base.vectors[0].astype(complex))
        scenario = KcbsScenario(base.vectors, state)
        value = kcbs_value(scenario)
        assert value >= -3.0 + 0.5  # far from the contextual regime

    def test_matches_reference_on_rotated_pentagrams(self, rng):
        base = kcbs_pentagram().vectors
        for _ in range(20):
            vectors = base @ oracles.random_rotation(rng).T
            state = oracles.random_state(3, rng)
            value = kcbs_value(KcbsScenario(vectors, StateVector(state)))
            assert abs(value - oracles.kcbs_reference(vectors, state)) <= 1e-12

    def test_value_range(self):
        scenario = kcbs_pentagram()
        assert -5.0 <= kcbs_value(scenario) <= 5.0

    def test_invalid_geometry_rejected(self):
        good = kcbs_pentagram()
        with pytest.raises(InputError):
            KcbsScenario(good.vectors * 1.01, good.state)
        shuffled = good.vectors[[0, 2, 1, 3, 4]]
        with pytest.raises(InputError):
            KcbsScenario(shuffled, good.state)
        with pytest.raises(InputError):
            KcbsScenario(good.vectors, StateVector([1, 0]))

    def test_tilt_within_operator_tolerance_rejected_by_name(self):
        # a 5e-11 tilt passed the old 1e-10 orthogonality gate, then failed
        # kcbs_value's hermiticity check
        good = kcbs_pentagram()
        vectors = good.vectors.copy()
        vectors[1] += 5e-11 * vectors[0]
        with pytest.raises(InputError, match="vectors 0 and 1 must be orthogonal"):
            KcbsScenario(vectors, good.state)

    def test_every_constructed_scenario_evaluates(self, rng):
        base = kcbs_pentagram().vectors
        built = 0
        for _ in range(2000):
            vectors = base @ oracles.random_rotation(rng).T
            i = int(rng.integers(5))
            vectors[(i + 1) % 5] += rng.uniform(-2e-13, 2e-13) * vectors[i]
            try:
                scenario = KcbsScenario(vectors, StateVector(oracles.random_state(3, rng)))
            except InputError:
                continue
            built += 1
            value = kcbs_value(scenario)
            assert -5.0 <= value <= 5.0
            # kcbs_value skips the hermiticity check; the orthogonality bound keeps it at half
            v = scenario.vectors
            observables = 2.0 * (v[:, :, None] * v[:, None, :]) - np.eye(3)
            products = observables @ np.roll(observables, -1, axis=0)
            residue = np.abs(products - products.swapaxes(1, 2)).max()
            assert residue <= ARITHMETIC / 2.0
            assert value == float(oracles.checked_expectations(products, scenario.state).sum())
            reference = oracles.kcbs_reference(scenario.vectors, scenario.state.amplitudes)
            assert abs(value - reference) <= 1e-12
        assert 500 <= built < 2000
