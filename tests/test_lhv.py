import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

import oracles
from bellmd.errors import InputError
from bellmd.inequalities import bell_optimal_scenario, chsh_quantum, chsh_value
from bellmd.infotheory import cmd, entropy_bits
from bellmd.lhv import (
    CorrelationTable,
    LhvModel,
    SettingSpace,
    brans_construct,
    measurement_independent,
    predict,
)
from bellmd.serialize import write_model


def shared_lambda_model(marg, alice, bob, space=None) -> LhvModel:
    """Setting-independent model: the same lambda distribution for every joint setting."""
    space = space or SettingSpace()
    lgs = np.tile(np.asarray(marg, dtype=float), (space.n_joint, 1))
    return LhvModel(space, lgs, np.asarray(alice, float), np.asarray(bob, float))


def random_mi_model(rng, lam=6, space=None) -> LhvModel:
    space = space or SettingSpace()
    marg = rng.gamma(1.0, size=lam)
    marg /= marg.sum()
    alice = rng.random((space.alice_settings, lam))
    bob = rng.random((space.bob_settings, lam))
    return shared_lambda_model(marg, alice, bob, space)


class TestPredict:
    def test_constant_plus_responses(self):
        model = shared_lambda_model([0.3, 0.7], np.ones((2, 2)), np.ones((2, 2)))
        table = predict(model)
        assert np.allclose(table.correlators, 1.0, atol=1e-15)

    def test_single_lambda_fair_coins(self):
        model = shared_lambda_model([1.0], 0.5 * np.ones((2, 1)), 0.5 * np.ones((2, 1)))
        table = predict(model)
        assert np.allclose(table.correlators, 0.0, atol=1e-15)
        assert np.allclose(table.joint, 0.25, atol=1e-15)

    def test_matches_direct_summation(self, rng):
        for _ in range(30):
            model = random_mi_model(rng)
            expected = oracles.lhv_correlators_direct(
                model.lambda_given_settings[0], model.alice_response, model.bob_response
            )
            assert np.max(np.abs(predict(model).correlators - expected)) <= 1e-12

    def test_linear_in_lambda_distribution(self, rng):
        space = SettingSpace()
        for _ in range(20):
            lam = 5
            alice = rng.random((2, lam))
            bob = rng.random((2, lam))
            lgs1 = rng.gamma(1.0, size=(4, lam))
            lgs1 /= lgs1.sum(axis=1, keepdims=True)
            lgs2 = rng.gamma(1.0, size=(4, lam))
            lgs2 /= lgs2.sum(axis=1, keepdims=True)
            w = rng.random()
            t1 = predict(LhvModel(space, lgs1, alice, bob))
            t2 = predict(LhvModel(space, lgs2, alice, bob))
            mixed = predict(LhvModel(space, w * lgs1 + (1 - w) * lgs2, alice, bob))
            assert np.max(np.abs(
                mixed.correlators - (w * t1.correlators + (1 - w) * t2.correlators)
            )) <= 1e-12
            assert np.max(np.abs(
                mixed.joint - (w * t1.joint + (1 - w) * t2.joint)
            )) <= 1e-12


class TestBransConstruct:
    def test_reproduces_quantum_correlators(self):
        quantum = chsh_quantum(bell_optimal_scenario())
        model = brans_construct(quantum)
        table = predict(model)
        assert np.max(np.abs(table.correlators - quantum.correlators)) <= 1e-9
        assert np.max(np.abs(table.joint - quantum.joint)) <= 1e-9

    def test_algebraic_maximum_pattern(self):
        target = CorrelationTable.from_correlators([[1.0, 1.0], [1.0, -1.0]])
        model = brans_construct(target)
        assert abs(chsh_value(predict(model)) - 4.0) <= 1e-12

    def test_zero_correlators(self):
        target = CorrelationTable.from_correlators(np.zeros((2, 2)))
        model = brans_construct(target)
        assert abs(chsh_value(predict(model))) <= 1e-12

    def test_round_trip_on_random_tables(self, rng):
        for _ in range(40):
            joint = rng.gamma(1.0, size=(2, 2, 2, 2))
            joint /= joint.sum(axis=(2, 3), keepdims=True)
            target = CorrelationTable(joint)
            table = predict(brans_construct(target))
            assert np.max(np.abs(table.joint - target.joint)) <= 1e-12
            assert np.max(np.abs(table.correlators - target.correlators)) <= 1e-12

    def test_settings_fully_determined(self):
        model = brans_construct(CorrelationTable.from_correlators(np.zeros((2, 2))))
        assert not measurement_independent(model)
        # each setting's support is disjoint from every other setting's
        support = model.lambda_given_settings > 0
        overlap = support.astype(int).sum(axis=0)
        assert np.all(overlap <= 1)


class TestMeasurementIndependent:
    def test_shared_column_model(self, rng):
        assert measurement_independent(random_mi_model(rng))

    def test_brans_is_dependent(self):
        model = brans_construct(CorrelationTable.from_correlators(0.5 * np.ones((2, 2))))
        assert not measurement_independent(model)

    def test_within_tolerance_band(self):
        # the band is NORMALIZATION, 1e-9, on the largest max - min over the rows
        for spread, independent in ((0.5e-9, True), (2e-9, False)):
            lgs = np.tile([0.5, 0.5], (4, 1))
            lgs[0] = [0.5 + spread, 0.5 - spread]
            model = LhvModel(SettingSpace(), lgs, 0.5 * np.ones((2, 2)), 0.5 * np.ones((2, 2)))
            assert measurement_independent(model) is independent

    @pytest.mark.parametrize("alice,bob", [(1, 1), (2, 2)], ids=["one row", "four rows"])
    def test_equal_rows_are_independent_at_tolerance_zero(self, alice, bob):
        # the spread is the largest max - min over the rows, exactly 0 for equal rows or one row
        lgs = np.tile([0.25, 0.75], (alice * bob, 1))
        model = LhvModel(SettingSpace(alice, bob), lgs, np.full((alice, 2), 0.5),
                         np.full((bob, 2), 0.5))
        assert float(np.ptp(model.lambda_given_settings, axis=0).max()) == 0.0
        assert measurement_independent(model)


class TestClassicalBound:
    def test_randomized_independent_models_respect_chsh_bound(self, rng):
        for _ in range(500):
            value = chsh_value(predict(random_mi_model(rng)))
            assert value <= 2.0 + 1e-9


class TestSignedZeros:
    """A -0.0 entry is stored as +0.0, so no table, and no file written from one, shows -0."""

    def test_model_tables_store_positive_zero(self, tmp_path):
        model = LhvModel(SettingSpace(), [[-0.0, 1.0]] * 4, [[-0.0, 1.0], [0.5, 0.5]],
                         [[1.0, -0.0], [0.25, 0.75]])
        for name in ("lambda_given_settings", "alice_response", "bob_response"):
            table = getattr(model, name)
            assert (table == 0.0).any() and not np.signbit(table).any(), name
        path = tmp_path / "model.json"
        write_model(path, model)
        text = path.read_text()
        assert "-0.0" not in text and "0.0" in text
        doc = json.loads(text)
        for name in ("lambda_given_settings", "alice_response", "bob_response"):
            assert all(math.copysign(1.0, v) == 1.0 for row in doc[name] for v in row), name

    def test_a_correlation_table_stores_positive_zero(self):
        table = CorrelationTable([[[[0.5, -0.0], [0.0, 0.5]], [[-0.0, 0.5], [0.5, -0.0]]]])
        assert (table.joint == 0.0).any() and not np.signbit(table.joint).any()
        assert table.correlators.tolist() == [[1.0, -1.0]]


class TestValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(InputError):
            LhvModel(SettingSpace(), np.full((4, 2), 0.4),
                     0.5 * np.ones((2, 2)), 0.5 * np.ones((2, 2)))

    def test_negative_probability_rejected(self):
        lgs = np.tile([1.2, -0.2], (4, 1))
        with pytest.raises(InputError):
            LhvModel(SettingSpace(), lgs, 0.5 * np.ones((2, 2)), 0.5 * np.ones((2, 2)))

    def test_response_out_of_range_rejected(self):
        lgs = np.tile([0.5, 0.5], (4, 1))
        with pytest.raises(InputError):
            LhvModel(SettingSpace(), lgs, 1.5 * np.ones((2, 2)), 0.5 * np.ones((2, 2)))

    def test_setting_marginal_validated(self):
        with pytest.raises(InputError):
            SettingSpace(marginal=[0.5, 0.5, 0.5, 0.5])
        with pytest.raises(InputError):
            SettingSpace(alice_settings=0)

    @pytest.mark.parametrize("alice, bob", [
        (2.0, 2), (2, 2.0), (True, 2), (2, False), (np.float64(1.0), 1), (np.bool_(True), 1),
        ("2", 2),
    ])
    def test_setting_counts_are_integers(self, alice, bob):
        # 2.0 used to fail in numpy, and True to load a 1-setting party with marginal [0.5, 0.5]
        with pytest.raises(InputError, match=r"^setting counts must be positive integers$"):
            SettingSpace(alice, bob)
        space = SettingSpace(np.int64(2), np.int32(1))
        assert space.n_joint == 2 and space.marginal.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("marginal, shape", [
        ([[0.25] * 4, [0.7, 0.1, 0.1, 0.1]], "(2, 4)"),  # row 0 alone used to be kept
        ([[0.25] * 4], "(1, 4)"),
        ([[0.5, 0.5], [0.5, 0.5]], "(2, 2)"),
        ([0.5, 0.5], "(2,)"),
        (1.0, "()"),
    ])
    def test_setting_marginal_is_one_flat_row(self, marginal, shape):
        with pytest.raises(InputError, match=rf"setting marginal must be a flat list of 4 "
                                             rf"entries, got shape {re.escape(shape)}$"):
            SettingSpace(marginal=marginal)
        loaded = SettingSpace(marginal=np.array([0.7, 0.1, 0.1, 0.1]))
        assert loaded.marginal.tolist() == [0.7, 0.1, 0.1, 0.1]

    def test_sums_are_checked_after_the_clip(self):
        # the entries sum to 1 + 9.4e-13 but keep 1 + 4.9e-12 once the negatives clip to 0
        row = [1.0 + 4.9e-12] + [-0.99e-12] * 4
        with pytest.raises(InputError, match="lambda_given_settings rows must each sum to 1"):
            LhvModel(SettingSpace(), np.tile(row, (4, 1)), np.ones((2, 5)), np.ones((2, 5)))
        with pytest.raises(InputError, match=r"setting marginal sums to 1\.0000000000049"):
            SettingSpace(alice_settings=1, bob_settings=5, marginal=row)

    def test_entry_rows_sum_to_one_within_a_quarter_of_the_tolerance(self):
        # rows 5e-13 over one used to load, and their derived tables could then
        # fail predict's row sums or cmd's clamp
        row = np.array([0.5, 0.5]) * (1.0 + 5e-13)
        with pytest.raises(InputError, match="lambda_given_settings rows must each sum to 1 within 2.5e-13"):
            LhvModel(SettingSpace(), np.tile(row, (4, 1)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(InputError, match=r"setting marginal sums to 1\.0000000000005, expected 1"):
            SettingSpace(alice_settings=1, bob_settings=2, marginal=row)
        inside = np.array([0.5, 0.5]) * (1.0 + 2e-13)
        model = LhvModel(SettingSpace(1, 2, inside), np.tile(inside, (2, 1)),
                         np.ones((1, 2)), np.ones((2, 2)))
        assert np.array_equal(model.lambda_given_settings, np.tile(inside, (2, 1)))

    def test_rows_are_summed_in_entry_order(self):
        # this row sums to 1 + 2.498e-13 in entry order, within a quarter of the tolerance,
        # and to 1 + 2.5002e-13 in reverse order, past it: the order decides what loads
        row = [0.3571736306952352, 0.08651857807205919, 0.4956235435858616,
               0.01687780612713921, 0.0438064415199547]
        responses = np.ones((2, 5))
        model = LhvModel(SettingSpace(), np.tile(row, (4, 1)), responses, responses)
        assert model.lambda_given_settings.tolist() == [row] * 4
        with pytest.raises(InputError, match="rows must each sum to 1 within 2.5e-13"):
            LhvModel(SettingSpace(), np.tile(row[::-1], (4, 1)), responses, responses)

    @pytest.mark.parametrize("shape, message", [
        ((2, 2, 2, 2), "joint outcome table rows must each sum to 1 within 1e-12"),
        ((1, 1, 2, 2), "joint outcome table sums to 1.000000000003, expected 1"),
    ])
    def test_a_derived_table_checks_its_sums(self, shape, message):
        # _derived checks only the per-setting sums of a joint computed from checked inputs
        def joint(defect):
            arr = np.full(shape, 0.25)
            arr[(0,) * len(shape)] += defect
            return arr
        with pytest.raises(InputError) as err:
            CorrelationTable._derived(joint(3e-12))
        assert str(err.value) == message
        inside = joint(5e-13)
        table = CorrelationTable._derived(inside)
        assert table.joint is inside and not inside.flags.writeable

    def test_correlators_capped(self):
        with pytest.raises(InputError):
            CorrelationTable.from_correlators([[1.5, 0.0], [0.0, 0.0]])

    def test_correlators_are_the_read_only_signed_joint_sums(self, rng):
        joint = rng.gamma(1.0, size=(2, 3, 2, 2))
        joint /= joint.sum(axis=(2, 3), keepdims=True)
        table = CorrelationTable(joint)
        p = table.joint
        expected = p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]
        assert table.shape == (2, 3)
        assert np.array_equal(table.correlators, expected)
        with pytest.raises(ValueError):
            table.correlators[0, 0] = 0.0
        with pytest.raises(TypeError):
            CorrelationTable(joint, np.zeros((2, 3)))  # joint is the only field

    def test_joint_needs_two_by_two_outcomes(self):
        with pytest.raises(InputError, match=r"^joint table must have shape \(a, b, 2, 2\), "
                                             r"got \(2, 2, 4\)$"):
            CorrelationTable(np.full((2, 2, 4), 0.25))


LGS = np.full((4, 3), 1.0 / 3.0)
RESPONSE = np.full((2, 3), 0.5)
FIELDS = ("lambda_given_settings", "alice_response", "bob_response")


def _with_entry(table: np.ndarray, value: float) -> np.ndarray:
    table = table.copy()
    table[0, 1] = value
    return table


# one defect per field, with the exception and message it raises: every table's conversion
# and shape are checked before any table's entries
DEFECTS = [
    *[(f"{field}-{label}", {field: _with_entry(LGS if field == FIELDS[0] else RESPONSE, value)},
       InputError, f"{field} entries must be finite")
      for field in FIELDS for label, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))],
    ("lambda_given_settings-below", {FIELDS[0]: _with_entry(LGS, -2e-12)},
     InputError, "lambda_given_settings entries must be nonnegative"),
    *[(f"{field}-{label}", {field: _with_entry(RESPONSE, value)},
       InputError, f"{field} entries must lie in [0, 1]")
      for field in FIELDS[1:] for label, value in (("below", -2e-12), ("above", 1.0 + 2e-12))],
    *[(f"{field}-shape", {field: np.full((2, 4), 0.5)},
       InputError, f"{field} must have shape (2, 3), got (2, 4)") for field in FIELDS[1:]],
    *[(f"{field}-1d", {field: np.full(3, 0.5)},
       InputError, f"{field} must have shape (2, 3), got (3,)") for field in FIELDS[1:]],
    ("lambda_given_settings-rows", {FIELDS[0]: LGS[:3]},
     InputError, "lambda_given_settings needs 4 rows, got 3"),
    ("lambda_given_settings-3d", {FIELDS[0]: LGS[None]},
     InputError, "lambda_given_settings must be a 2-d table"),
    ("lambda_given_settings-1d", {FIELDS[0]: LGS[0]},
     InputError, "lambda_given_settings must be a 2-d table"),
    ("lambda_given_settings-sum", {FIELDS[0]: np.vstack([LGS[:3], 1.5 * LGS[3:]])},
     InputError, "lambda_given_settings rows must each sum to 1 within 2.5e-13"),
    ("no-lambda", {field: np.zeros((n, 0)) for field, n in zip(FIELDS, (4, 2, 2))},
     InputError, "lambda_given_settings rows must each sum to 1 within 2.5e-13"),
    ("lambda_given_settings-text", {FIELDS[0]: [[1.0, "x", 0.0]] * 4},
     ValueError, "could not convert string to float: 'x'"),
    ("alice-shape-after-nan-lambda", {FIELDS[0]: _with_entry(LGS, np.nan),
                                      FIELDS[1]: np.full((2, 4), 0.5)},
     InputError, "alice_response must have shape (2, 3), got (2, 4)"),
    # defects in two fields: a shape defect raises before any entry defect, even a row sum
    # between 2.5e-13 and 1e-12 off 1; of two entry defects, the first field in the order
    # lambda_given_settings, alice_response, bob_response raises
    ("alice-above-and-bob-nan", {FIELDS[1]: _with_entry(RESPONSE, 1.0 + 2e-12),
                                 FIELDS[2]: _with_entry(RESPONSE, np.nan)},
     InputError, "alice_response entries must lie in [0, 1]"),
    ("lambda-sum-near-and-bob-shape", {FIELDS[0]: LGS * (1.0 + 5e-13),
                                       FIELDS[2]: np.full((2, 4), 0.5)},
     InputError, "bob_response must have shape (2, 3), got (2, 4)"),
]


@pytest.mark.parametrize("tables,error,message", [d[1:] for d in DEFECTS],
                         ids=[d[0] for d in DEFECTS])
def test_a_defect_raises_as_each_field_checked_alone(tables, error, message):
    with pytest.raises(error) as raised:
        LhvModel(SettingSpace(), **{**dict(zip(FIELDS, (LGS, RESPONSE, RESPONSE))), **tables})
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_a_flat_lambda_row_is_rejected():
    with pytest.raises(InputError, match="^lambda_given_settings must be a 2-d table$"):
        LhvModel(SettingSpace(1, 1), [0.25, 0.75], [[1.0, 0.0]], [[0.0, 1.0]])
    table = LhvModel(SettingSpace(1, 1), [[0.25, 0.75]], [[1.0, 0.0]], [[0.0, 1.0]])
    for name in FIELDS:
        assert not getattr(table, name).flags.writeable


def test_nonsquare_setting_spaces_supported():
    space = SettingSpace(alice_settings=2, bob_settings=1)
    assert space.n_joint == 2
    model = shared_lambda_model([0.5, 0.5], 0.5 * np.ones((2, 2)), 0.5 * np.ones((1, 2)),
                                space=space)
    assert predict(model).shape == (2, 1)


def _random_spaces(rng) -> list[SettingSpace]:
    """Uniform, 1x1 and 2x3 spaces, and non-uniform marginals, some with zero entries."""
    spaces = [SettingSpace(), SettingSpace(1, 1), SettingSpace(2, 3), SettingSpace(1, 2, [0, 1])]
    for k in range(200):
        n_a, n_b = (int(c) for c in rng.integers(1, 4, size=2))
        marginal = rng.gamma(0.3, size=n_a * n_b)
        marginal[rng.random(marginal.size) < 0.3 * (k % 2)] = 0.0
        if marginal.sum() == 0.0:
            marginal[0] = 1.0
        spaces.append(SettingSpace(n_a, n_b, marginal / marginal.sum()))
    return spaces


class TestSettingEntropy:
    """A setting space computes its marginal's entropy once; cmd reports that value."""

    def test_stored_entropy_is_the_marginals_bit_for_bit(self, rng):
        for space in _random_spaces(rng):
            assert space._entropy_bits.hex() == entropy_bits(space.marginal).hex()

    def test_cmd_reports_the_stored_entropy(self, rng):
        for space in _random_spaces(rng)[:60]:
            model = random_mi_model(rng, lam=3, space=space)
            assert cmd(model).setting_entropy_bits.hex() == space._entropy_bits.hex()

    def test_copies_and_pickles_compute_the_same_entropy(self, rng):
        for space in _random_spaces(rng)[::20]:
            copies = [pickle.loads(pickle.dumps(space, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in copies + [copy.copy(space), copy.deepcopy(space)]:
                assert twin is not space
                assert twin._entropy_bits.hex() == space._entropy_bits.hex()
                assert twin._entropy_bits.hex() == entropy_bits(twin.marginal).hex()

    def test_the_entropy_is_neither_a_field_nor_shown(self):
        assert SettingSpace._fields == ("alice_settings", "bob_settings", "marginal")
        assert repr(SettingSpace()) == "SettingSpace(alice_settings=2, bob_settings=2, " \
                                       "marginal=array([0.25, 0.25, 0.25, 0.25]))"
        with pytest.raises(TypeError):
            SettingSpace(2, 2, None, 2.0)
