import math

import numpy as np
import pytest

import oracles
from bellmd import infotheory
from bellmd.cli import main
from bellmd.errors import InputError, InvariantError
from bellmd.infotheory import _mutual_information_bits, cmd, entropy_bits
from bellmd.inequalities import bell_optimal_scenario, chsh_quantum
from bellmd.lhv import CorrelationTable, LhvModel, SettingSpace, brans_construct
from bellmd.tolerances import ARITHMETIC, NORMALIZATION

# the worked two-coin tables: independent fair coins, perfectly correlated
# coins, and the partially correlated pair worth ~0.0663 bits
COIN_INDEPENDENT = [[0.25, 0.25], [0.25, 0.25]]
COIN_DETERMINED = [[0.5, 0.0], [0.0, 0.5]]
COIN_PARTIAL = [[0.3252, 0.1748], [0.1748, 0.3252]]


def random_joint(rng, rows=4, cols=5) -> np.ndarray:
    table = rng.gamma(1.0, size=(rows, cols))
    return table / table.sum()


def mutual_information(table) -> float:
    """The score that ``cmd`` and ``mi --table`` share, of a table and its marginals."""
    table = np.asarray(table, dtype=float)
    return _mutual_information_bits(table, table.sum(axis=1), table.sum(axis=0))


class TestMutualInformation:
    def test_independent_coins(self):
        assert mutual_information(COIN_INDEPENDENT) == 0.0

    def test_determined_coins(self):
        assert abs(mutual_information(COIN_DETERMINED) - 1.0) <= 1e-15

    def test_partial_coins_golden_value(self):
        got = mutual_information(COIN_PARTIAL)
        assert abs(got - 0.0663) <= 5e-4
        assert abs(got - oracles.mutual_information_direct(np.array(COIN_PARTIAL))) <= 1e-15

    def test_zero_entries_use_zero_convention(self):
        table = [[0.5, 0.0], [0.25, 0.25]]
        got = mutual_information(table)
        assert got == pytest.approx(oracles.mutual_information_direct(np.array(table)), abs=1e-15)

    def test_nonnegative_and_transpose_symmetric(self, rng):
        for _ in range(50):
            table = random_joint(rng)
            i1 = mutual_information(table)
            i2 = mutual_information(table.T)
            assert i1 >= 0.0
            assert abs(i1 - i2) <= 1e-12

    def test_merging_rows_never_gains_information(self, rng):
        for _ in range(50):
            table = random_joint(rng, rows=5, cols=4)
            before = mutual_information(table)
            i, j = rng.choice(5, size=2, replace=False)
            merged = np.delete(table, j, axis=0)
            merged[i if i < j else i - 1] = table[i] + table[j]
            after = mutual_information(merged)
            assert after <= before + 1e-12

    def test_entropy_decomposition(self, rng):
        for _ in range(50):
            table = random_joint(rng)
            decomposed = (
                oracles.entropy_direct(table.sum(axis=1))
                + oracles.entropy_direct(table.sum(axis=0))
                - oracles.entropy_direct(table)
            )
            assert abs(mutual_information(table) - decomposed) <= 1e-9


class TestCmd:
    def test_independent_model_scores_zero(self, rng):
        lam = 5
        marg = rng.gamma(1.0, size=lam)
        marg /= marg.sum()
        space = SettingSpace()
        model = LhvModel(space, np.tile(marg, (4, 1)),
                         rng.random((2, lam)), rng.random((2, lam)))
        report = cmd(model)
        assert report.raw_bits <= 1e-12
        assert report.normalized <= 1e-12
        assert abs(report.setting_entropy_bits - 2.0) <= 1e-12

    def test_fully_determined_model_saturates(self):
        model = brans_construct(chsh_quantum(bell_optimal_scenario()))
        report = cmd(model)
        assert abs(report.raw_bits - 2.0) <= 1e-9
        assert abs(report.normalized - 1.0) <= 1e-9
        assert abs(report.setting_entropy_bits - 2.0) <= 1e-12

    def test_two_lambda_partial_dependence_reduces_to_coin_table(self):
        # columns (0.6504, 0.3496) vs (0.3496, 0.6504) over two equiprobable
        # settings: the (lambda, setting) joint is exactly the partial coin table
        space = SettingSpace(alice_settings=2, bob_settings=1)
        lgs = np.array([[0.6504, 0.3496], [0.3496, 0.6504]])
        model = LhvModel(space, lgs, 0.5 * np.ones((2, 2)), 0.5 * np.ones((1, 2)))
        report = cmd(model)
        expected = oracles.mutual_information_direct(np.array(COIN_PARTIAL))
        assert abs(report.raw_bits - expected) <= 1e-12
        assert abs(report.raw_bits - 0.0663) <= 5e-4

    def test_zero_iff_measurement_independent(self, rng):
        from bellmd.lhv import measurement_independent

        for _ in range(30):
            lam = 4
            marg = rng.gamma(1.0, size=lam)
            marg /= marg.sum()
            independent = LhvModel(SettingSpace(), np.tile(marg, (4, 1)),
                                   rng.random((2, lam)), rng.random((2, lam)))
            assert measurement_independent(independent)
            assert cmd(independent).raw_bits <= 1e-12

            lgs = rng.gamma(1.0, size=(4, lam))
            lgs /= lgs.sum(axis=1, keepdims=True)
            dependent = LhvModel(SettingSpace(), lgs,
                                 rng.random((2, lam)), rng.random((2, lam)))
            if not measurement_independent(dependent):
                assert cmd(dependent).raw_bits > 1e-12

    def test_report_invariants_on_random_models(self, rng):
        for _ in range(30):
            lam = 6
            lgs = rng.gamma(1.0, size=(4, lam))
            lgs /= lgs.sum(axis=1, keepdims=True)
            model = LhvModel(SettingSpace(), lgs, rng.random((2, lam)), rng.random((2, lam)))
            report = cmd(model)
            joint = oracles.setting_lambda_joint(model)
            cap = min(entropy_bits(joint.sum(axis=1)), report.setting_entropy_bits)
            assert report.raw_bits <= cap + 1e-9
            assert abs(report.normalized * report.setting_entropy_bits - report.raw_bits) <= 1e-9

    def test_nonuniform_setting_marginal(self):
        brans = brans_construct(CorrelationTable.from_correlators(0.25 * np.ones((2, 2))))
        model = LhvModel(SettingSpace(marginal=[0.7, 0.1, 0.1, 0.1]),
                         brans.lambda_given_settings, brans.alice_response, brans.bob_response)
        report = cmd(model)
        expected_entropy = oracles.entropy_direct([0.7, 0.1, 0.1, 0.1])
        assert abs(report.setting_entropy_bits - expected_entropy) <= 1e-12
        assert abs(report.raw_bits - expected_entropy) <= 1e-9
        assert abs(report.normalized - 1.0) <= 1e-9

    def test_setting_too_rare_for_the_product_of_marginals(self):
        # p(lambda) p(s) = 1.9e-342 underflows to 0 while p(lambda, s) = 1.37e-171
        # does not; the score used to come out as inf and raise InvariantError
        rare = 1.37e-171
        model = LhvModel(SettingSpace(1, 2, marginal=[1.0, rare]), [[1.0, 0.0], [0.0, 1.0]],
                         np.zeros((1, 2)), np.zeros((2, 2)))
        report = cmd(model)
        assert report.raw_bits == report.setting_entropy_bits
        assert report.normalized == 1.0
        assert abs(report.raw_bits / oracles.entropy_direct([1.0, rare]) - 1.0) <= 1e-12

    def test_subnormal_setting_scores_its_entropy(self):
        # p(s) = 5e-324 is the least subnormal, so 1 / p(s) overflows to inf; the score
        # used to come out as inf and raise InvariantError
        model = LhvModel(SettingSpace(1, 2, marginal=[1.0, 5e-324]), [[1.0, 0.0], [0.0, 1.0]],
                         np.zeros((1, 2)), np.zeros((2, 2)))
        report = cmd(model)
        assert report.raw_bits == report.setting_entropy_bits > 0.0
        assert report.normalized == 1.0

    def test_a_subnormal_product_of_marginals_is_not_divided_by(self):
        # p(lambda) p(s) = 1e-320 is subnormal, with about 11 significant bits; dividing
        # p(lambda, s) = 1e-160 by it would put the score 3e-8 off the setting entropy
        rare = 1e-160
        model = LhvModel(SettingSpace(1, 2, marginal=[1.0, rare]), [[1.0, 0.0], [0.0, 1.0]],
                         np.zeros((1, 2)), np.zeros((2, 2)))
        assert cmd(model).raw_bits == entropy_bits([1.0, rare]) > 0.0


def test_a_reading_below_the_float_residue_clamp_raises():
    # a row marginal r above the joint table's own 1 makes the reading log2(1 / r) negative;
    # within ARITHMETIC of 0 it is float residue, clamped to 0
    one = np.array([[1.0]])
    with pytest.raises(InvariantError, match=r"^mutual information -0\.5 below the float-residue"):
        _mutual_information_bits(one, np.array([2.0 ** 0.5]), np.array([1.0]))
    assert _mutual_information_bits(one, np.array([2.0 ** 1e-13]), np.array([1.0])) == 0.0


class TestEntropyBound:
    """cmd raises when a reading exceeds min(H(S), H(lambda)) + NORMALIZATION.

    No model reaches the bound, so a stand-in ``_mutual_information_bits`` returns the
    reading.  Two hidden values at p(lambda) = (0.7, 0.3) under uniform 2x2 settings:
    H(lambda) ~0.881 lies below H(S) = 2, and the min-entropy -log2 0.7 ~0.515 below both.
    """

    LAMBDA = [0.7, 0.3]

    @classmethod
    def reading(cls, monkeypatch, bits: float, space=None, lam=None):
        monkeypatch.setattr(infotheory, "_mutual_information_bits", lambda *tables: bits)
        lam = lam or cls.LAMBDA
        space = space or SettingSpace()
        ones = np.ones((space.alice_settings, len(lam))), np.ones((space.bob_settings, len(lam)))
        return cmd(LhvModel(space, [lam] * space.n_joint, *ones))

    @pytest.mark.parametrize("bits", [1.5, 2.5, oracles.entropy_direct(LAMBDA) + 2e-9])
    def test_a_reading_above_the_lambda_entropy_raises(self, monkeypatch, bits):
        bound = oracles.entropy_direct(self.LAMBDA)
        message = f"mutual information {bits:.12g} exceeds the entropy bound {bound:.12g}"
        with pytest.raises(InvariantError) as raised:
            self.reading(monkeypatch, bits)
        assert str(raised.value) == message

    def test_where_the_min_entropy_is_the_entropy_the_bound_is_sharp(self, monkeypatch):
        # two equal hidden values: H(lambda) = -log2 max p(lambda) = 1
        assert self.reading(monkeypatch, 1.0 + NORMALIZATION, lam=[0.5, 0.5]).raw_bits > 1.0
        with pytest.raises(InvariantError) as raised:
            self.reading(monkeypatch, 1.0 + 1.5 * NORMALIZATION, lam=[0.5, 0.5])
        assert str(raised.value) == "mutual information 1.0000000015 exceeds the entropy bound 1"

    def test_a_reading_above_the_setting_entropy_raises(self, monkeypatch):
        # 1x2 settings, H(S) = 1, under four equal hidden values, min-entropy 2 = H(lambda)
        message = "mutual information 1.5 exceeds the entropy bound 1"
        with pytest.raises(InvariantError, match=f"^{message}$"):
            self.reading(monkeypatch, 1.5, SettingSpace(1, 2), [0.25] * 4)

    @pytest.mark.parametrize("bits", [-math.log2(0.7) - ARITHMETIC, -math.log2(0.7),
                                      oracles.entropy_direct(LAMBDA) + NORMALIZATION / 2])
    def test_a_reading_within_the_bound_passes(self, monkeypatch, bits):
        assert self.reading(monkeypatch, math.nextafter(bits, 0.0)).raw_bits == \
            math.nextafter(bits, 0.0)

    def test_a_reading_under_the_min_entropy_skips_the_lambda_entropy(self, monkeypatch):
        def entropy(distribution):
            raise AssertionError("H(lambda) computed for a reading under the min-entropy")

        monkeypatch.setattr(infotheory, "entropy_bits", entropy)
        self.reading(monkeypatch, math.nextafter(-math.log2(0.7) - ARITHMETIC, 0.0))


class TestValidation:
    # a joint table enters through ``mi --table``, which checks it before scoring
    def test_joint_distribution_must_sum_to_one(self, capsys):
        assert main(["mi", "--table", "0.5,0.5,0.5,0.5"]) == 2
        assert "--table sums to 2, expected 1" in capsys.readouterr().err

    def test_joint_distribution_nonnegative(self, capsys):
        assert main(["mi", "--table", "1.2,-0.2,0,0"]) == 2
        assert "--table entries must be nonnegative" in capsys.readouterr().err

    def test_entropy_of_point_mass_is_zero(self):
        assert entropy_bits([1.0, 0.0, 0.0]) == 0.0
        # +0.0, not -0.0: a report would print the sign
        assert np.copysign(1.0, entropy_bits([1.0, 0.0, 0.0])) == 1.0

    # it returned 1.0, -2.0, -inf and 1.04 for the first four
    @pytest.mark.parametrize("distribution", [
        [0.5, math.nan, 0.5], [2.0], [math.inf, 1.0], [0.3, 0.3], [-math.inf, 1.0],
        [1.0 + 2 * ARITHMETIC], [1.0 + 2 * ARITHMETIC, -2 * ARITHMETIC], [],
    ], ids=["nan", "sum 2", "inf", "sum 0.6", "-inf", "sum over", "entry under", "empty"])
    def test_entropy_of_a_non_distribution_raises(self, distribution):
        with pytest.raises(InputError, match=r"^a distribution's entries must be finite and at "
                                             r"least -1e-12, and sum to 1 within 1e-12$"):
            entropy_bits(distribution)

    def test_entropy_takes_entries_and_sums_at_the_tolerance(self):
        # a negative entry within the bound counts as 0
        assert entropy_bits([1.0, -ARITHMETIC / 2]) == 0.0
        assert entropy_bits([0.5, 0.5 + ARITHMETIC / 2]) == pytest.approx(1.0, abs=1e-11)
