import dataclasses
import math

import numpy as np
import pytest

import bellmd.mdsearch as mdsearch
from bellmd.errors import InputError
from bellmd.infotheory import cmd
from bellmd.inequalities import chsh_value
from bellmd.lhv import predict
from bellmd.mdsearch import (
    SearchConfig,
    max_chsh_under_budget,
    min_cmd_for_chsh,
    tradeoff_curve,
)

from oracles import max_chsh_closed_form, min_bits_closed_form

TSIRELSON = 2.0 * math.sqrt(2.0)
FULL_BITS = math.log2(4.0 / 3.0)
CFG = SearchConfig(seed=11)
# CHSH values from just above the classical bound to the algebraic maximum
S_GRID = [2.0 + 1e-6, 2.05, 2.4, TSIRELSON - 1e-3, TSIRELSON, 3.5, 4.0]


class TestConfigValidation:
    def test_defaults_are_spec_sized(self):
        assert [f.name for f in dataclasses.fields(SearchConfig)] == ["seed"]
        assert SearchConfig().seed == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            SearchConfig(seed=-1)


class TestClosedForm:
    def test_oracle_matches_textbook_form(self):
        # I(s) = 2 - h(x) - (1 - x) log2 3, x = (4 - s) / 8, away from s = 2
        for s in np.linspace(2.1, 3.9, 19):
            x = (4.0 - s) / 8.0
            h = -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
            assert min_bits_closed_form(s) == pytest.approx(2.0 - h - (1.0 - x) * math.log2(3.0),
                                                            abs=1e-14)

    @pytest.mark.parametrize("s", S_GRID)
    def test_min_cmd_matches_closed_form(self, s):
        outcome = min_cmd_for_chsh(s, CFG)
        assert outcome.feasible
        assert abs(outcome.chsh - s) <= 1e-12
        assert abs(outcome.cmd_report.raw_bits - min_bits_closed_form(s)) <= 1e-12

    @pytest.mark.parametrize("s", S_GRID)
    def test_max_chsh_inverts_closed_form(self, s):
        budget = min_bits_closed_form(s)
        outcome = max_chsh_under_budget(budget, CFG)
        assert outcome.feasible
        assert abs(outcome.chsh - max_chsh_closed_form(budget)) <= 1e-9
        # cmd and the closed form round differently by a few 1e-16
        assert outcome.cmd_report.raw_bits <= budget + 1e-12

    def test_algebraic_maximum_costs_log2_four_thirds(self):
        assert min_cmd_for_chsh(4.0, CFG).cmd_report.raw_bits == pytest.approx(FULL_BITS, abs=1e-15)

    def test_tsirelson_value_matches_hall(self):
        bits = min_cmd_for_chsh(TSIRELSON, CFG).cmd_report.raw_bits
        assert abs(bits - 0.046274) <= 5e-7

    def test_model_has_four_hidden_values(self):
        assert min_cmd_for_chsh(2.5, CFG).model.lambda_count == 4

    def test_feasible_follows_recomputation(self, monkeypatch):
        # the reported CHSH value is recomputed from the model, and a
        # shortfall against the target is flagged, not hidden
        monkeypatch.setattr(mdsearch, "chsh_value", lambda table: 2.0)
        outcome = min_cmd_for_chsh(2.5, CFG)
        assert not outcome.feasible
        assert outcome.chsh == 2.0


class TestMaxChshUnderBudget:
    def test_zero_budget_matches_deterministic_bound(self):
        outcome = max_chsh_under_budget(0.0, CFG)
        assert outcome.feasible
        assert abs(outcome.chsh - 2.0) <= 1e-12
        assert outcome.cmd_report.raw_bits <= 1e-12

    def test_full_budget_reaches_algebraic_maximum(self):
        outcome = max_chsh_under_budget(2.0, CFG)
        assert outcome.feasible
        assert abs(outcome.chsh - 4.0) <= 1e-12
        assert outcome.cmd_report.raw_bits == pytest.approx(FULL_BITS, abs=1e-15)

    def test_hall_scale_budget_supports_near_maximal_violation(self):
        # ~0.066 bits of setting information already buys more than the
        # full quantum violation
        outcome = max_chsh_under_budget(0.0663, CFG)
        assert outcome.feasible
        assert outcome.chsh >= TSIRELSON
        assert outcome.cmd_report.raw_bits <= 0.0663 + 1e-12

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            max_chsh_under_budget(-0.1, CFG)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(InputError, match="finite"):
            max_chsh_under_budget(budget, CFG)

    def test_returned_model_reverifies(self):
        outcome = max_chsh_under_budget(0.3, CFG)
        assert abs(chsh_value(predict(outcome.model)) - outcome.chsh) <= 1e-9
        assert abs(cmd(outcome.model).raw_bits - outcome.cmd_report.raw_bits) <= 1e-9


class TestMinCmdForChsh:
    def test_targets_at_or_below_two_rejected(self):
        with pytest.raises(InputError):
            min_cmd_for_chsh(2.0, CFG)
        with pytest.raises(InputError):
            min_cmd_for_chsh(1.5, CFG)
        with pytest.raises(InputError):
            min_cmd_for_chsh(4.5, CFG)
        with pytest.raises(InputError):
            min_cmd_for_chsh(math.nan, CFG)

    def test_algebraic_maximum_needs_at_most_setting_entropy(self):
        outcome = min_cmd_for_chsh(4.0, CFG)
        assert outcome.feasible
        assert outcome.chsh >= 4.0 - 1e-12
        assert outcome.cmd_report.raw_bits <= 2.0 + 1e-9

    def test_small_violation_needs_little_dependence(self):
        outcome = min_cmd_for_chsh(2.05, CFG)
        assert outcome.feasible
        assert outcome.chsh >= 2.05 - 1e-12
        assert outcome.cmd_report.raw_bits <= 0.05

    def test_near_boundary_target_is_cheap(self):
        outcome = min_cmd_for_chsh(2.0 + 1e-6, CFG)
        assert outcome.feasible
        assert outcome.cmd_report.raw_bits <= 0.01

    def test_returned_model_reverifies(self):
        outcome = min_cmd_for_chsh(2.4, CFG)
        assert abs(chsh_value(predict(outcome.model)) - outcome.chsh) <= 1e-9
        assert abs(cmd(outcome.model).raw_bits - outcome.cmd_report.raw_bits) <= 1e-9

    def test_bits_monotone_in_target(self):
        bits = [min_cmd_for_chsh(t, CFG).cmd_report.raw_bits for t in S_GRID]
        assert all(bits[i] < bits[i + 1] for i in range(len(bits) - 1))


class TestDeterminism:
    def test_fixed_seed_reproduces_bit_identical_models(self):
        a = min_cmd_for_chsh(2.3, CFG)
        b = min_cmd_for_chsh(2.3, CFG)
        assert np.array_equal(a.model.lambda_given_settings, b.model.lambda_given_settings)
        assert np.array_equal(a.model.alice_response, b.model.alice_response)
        assert np.array_equal(a.model.bob_response, b.model.bob_response)
        assert a.chsh == b.chsh
        assert a.cmd_report == b.cmd_report

    def test_seed_does_not_change_the_model(self):
        a = max_chsh_under_budget(0.1, CFG)
        b = max_chsh_under_budget(0.1, SearchConfig(seed=7))
        assert np.array_equal(a.model.lambda_given_settings, b.model.lambda_given_settings)


class TestTradeoffCurve:
    def test_two_point_endpoints(self):
        curve = tradeoff_curve([0.0, 2.0], CFG)
        assert abs(curve.points[0].best_chsh - 2.0) <= 1e-12
        assert abs(curve.points[1].best_chsh - 4.0) <= 1e-12

    def test_single_zero_budget(self):
        curve = tradeoff_curve([0.0], CFG)
        assert len(curve.points) == 1
        assert abs(curve.points[0].best_chsh - 2.0) <= 1e-12

    def test_monotone_envelope(self):
        curve = tradeoff_curve([0.0, 0.05, 0.5, 2.0], CFG)
        values = [p.best_chsh for p in curve.points]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
        for point in curve.points:
            assert cmd(point.model).raw_bits <= point.budget_bits + 1e-12

    def test_input_validation(self):
        with pytest.raises(InputError):
            tradeoff_curve([], CFG)
        with pytest.raises(InputError):
            tradeoff_curve([0.5, 0.0], CFG)
        with pytest.raises(InputError):
            tradeoff_curve([-1.0, 0.0], CFG)
        with pytest.raises(InputError, match="finite"):
            tradeoff_curve([0.0, math.nan], CFG)
        with pytest.raises(InputError, match="finite"):
            tradeoff_curve([0.0, math.inf], CFG)
