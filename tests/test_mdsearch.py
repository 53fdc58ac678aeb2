import json
import math

import numpy as np
import pytest

import bellmd.mdsearch as mdsearch
from bellmd.cli import main
from bellmd.errors import InputError
from bellmd.infotheory import cmd
from bellmd.inequalities import chsh_value
from bellmd.lhv import LhvModel, SettingSpace, predict
from bellmd.mdsearch import (
    max_chsh_under_budget,
    min_cmd_for_chsh,
    tradeoff_curve,
)

from oracles import max_chsh_closed_form, min_bits_closed_form

TSIRELSON = 2.0 * math.sqrt(2.0)
FULL_BITS = math.log2(4.0 / 3.0)
# CHSH values from just above the classical bound to the algebraic maximum
S_GRID = [2.0 + 1e-6, 2.05, 2.4, TSIRELSON - 1e-3, TSIRELSON, 3.5, 4.0]


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
        outcome = min_cmd_for_chsh(s)
        assert outcome.feasible
        assert abs(outcome.chsh - s) <= 1e-12
        assert abs(outcome.cmd_report.raw_bits - min_bits_closed_form(s)) <= 1e-12

    @pytest.mark.parametrize("s", S_GRID)
    def test_max_chsh_inverts_closed_form(self, s):
        budget = min_bits_closed_form(s)
        outcome = max_chsh_under_budget(budget)
        assert outcome.feasible
        assert abs(outcome.chsh - max_chsh_closed_form(budget)) <= 1e-9
        # cmd and the closed form round differently by a few 1e-16
        assert outcome.cmd_report.raw_bits <= budget + 1e-12

    def test_algebraic_maximum_costs_log2_four_thirds(self):
        assert min_cmd_for_chsh(4.0).cmd_report.raw_bits == pytest.approx(FULL_BITS, abs=1e-15)

    def test_tsirelson_value_matches_hall(self):
        bits = min_cmd_for_chsh(TSIRELSON).cmd_report.raw_bits
        assert abs(bits - 0.046274) <= 5e-7

    def test_model_has_four_hidden_values(self):
        assert min_cmd_for_chsh(2.5).model.lambda_count == 4

    def test_feasible_follows_recomputation(self, monkeypatch):
        # the reported CHSH value is recomputed from the model, and a
        # shortfall against the target is flagged, not hidden
        monkeypatch.setattr(mdsearch, "chsh_value", lambda table: 2.0)
        outcome = min_cmd_for_chsh(2.5)
        assert not outcome.feasible
        assert outcome.chsh == 2.0

    def test_no_random_model_beats_the_closed_form(self):
        # the closed form is the frontier: a model reaching S > 2 carries at least I(S) bits.
        # Dirichlet rows with log-uniform concentrations, responses 0/1 in every other model
        rng = np.random.default_rng(20240611)
        space, violating = SettingSpace(), 0
        for k in range(2000):
            lam = int(rng.integers(1, 9))
            concentration = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
            lgs = rng.dirichlet(np.full(lam, concentration), size=4)
            responses = rng.integers(0, 2, (2, 2, lam)) if k % 2 else rng.random((2, 2, lam))
            model = LhvModel(space, lgs, *responses.astype(float))
            s = chsh_value(predict(model))
            if s > 2.0:
                violating += 1
                assert cmd(model).raw_bits >= min_bits_closed_form(s) - 1e-12, (k, s)
        assert violating >= 200


class TestMaxChshUnderBudget:
    def test_zero_budget_matches_deterministic_bound(self):
        outcome = max_chsh_under_budget(0.0)
        assert outcome.feasible
        assert abs(outcome.chsh - 2.0) <= 1e-12
        assert outcome.cmd_report.raw_bits <= 1e-12

    def test_full_budget_reaches_algebraic_maximum(self):
        outcome = max_chsh_under_budget(2.0)
        assert outcome.feasible
        assert abs(outcome.chsh - 4.0) <= 1e-12
        assert outcome.cmd_report.raw_bits == pytest.approx(FULL_BITS, abs=1e-15)

    def test_hall_scale_budget_supports_near_maximal_violation(self):
        # ~0.066 bits of setting information already buys more than the
        # full quantum violation
        outcome = max_chsh_under_budget(0.0663)
        assert outcome.feasible
        assert outcome.chsh >= TSIRELSON
        assert outcome.cmd_report.raw_bits <= 0.0663 + 1e-12

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            max_chsh_under_budget(-0.1)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(InputError, match="finite"):
            max_chsh_under_budget(budget)

    def test_returned_model_reverifies(self):
        outcome = max_chsh_under_budget(0.3)
        assert abs(chsh_value(predict(outcome.model)) - outcome.chsh) <= 1e-9
        assert abs(cmd(outcome.model).raw_bits - outcome.cmd_report.raw_bits) <= 1e-9


class TestMinCmdForChsh:
    def test_targets_at_or_below_two_rejected(self):
        with pytest.raises(InputError):
            min_cmd_for_chsh(2.0)
        with pytest.raises(InputError):
            min_cmd_for_chsh(1.5)
        with pytest.raises(InputError):
            min_cmd_for_chsh(4.5)
        with pytest.raises(InputError):
            min_cmd_for_chsh(math.nan)

    def test_algebraic_maximum_needs_at_most_setting_entropy(self):
        outcome = min_cmd_for_chsh(4.0)
        assert outcome.feasible
        assert outcome.chsh >= 4.0 - 1e-12
        assert outcome.cmd_report.raw_bits <= 2.0 + 1e-9

    def test_small_violation_needs_little_dependence(self):
        outcome = min_cmd_for_chsh(2.05)
        assert outcome.feasible
        assert outcome.chsh >= 2.05 - 1e-12
        assert outcome.cmd_report.raw_bits <= 0.05

    def test_near_boundary_target_is_cheap(self):
        outcome = min_cmd_for_chsh(2.0 + 1e-6)
        assert outcome.feasible
        assert outcome.cmd_report.raw_bits <= 0.01

    def test_returned_model_reverifies(self):
        outcome = min_cmd_for_chsh(2.4)
        assert abs(chsh_value(predict(outcome.model)) - outcome.chsh) <= 1e-9
        assert abs(cmd(outcome.model).raw_bits - outcome.cmd_report.raw_bits) <= 1e-9

    def test_bits_monotone_in_target(self):
        bits = [min_cmd_for_chsh(t).cmd_report.raw_bits for t in S_GRID]
        assert all(bits[i] < bits[i + 1] for i in range(len(bits) - 1))


class TestDeterminism:
    def test_fixed_seed_reproduces_bit_identical_models(self):
        a = min_cmd_for_chsh(2.3)
        b = min_cmd_for_chsh(2.3)
        assert np.array_equal(a.model.lambda_given_settings, b.model.lambda_given_settings)
        assert np.array_equal(a.model.alice_response, b.model.alice_response)
        assert np.array_equal(a.model.bob_response, b.model.bob_response)
        assert a.chsh == b.chsh
        assert a.cmd_report == b.cmd_report

    def test_seed_does_not_change_the_model(self, tmp_path, capsys):
        # --seed is recorded in the manifest only; the solver reads none
        dirs = [tmp_path / "seed11", tmp_path / "seed7"]
        for seed, out_dir in zip(("11", "7"), dirs):
            argv = ["optimize", "--budget", "0.1", "--seed", seed, "--out-dir", str(out_dir)]
            assert main(argv) == 0
        capsys.readouterr()
        for name in ("budget_model.json", "budget_report.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestTradeoffCurve:
    def test_two_point_endpoints(self):
        curve = tradeoff_curve([0.0, 2.0])
        assert abs(curve[0].chsh - 2.0) <= 1e-12
        assert abs(curve[1].chsh - 4.0) <= 1e-12

    def test_single_zero_budget(self):
        curve = tradeoff_curve([0.0])
        assert len(curve) == 1
        assert abs(curve[0].chsh - 2.0) <= 1e-12

    def test_monotone_envelope(self):
        budgets = [0.0, 0.05, 0.5, 2.0]
        curve = tradeoff_curve(budgets)
        assert len(curve) == len(budgets)
        values = [p.chsh for p in curve]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
        for budget, point in zip(budgets, curve):
            assert cmd(point.model).raw_bits <= budget + 1e-12
            # on a grid the solver already climbs, every point is that budget's own outcome
            own = max_chsh_under_budget(budget)
            for table in ("lambda_given_settings", "alice_response", "bob_response"):
                assert getattr(point.model, table).tobytes() == getattr(own.model, table).tobytes()
            assert point.model.setting_space.marginal.tobytes() == \
                own.model.setting_space.marginal.tobytes()
            assert (point.chsh, point.cmd_report, point.feasible) == \
                (own.chsh, own.cmd_report, own.feasible)

    @staticmethod
    def _dip_at_half(monkeypatch):
        """Budget 0.5 gets budget 0's outcome, a CHSH value below budget 0.1's."""
        solve = mdsearch.max_chsh_under_budget
        monkeypatch.setattr(mdsearch, "max_chsh_under_budget",
                            lambda budget: solve(0.0 if budget == 0.5 else budget))

    def test_envelope_carries_the_earlier_outcome_whole(self, monkeypatch):
        self._dip_at_half(monkeypatch)
        curve = tradeoff_curve([0.0, 0.1, 0.5])
        assert curve[2] is curve[1]
        assert curve[1].chsh > curve[0].chsh
        assert cmd(curve[1].model).raw_bits <= 0.1 + 1e-12

    def test_cli_curve_rows_keep_their_own_budgets_under_the_envelope(
            self, monkeypatch, tmp_path, capsys):
        self._dip_at_half(monkeypatch)
        assert main(["optimize", "--curve", "0,0.1,0.5", "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)["points"]
        carried = tradeoff_curve([0.0, 0.1])[1].chsh
        assert [(p["budget_bits"], p["best_chsh"]) for p in summary][1:] == \
            [(0.1, carried), (0.5, carried)]
        rows = (tmp_path / "curve.csv").read_text().splitlines()
        assert rows[2:] == [f"0.1,{carried!r},curve_model_1.json",
                            f"0.5,{carried!r},curve_model_2.json"]
        assert (tmp_path / "curve_model_2.json").read_bytes() == \
            (tmp_path / "curve_model_1.json").read_bytes()

    def test_input_validation(self):
        with pytest.raises(InputError):
            tradeoff_curve([])
        with pytest.raises(InputError):
            tradeoff_curve([0.5, 0.0])
        with pytest.raises(InputError):
            tradeoff_curve([-1.0, 0.0])
        with pytest.raises(InputError, match="finite"):
            tradeoff_curve([0.0, math.nan])
        with pytest.raises(InputError, match="finite"):
            tradeoff_curve([0.0, math.inf])
