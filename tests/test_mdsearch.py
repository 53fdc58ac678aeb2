import math
from decimal import Decimal

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

from oracles import dependence_bits_exact, max_chsh_closed_form, min_bits_closed_form

TSIRELSON = 2.0 * math.sqrt(2.0)
FULL_BITS = math.log2(4.0 / 3.0)
# CHSH values from just above the classical bound to the algebraic maximum
S_GRID = [2.0 + 1e-6, 2.05, 2.4, TSIRELSON - 1e-3, TSIRELSON, 3.5, 4.0]


def _ulps_below(value: float, count: int) -> list[float]:
    """The ``count`` floats just below ``value``, nearest first."""
    below = [math.nextafter(value, 0.0)]
    while len(below) < count:
        below.append(math.nextafter(below[-1], 0.0))
    return below


# the budgets whose bisection reaches rates where 4x - 1 rounds to -1
NEAR_FULL_BUDGETS = _ulps_below(FULL_BITS, 25)


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

    @pytest.mark.parametrize("shortfall,feasible", [(2e-12, False), (5e-13, True)])
    def test_feasible_allows_float_headroom_and_no_more(self, monkeypatch, shortfall, feasible):
        # the headroom is 1e-12: 2e-12 below the target is a shortfall, 5e-13 float rounding
        monkeypatch.setattr(mdsearch, "chsh_value", lambda table: 2.5 - shortfall)
        assert min_cmd_for_chsh(2.5).feasible is feasible

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

    @pytest.mark.parametrize("budget", [FULL_BITS, NEAR_FULL_BUDGETS[0]])
    def test_full_budget_and_one_ulp_below_reach_four(self, budget):
        outcome = max_chsh_under_budget(budget)
        assert outcome.feasible
        assert outcome.chsh == 4.0

    def test_only_the_full_budget_reaches_rate_zero(self):
        assert max_chsh_under_budget(FULL_BITS).model.lambda_given_settings.min() == 0.0
        assert max_chsh_under_budget(NEAR_FULL_BUDGETS[0]).model.lambda_given_settings.min() > 0.0

    def test_every_budget_just_below_full_is_solved(self):
        for budget in NEAR_FULL_BUDGETS:
            outcome = max_chsh_under_budget(budget)
            assert outcome.feasible, budget
            assert outcome.cmd_report.raw_bits <= budget + 1e-12
            assert abs(outcome.chsh - 4.0) <= 1e-12

    def test_budgets_where_the_log_branch_runs_are_used_up(self):
        # The rate x returned for a budget b uses it up: x's exact dependence is within
        # USED_UP_ULPS ulps of b, so x lies between the least floats whose exact dependence
        # fits b plus and b minus that slack.  The bound is in ulps of b, since near
        # x = 1e-17 one ulp of b is ~1e15 ulps of x.  These budgets reach rates x < 1.4e-17,
        # where _bits takes x log(4x); its rounding reads up to 2.3 ulps there, while
        # x / log(4x) or x log(4 / x) in that term leaves ~12 ulps of the budget unspent
        USED_UP_ULPS = 3
        budgets = [*NEAR_FULL_BUDGETS,
                   *(mdsearch._bits(float(x)) for x in np.geomspace(1e-30, 1e-15, 200))]
        for budget in budgets:
            rate = max_chsh_under_budget(budget).model.lambda_given_settings.min()
            excess = (dependence_bits_exact(rate) - Decimal(budget)) / Decimal(math.ulp(budget))
            assert abs(excess) <= USED_UP_ULPS, (budget, rate, float(excess))

    @pytest.mark.parametrize("mode", ["--budget", "--curve"])
    def test_cli_exits_0_just_below_the_full_budget(self, tmp_path, capsys, mode):
        for k, budget in enumerate(NEAR_FULL_BUDGETS):
            out_dir = tmp_path / str(k)
            assert main(["optimize", mode, repr(budget), "--out-dir", str(out_dir)]) == 0, budget
        capsys.readouterr()

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
            min_cmd_for_chsh(math.nextafter(4.0, 5.0))
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
        assert a.cmd_report.to_json_dict() == b.cmd_report.to_json_dict()

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

    def test_each_point_is_its_own_budgets_outcome(self):
        budgets = [0.0, 0.05, 0.5, 2.0]
        curve = tradeoff_curve(budgets)
        assert len(curve) == len(budgets)
        values = [p.chsh for p in curve]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
        for budget, point in zip(budgets, curve):
            assert cmd(point.model).raw_bits <= budget + 1e-12
            own = max_chsh_under_budget(budget)
            for table in ("lambda_given_settings", "alice_response", "bob_response"):
                assert getattr(point.model, table).tobytes() == getattr(own.model, table).tobytes()
            assert point.model.setting_space.marginal.tobytes() == \
                own.model.setting_space.marginal.tobytes()
            assert (point.chsh, point.cmd_report.to_json_dict(), point.feasible) == \
                (own.chsh, own.cmd_report.to_json_dict(), own.feasible)

    def test_rate_never_rises_and_chsh_never_falls_along_sorted_budgets(self):
        # the invariant that lets each point be its own solve, with no envelope: ~2,000
        # budgets, a third of them aimed at and beside the _bits of runs of neighbouring rates
        rng = np.random.default_rng(29)
        budgets = [*rng.uniform(0.0, 0.45, 600), *rng.uniform(0.0, 1e-6, 300),
                   *np.geomspace(1e-18, 0.45, 300), *NEAR_FULL_BUDGETS]
        for anchor in [1e-17, 1e-9, 1e-3, 0.25 - 1e-9, *rng.uniform(0.0, 0.25, 20)]:
            rate = float(anchor)
            for _ in range(10):
                bits = mdsearch._bits(rate)
                budgets += [math.nextafter(bits, 0.0), bits, math.nextafter(bits, 1.0)]
                rate = math.nextafter(rate, 1.0)
        budgets = sorted(float(b) for b in budgets if b >= 0.0)
        assert len(budgets) > 1900
        curve = tradeoff_curve(budgets)
        rates = [p.model.lambda_given_settings.min() for p in curve]
        values = [p.chsh for p in curve]
        assert all(rates[i + 1] <= rates[i] for i in range(len(rates) - 1))
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

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
