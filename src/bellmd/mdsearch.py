"""Least setting dependence for a CHSH value, built in closed form.

Two directions are supported: minimize the dependence I(lambda; settings)
in bits subject to reaching a target CHSH value, and maximize the CHSH
value under a dependence budget.  Both are pinned to the canonical
scenario: two settings per party, uniform setting marginal.  There the
optimum has a closed form and the optimal model is built directly.

Why the model built here is optimal:

* The hidden variable can be taken to be a deterministic strategy without
  loss of generality.  Stochastic responses are mixtures of deterministic
  ones, and splitting each lambda into (lambda, strategy) with
  setting-independent weights leaves both the statistics and I unchanged.
* Coarse-graining the strategies to the 8 correlator sign patterns they
  realize keeps the correlators and, by data processing, only lowers I.
* What is left is a rate-distortion problem (Blahut, IEEE Trans. IT 18:460,
  1972).  The source is the uniform joint setting s, the reproduction
  alphabet is the 8 classes, and the distortion is 1 where a class
  disagrees with the CHSH sign pattern at s.  CHSH = 4 - 8 x for mean
  distortion x, so x = (4 - s) / 8.  The symmetric optimum is uniform on
  the 4 classes that disagree at exactly one joint setting, with
  p(lambda | s) = x where lambda disagrees at s and (1 - x) / 3 elsewhere.
  Its dependence is I = 2 - h(x) - (1 - x) log2 3: 0.046274 bits at
  2 sqrt 2 (Hall, PRA 84, 022102, 2011) and log2(4/3) bits at s = 4.

Every result is re-verified: the CHSH value and the dependence reported are
recomputed from the returned model with ``chsh_value`` and ``cmd``.  All of
the model but the rate x (the uniform ``SettingSpace``, the class response
tables, the disagreement mask) is built once, at import.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError, Value
from .inequalities import chsh_value
from .infotheory import CmdReport, cmd
from .lhv import LhvModel, SettingSpace, predict

_FEAS_HEADROOM = 1e-12  # float headroom on a hard constraint; never a real slack


class SearchOutcome(Value):
    """Optimal model with its recomputed CHSH value and dependence.

    ``min_cmd_for_chsh``, ``max_chsh_under_budget`` and each point of
    ``tradeoff_curve`` return one.  ``feasible`` is False if the recomputed
    values miss the constraint by more than float headroom; the model is
    still carried.  A curve point may be a smaller budget's outcome, so its
    ``cmd_report`` and ``feasible`` are that model's.
    """

    __slots__ = ("model", "cmd_report", "chsh", "feasible")

    def __init__(self, model: LhvModel, cmd_report: CmdReport, chsh: float,
                 feasible: bool) -> None:
        self._assign(model, cmd_report, chsh, feasible)


# --- the optimal model (uniform 2x2 settings) --------------------------------

_SIGN_PATTERN = np.array([1.0, 1.0, 1.0, -1.0])
# the 8 correlator sign patterns realizable by deterministic strategies
_CLASS_PATTERNS = np.array(
    [p for p in itertools.product((1.0, -1.0), repeat=4) if np.prod(p) > 0]
)
# the 4 of them that disagree with the CHSH signs at exactly one joint setting
_ONE_DISAGREEMENT = _CLASS_PATTERNS[(_CLASS_PATTERNS != _SIGN_PATTERN).sum(axis=1) == 1]
_FULL_BUDGET_BITS = math.log2(4.0 / 3.0)  # what CHSH = 4 costs
_UNIFORM = SettingSpace()
# p(+1 | setting, class) for correlators E = (E00, E01, E10, E11): A0 = 1, A1 = E10 E00,
# B0 = E00, B1 = E01; rows alice 0, alice 1, bob 0, bob 1, one column per class
_E = _ONE_DISAGREEMENT.T
_RESPONSES = (np.stack([np.ones(4), _E[2] * _E[0], _E[0], _E[1]]) + 1.0) / 2.0
_DISAGREES = (_ONE_DISAGREEMENT != _SIGN_PATTERN).T  # (setting, lambda)


def _bits(x: float) -> float:
    """I = 2 - h(x) - (1 - x) log2 3, the dependence at disagreement rate x.

    Evaluated as x log2(4x) + (1 - x) log2(4(1 - x)/3) through log1p: near x = 1/4 the
    textbook form cancels to 4e-16 absolute error, which would move S*(budget) by ~1e-8 at
    tiny budgets.  Where 4x - 1 rounds to -1, log1p's pole, log(4x) takes the first term.
    """
    u = 4.0 * x - 1.0
    first = x * math.log1p(u) if u > -1.0 else x * math.log(4.0 * x)
    return (first + (1.0 - x) * math.log1p(-u / 3.0)) / math.log(2.0)


def _optimal_model(x: float) -> LhvModel:
    """p(lambda | s) = x where lambda disagrees at s, (1 - x) / 3 elsewhere."""
    rows = np.where(_DISAGREES, x, (1.0 - x) / 3.0)
    return LhvModel(_UNIFORM, rows, _RESPONSES[:2], _RESPONSES[2:])


def _verified(x: float, meets) -> SearchOutcome:
    """The model at rate x, with CHSH and dependence recomputed from it."""
    model = _optimal_model(x)
    s_value, report = chsh_value(predict(model)), cmd(model)
    return SearchOutcome(model, report, s_value, feasible=meets(s_value, report.raw_bits))


def min_cmd_for_chsh(target_s: float) -> SearchOutcome:
    """Least dependence bits that reach a target CHSH value.

    The returned model reaches ``target_s`` exactly (up to float rounding)
    at the rate-distortion minimum.
    """
    if not 2.0 < target_s <= 4.0:
        raise InputError(
            f"target {target_s} must lie in (2, 4]: values up to 2 need no setting dependence"
        )
    return _verified((4.0 - target_s) / 8.0, lambda s, bits: s >= target_s - _FEAS_HEADROOM)


def max_chsh_under_budget(budget_bits: float) -> SearchOutcome:
    """Largest CHSH value among models within a dependence budget.

    The budget is hard: the rate x is bisected on [0, 1/4] to the smallest
    value whose closed-form dependence fits, so a zero budget reproduces
    the classical bound.
    """
    if not (math.isfinite(budget_bits) and budget_bits >= 0.0):
        raise InputError(f"budget {budget_bits} must be finite and nonnegative")
    lo, hi = 0.0, 0.25  # _bits(hi) <= budget_bits < _bits(lo)
    if budget_bits >= _FULL_BUDGET_BITS:
        hi = 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _bits(mid) <= budget_bits:
            hi = mid
        else:
            lo = mid
    return _verified(hi, lambda s, bits: bits <= budget_bits + _FEAS_HEADROOM)


def tradeoff_curve(budgets) -> tuple[SearchOutcome, ...]:
    """Best CHSH value per dependence budget, post-processed to a monotone envelope.

    One outcome per budget, in order.  A model feasible at a smaller budget
    stays feasible at any larger one, so each point is the best outcome seen
    at or below its budget.
    """
    budget_list = [float(b) for b in budgets]
    if not budget_list:
        raise InputError("need at least one budget")
    if not all(math.isfinite(b) and b >= 0.0 for b in budget_list):
        raise InputError("budgets must be finite and nonnegative")
    if sorted(budget_list) != budget_list:
        raise InputError("budgets must be sorted ascending")
    points: list[SearchOutcome] = []
    for budget in budget_list:
        outcome = max_chsh_under_budget(budget)
        points.append(points[-1] if points and points[-1].chsh > outcome.chsh else outcome)
    return tuple(points)
