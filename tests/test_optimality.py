"""``mdsearch``'s optimality argument, checked without the closed form it leads to.

The optimizer's answer is the formula 2 - h(x) - (1 - x) log2 3 at rate x = (4 - S) / 8.
These tests reach the same numbers from the problem itself:

- Blahut-Arimoto over all 16 joint deterministic strategies, not the 8 correlator classes,
  brackets the least dependence at a slope between an upper and a lower bound, and
  ``min_cmd_for_chsh`` lands inside the bracket at the bracket's CHSH value;
- the rate-distortion dual certificate at slope -ln r, r = 3x / (1 - x), with
  mu_s = c = 4 / (3 + r) for every joint setting, is feasible: every strategy, which
  disagrees with the CHSH signs at k joint settings, has sum_s p(s) c r^d(s) =
  c (4 - k + k r) / 4 <= 1.  That is rational in x, so it is checked exactly in ``Fraction``;
- the certificate's value, x ln r + ln c nats, equals the closed form identically, which is
  checked in 60-digit ``decimal``.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import oracles
from bellmd.mdsearch import min_cmd_for_chsh

# slopes in nats per unit distortion: S from 2.015 to 3.99998
SLOPES = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 12.0)
# how far the optimizer's raw_bits may sit outside the Blahut-Arimoto bracket: cmd's ledger
# bound of 2 ulps of 1 plus a few more for the bracket's own float evaluation; measured 2.7e-16
BRACKET_SLACK_BITS = 1e-15


@pytest.mark.parametrize("slope", SLOPES)
def test_blahut_arimoto_brackets_the_optimizer(slope):
    distortion, lower, upper, weights = oracles.blahut_arimoto_chsh(slope)
    outcome = min_cmd_for_chsh(4.0 - 8.0 * distortion)
    bits = outcome.cmd_report.raw_bits
    assert lower - BRACKET_SLACK_BITS <= bits <= upper + BRACKET_SLACK_BITS, (lower, bits, upper)
    assert outcome.feasible
    # the optimum's support is the 8 strategies that disagree at one joint setting: the 4
    # classes the optimizer's model uses, each as a strategy and its global flip
    k = np.array([sum(oracles.chsh_disagreements(lam))
                  for lam in oracles.DETERMINISTIC_STRATEGIES])
    assert sorted(k.tolist()) == [1] * 8 + [3] * 8
    assert weights[k == 3].sum() <= 1e-13
    assert np.abs(weights[k == 1] - 0.125).max() <= 1e-13


def _rates() -> list[Fraction]:
    """Rates in (0, 1/4): within 1e-12 of each end, spread uniformly and over 15 decades,
    and some that are no double."""
    rng = np.random.default_rng(55)
    ends = [5e-324, 1e-300, 1e-13, 0.25 - 1e-13, float(np.nextafter(0.25, 0.0))]
    spread = rng.uniform(0.0, 0.25, 60).tolist() + (0.25 * 10.0 ** -rng.uniform(0, 15, 40)).tolist()
    return ([Fraction(x) for x in ends + spread if 0.0 < x < 0.25]
            + [Fraction(n, 1009) for n in (1, 2, 100, 251, 252)])


def test_the_dual_certificate_is_feasible_exactly():
    rates = _rates()
    assert len(rates) >= 100 and all(0 < x < Fraction(1, 4) for x in rates)
    assert min(rates) < 1e-12 and max(rates) > Fraction(1, 4) - Fraction(1e-12)
    counts = [sum(oracles.chsh_disagreements(lam)) for lam in oracles.DETERMINISTIC_STRATEGIES]
    assert set(counts) == {1, 3}
    for x in rates:
        r = 3 * x / (1 - x)
        for k in counts:
            assert (4 - k + k * r) / 4 <= (3 + r) / 4, (x, k)


def test_the_certificate_value_is_the_closed_form():
    # x ln r + ln(4 / (3 + r)) nats, against x log2(4x) + (1 - x) log2(4(1 - x)/3) bits
    rates = [x for x in _rates() if x.denominator & (x.denominator - 1) == 0]  # the doubles
    assert len(rates) >= 100
    for x in rates:
        rate = float(x)
        with localcontext() as ctx:
            ctx.prec = 60
            d = Decimal(rate)
            r = 3 * d / (1 - d)
            certificate = (d * r.ln() + (4 / (3 + r)).ln()) / Decimal(2).ln()
            # measured 1.3e-59
            assert abs(certificate - oracles.dependence_bits_exact(rate)) <= Decimal("1e-55"), x
