"""The accuracy ledger: printed numbers against the exact values of their float inputs.

Every float input is an exact rational, so every printed number has an exact value
for the inputs it was computed from: a ``fractions.Fraction`` where the arithmetic
is rational, a 60-digit ``decimal`` where it takes a square root.  An error is
measured in ulps of the exact value, |printed - exact| / math.ulp(float(exact)),
the spacing of doubles at the double nearest it.  Each row of ``LEDGER`` names an
output, its sweep and its stated bound; the test measures the row's largest error
over the sweep and checks it against the bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bellmd.cli import main

TELEPORT_SEEDS = range(200)

# output -> (bound in ulps, what the bound rests on); teleport rows are measured over
# `bellmd teleport --random --seed S` for S in TELEPORT_SEEDS, every transcript of each run
LEDGER = {
    "teleport outcome_probability": (2.0, "four rounded squares, one rounded sum: 2u relative"),
    "teleport bob_final": (2.5, "p's 2u halved by the square root, two roundings more"),
    "teleport fidelity": (4.0, "measured: 2.16 over this sweep, 2.87 over seeds 0..999"),
}


def ulps(printed: float, exact) -> float:
    """|printed - exact| in ulps of ``exact``, a ``Fraction`` or a ``Decimal``."""
    error = abs(type(exact)(printed) - exact)
    return float(error / type(exact)(math.ulp(float(exact)))) if error else 0.0


def teleport_errors(tmp_path) -> dict[str, float]:
    """Largest error of each teleport transcript number over the seeded ``--random`` runs.

    With N = |a|^2 + |b|^2 of the printed input, every outcome's probability is N/4,
    the fidelity min(N, 1), and the corrected receiver state (a, b)/sqrt(N).
    """
    out = tmp_path / "t.json"
    worst = dict.fromkeys(("outcome_probability", "bob_final", "fidelity"), 0.0)
    for seed in TELEPORT_SEEDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["teleport", "--random", "--seed", str(seed), "--trials", "1",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        sent = [x for pair in doc["summary"]["input"] for x in pair]
        n = sum(Fraction(x) ** 2 for x in sent)
        with localcontext() as ctx:
            ctx.prec = 60
            root = (Decimal(n.numerator) / Decimal(n.denominator)).sqrt()
            receiver = [Decimal(x) / root for x in sent]
            for t in doc["transcripts"]:
                got = [x for pair in t["bob_final"] for x in pair]
                for name, error in (("outcome_probability", ulps(t["outcome_probability"], n / 4)),
                                    ("fidelity", ulps(t["fidelity"], min(n, Fraction(1)))),
                                    ("bob_final", max(map(ulps, got, receiver)))):
                    worst[name] = max(worst[name], error)
    return {f"teleport {name}": error for name, error in worst.items()}


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict[str, float]:
    return teleport_errors(tmp_path_factory.mktemp("ledger"))


@pytest.mark.parametrize("row", LEDGER)
def test_each_output_is_within_its_stated_bound(measured, row):
    bound, _ = LEDGER[row]
    assert measured[row] <= bound, (row, measured[row])


def test_the_ulp_measure():
    assert ulps(0.25, Fraction(1, 4)) == 0.0
    assert ulps(0.1, Fraction(1, 10)) == pytest.approx(0.4, abs=1e-3)  # 0.1 is 0.4 ulp high
    assert ulps(1.0 - 2.0**-53, Fraction(1)) == 0.5
    assert ulps(math.sqrt(2.0), Decimal(2).sqrt()) < 0.5
