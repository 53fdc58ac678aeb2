"""The accuracy ledger: printed numbers against the exact values of their float inputs.

Every float input is an exact rational, so every printed number has an exact value
for the inputs it was computed from: a ``fractions.Fraction`` where the arithmetic
is rational, a 60-digit ``decimal`` where it takes a square root.  An error is
measured in ulps of the exact value, |printed - exact| / math.ulp(float(exact)),
the spacing of doubles at the double nearest it; a joint probability's error is
measured in ulps of 1, absolute.  Each row of ``LEDGER`` names an output, its sweep
and its stated bound; the test measures the row's largest error over the sweep and
checks it against the bound.  The quantum rows take their exact values from the
scenario's stored float observables, vectors and state, in exact rational arithmetic
on numpy object arrays of ``Fraction``s.  The ``cmd`` row's exact value is the mutual
information of the optimizer's float tables, as ``optimize`` writes them, in 60-digit
``decimal``, with the joint p(s) p(lambda | s) normalized once: the written rows sum
to 1 only within rounding, and at S = 2 + 1e-12 the marginals of the joint as written
(total 1 + 5.6e-17) would give -8.0e-17 bits, not 6.0e-26.  Its error is absolute,
in ulps of 1: near S = 2 the exact value falls far below the error, and the relative
error reaches 1.3e9 at S = 2 + 1e-12.  The ``predict`` rows take the model's stored floats,
with p(-1 | setting, lambda) = 1 - p(+1 | setting, lambda) exactly, not as the kernel rounds
it (on this sweep both give the same maxima), and sum_lambda p(lambda | a, b) p(x | a, lambda)
p(y | b, lambda) in ``Fraction``; the joint and the correlators are measured in ulps of 1.
The ``mi --table`` row takes the parsed floats of each table, normalizes them once, exactly,
and evaluates their mutual information in 60-digit ``decimal``; its error is absolute, in ulps
of 1, since near independence the printed value is rounding residue: ``0.25,0.25,0.25,
0.2500000000001`` prints 8.0e-17 bits, where the exact value is 7.2e-27.  The ``optimize`` row
reads the ``chsh_value`` or ``best_chsh`` that a run prints, checks that its report file holds
the same float, and measures it in ulps of the exact S of the model file the run wrote, whose
joint is ``predict``'s row's exact joint.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import oracles
from bellmd.cli import main
from bellmd.hilbert import StateVector
from bellmd.inequalities import (ChshScenario, KcbsScenario, chsh_quantum, chsh_value,
                                 kcbs_pentagram, kcbs_value)
from bellmd.lhv import LhvModel, SettingSpace, predict
from bellmd.mdsearch import max_chsh_under_budget, min_cmd_for_chsh
from bellmd.serialize import read_chsh_scenario, read_kcbs_scenario, read_model

TELEPORT_SEEDS = range(200)
# the quantum sweeps: CHSH_SCENARIOS random CHSH scenarios, then, from a fresh generator,
# KCBS_SCENARIOS rotated pentagrams, each with a random state
QUANTUM_SEED, CHSH_SCENARIOS, KCBS_SCENARIOS = 20250810, 64, 100
# the optimizer's models: targets S = 2 + 10^-k and budgets 10^-k bits; the optimize row
# adds the target 2 sqrt(2)
OPTIMIZER_EXPONENTS = range(1, 13)
# the predict sweep: random 2x2 models, MODELS_PER_KIND for each hidden-variable count in
# LAMBDA_COUNTS, with deterministic or stochastic responses and uniform or random marginals
PREDICT_SEED, LAMBDA_COUNTS, MODELS_PER_KIND = 31, range(2, 17), 2
# the `mi --table` sweep: the README's table, MI_TABLES seeded random tables, and tables near
# independence: 1/4 + 10^-k and 1/4 - 10^-k on the diagonals for k in BALANCED_EXPONENTS, and
# 1/4 + 10^-k in one entry for k in ONE_ENTRY_EXPONENTS, from the first k that --table's sum
# check (within 1e-12 of 1) accepts to the last k at which 1/4 + 10^-k is not 1/4
MI_SEED, MI_TABLES, BALANCED_EXPONENTS, ONE_ENTRY_EXPONENTS = 47, 100, range(1, 13), range(13, 17)

# output -> (bound in ulps, what the bound rests on); teleport rows are measured over
# `bellmd teleport --random --seed S` for S in TELEPORT_SEEDS, every transcript of each run
LEDGER = {
    "teleport outcome_probability": (2.0, "four rounded squares, one rounded sum: 2u relative"),
    "teleport bob_final": (2.5, "p's 2u halved by the square root, two roundings more"),
    "teleport fidelity": (4.0, "measured: 2.16 over this sweep, 2.87 over seeds 0..999"),
    "chsh_value bell-optimal.json": (1.0, "measured: 0.5 under every CPU set-up tried"),
    "chsh_value random scenarios": (6.0, "measured: 4.44, at exact S down to 0.41, where an "
                                         "ulp is a quarter of 1's; 3.77 under Prescott"),
    "chsh_quantum joint, ulps of 1": (1.0, "measured: 0.69 over the random scenarios"),
    "kcbs_value pentagram": (1.0, "measured: 0.41 for kcbs_pentagram() and its asset file, "
                                  "under every CPU set-up tried"),
    "kcbs_value rotated pentagrams": (6.0, "measured: 4.62, at exact values down to 0.56; "
                                           "3.68 under Prescott"),
    "cmd raw_bits of optimizer models, ulps of 1": (2.0, "measured: 1.44 (3.2e-16 bits), at "
                                                         "S = 2 + 1e-4 and 2 + 1e-7 and at "
                                                         "budgets 1e-4, 1e-6 and 1e-11"),
    "predict joint, ulps of 1": (1.0, "measured: 0.59 over random and optimizer models"),
    "predict correlators, ulps of 1": (2.0, "measured: 0.83; four joint entries, three sums"),
    "mi --table mutual_information_bits, ulps of 1": (2.0, "measured: 1.54 (3.4e-16 bits), on "
                                                          "a random table; 0.36 near "
                                                          "independence, where it cancels"),
    "optimize chsh_value and best_chsh": (2.0, "measured: 1.0, at S = 2 + 1e-3 and 2 + 1e-5 "
                                               "and at budgets 1e-2 and 1e-10"),
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


def _fractions(arr: np.ndarray) -> np.ndarray:
    """The exact value of each entry of a float array, as an object array of ``Fraction``s."""
    return np.vectorize(Fraction, otypes=[object])(arr)


def exact_chsh(s: ChshScenario) -> tuple[np.ndarray, Fraction]:
    """The joint table that ``chsh_quantum`` defines, and its CHSH value, exactly.

    With N = <psi|psi>, the projectors P = (1 + sA)/2 and Q = (1 + tB)/2 of outcomes with
    signs s and t give <P (x) Q> = (N + s<A (x) 1> + t<1 (x) B> + st<A (x) B>)/4.  Each
    setting pair's four values are clamped at 0 and divided by their sum.
    """
    psi = s.state.amplitudes
    p_re, p_im = _fractions(psi.real), _fractions(psi.imag)

    def form(a: np.ndarray, b: np.ndarray) -> Fraction:  # Re <psi| a (x) b |psi>
        (a_re, a_im), (b_re, b_im) = [(_fractions(m.real), _fractions(m.imag)) for m in (a, b)]
        h_re = np.kron(a_re, b_re) - np.kron(a_im, b_im)
        h_im = np.kron(a_re, b_im) + np.kron(a_im, b_re)
        return p_re @ (h_re @ p_re - h_im @ p_im) + p_im @ (h_re @ p_im + h_im @ p_re)

    one = np.eye(2, dtype=complex)
    # v[i][j] = <A (x) B> for alice's [1, A_0, A_1][i] and bob's [1, B_0, B_1][j]
    v = [[form(a, b) for b in (one, *s.observables[2:])] for a in (one, *s.observables[:2])]
    joint = np.empty((2, 2, 2, 2), dtype=object)  # axes (setting a, setting b, outcome, outcome)
    for a, b in itertools.product(range(2), repeat=2):
        for x, y in itertools.product(range(2), repeat=2):
            sx, sy = 1 - 2 * x, 1 - 2 * y
            value = (v[0][0] + sx * v[a + 1][0] + sy * v[0][b + 1] + sx * sy * v[a + 1][b + 1]) / 4
            joint[a, b, x, y] = max(value, Fraction(0))
        joint[a, b] /= sum(joint[a, b].flat)
    return joint, exact_s([t[0, 0] - t[0, 1] - t[1, 0] + t[1, 1] for t in joint.reshape(4, 2, 2)])


def exact_s(e: list[Fraction]) -> Fraction:
    """max_i |E_sum - 2 E_i| over the four correlators, the CHSH value ``chsh_value`` rounds."""
    return max(abs(sum(e) - 2 * e_i) for e_i in e)


def exact_kcbs(s: KcbsScenario) -> Fraction:
    """sum_i Re <psi| A_i A_{i+1} |psi> for A_i = 2 v_i v_i^T - 1, exactly.

    With s_i = v_i . psi, each term is 4 (v_i . v_{i+1}) Re(conj(s_i) s_{i+1}) - 2|s_i|^2
    - 2|s_{i+1}|^2 + <psi|psi>.
    """
    v, psi = _fractions(s.vectors), s.state.amplitudes
    p_re, p_im = _fractions(psi.real), _fractions(psi.imag)
    s_re, s_im = v @ p_re, v @ p_im
    following = [1, 2, 3, 4, 0]
    dots = (v * v[following]).sum(axis=1)
    squares = s_re * s_re + s_im * s_im
    terms = (4 * dots * (s_re * s_re[following] + s_im * s_im[following])
             - 2 * squares - 2 * squares[following] + (p_re @ p_re + p_im @ p_im))
    return sum(terms)


def chsh_errors() -> dict[str, float]:
    """Largest errors of ``chsh_value`` and the joint entries over the CHSH sweep."""
    asset = read_chsh_scenario(oracles.asset_path("bell-optimal.json"))
    errors = {"chsh_value bell-optimal.json": ulps(chsh_value(chsh_quantum(asset)),
                                                   exact_chsh(asset)[1])}
    rng = np.random.default_rng(QUANTUM_SEED)
    worst_value = worst_joint = 0.0
    for _ in range(CHSH_SCENARIOS):
        ops = [oracles.bloch_observable(oracles.random_unit_bloch(rng)) for _ in range(4)]
        scenario = ChshScenario(np.array(ops), StateVector(oracles.random_state(4, rng)))
        table = chsh_quantum(scenario)
        joint, s = exact_chsh(scenario)
        worst_value = max(worst_value, ulps(chsh_value(table), s))
        gap = max(abs(Fraction(got) - want) for got, want in zip(table.joint.flat, joint.flat))
        worst_joint = max(worst_joint, float(gap / Fraction(math.ulp(1.0))))
    errors["chsh_value random scenarios"] = worst_value
    errors["chsh_quantum joint, ulps of 1"] = worst_joint
    return errors


def kcbs_errors() -> dict[str, float]:
    """Largest errors of ``kcbs_value`` on the pentagram and over the rotated pentagrams."""
    pentagrams = [kcbs_pentagram(), read_kcbs_scenario(oracles.asset_path("kcbs-pentagram.json"))]
    rng = np.random.default_rng(QUANTUM_SEED)
    rotated = [KcbsScenario(pentagrams[0].vectors @ oracles.random_rotation(rng).T,
                            StateVector(oracles.random_state(3, rng)))
               for _ in range(KCBS_SCENARIOS)]
    return {name: max(ulps(kcbs_value(s), exact_kcbs(s)) for s in sweep)
            for name, sweep in (("kcbs_value pentagram", pentagrams),
                                ("kcbs_value rotated pentagrams", rotated))}


def exact_mutual_information(joint: list[list[Fraction]]) -> Decimal:
    """The mutual information of the rows and columns of ``joint`` in 60-digit ``decimal``, the
    joint normalized once, exactly, and both marginals summed from it."""
    total = sum(map(sum, joint))
    joint = [[p / total for p in row] for row in joint]
    p_row, p_col = [sum(row) for row in joint], [sum(col) for col in zip(*joint)]

    def dec(f: Fraction) -> Decimal:
        return Decimal(f.numerator) / f.denominator

    with localcontext() as ctx:
        ctx.prec = 60
        return sum(dec(p) * dec(p / (pr * pc)).ln() for row, pr in zip(joint, p_row)
                   for p, pc in zip(row, p_col) if p) / Decimal(2).ln()


def exact_dependence_bits(model) -> Decimal:
    """I(lambda; s) of the model's float tables: the joint p(s) p(lambda | s), exactly."""
    marginal = [Fraction(x) for x in model.setting_space.marginal.tolist()]
    return exact_mutual_information([[m * Fraction(x) for x in row] for m, row in
                                     zip(marginal, model.lambda_given_settings.tolist())])


def cmd_errors() -> dict[str, float]:
    """Largest absolute error of the reported ``raw_bits`` over the optimizer's models."""
    outcomes = ([min_cmd_for_chsh(2.0 + 10.0**-k) for k in OPTIMIZER_EXPONENTS]
                + [max_chsh_under_budget(10.0**-k) for k in OPTIMIZER_EXPONENTS])
    worst = max(abs(Decimal(o.cmd_report.raw_bits) - exact_dependence_bits(o.model))
                for o in outcomes)
    return {"cmd raw_bits of optimizer models, ulps of 1": float(worst / Decimal(math.ulp(1.0)))}


def _predict_models() -> list[LhvModel]:
    """The random 2x2 models of the predict sweep, then the optimizer's at S = 2 + 10^-k."""
    rng = np.random.default_rng(PREDICT_SEED)
    models = []
    for lam, deterministic, uniform, _ in itertools.product(
            LAMBDA_COUNTS, (True, False), (True, False), range(MODELS_PER_KIND)):
        marginal = None if uniform else rng.dirichlet(np.ones(4))
        responses = (rng.integers(0, 2, size=(4, lam)).astype(float) if deterministic
                     else rng.random((4, lam)))
        models.append(LhvModel(SettingSpace(2, 2, marginal), rng.dirichlet(np.ones(lam), size=4),
                               responses[:2], responses[2:]))
    return models + [min_cmd_for_chsh(2.0 + 10.0**-k).model for k in OPTIMIZER_EXPONENTS]


def exact_predict(model: LhvModel) -> dict[tuple[int, int, int, int], Fraction]:
    """p(x, y | a, b) of the model's float tables, keyed (a, b, x, y) with 0 for +1, exactly."""
    w = [[Fraction(x) for x in row] for row in model.lambda_given_settings.tolist()]
    outcome = []  # per party: p(+1 | setting, lambda), p(-1 | setting, lambda) = 1 - p(+1 | ...)
    for response in (model.alice_response, model.bob_response):
        plus = [[Fraction(x) for x in row] for row in response.tolist()]
        outcome.append((plus, [[1 - x for x in row] for row in plus]))
    return {(a, b, x, y): sum(p * q * r for p, q, r in zip(w[2 * a + b], outcome[0][x][a],
                                                           outcome[1][y][b]))
            for a, b, x, y in itertools.product(range(2), repeat=4)}


def exact_correlators(joint: dict) -> list[Fraction]:
    """E_ab = p(+1, +1) - p(+1, -1) - p(-1, +1) + p(-1, -1) of an ``exact_predict`` joint, in
    (a, b) order."""
    return [joint[a, b, 0, 0] - joint[a, b, 0, 1] - joint[a, b, 1, 0] + joint[a, b, 1, 1]
            for a, b in itertools.product(range(2), repeat=2)]


def predict_errors() -> dict[str, float]:
    """Largest absolute errors of ``predict``'s joint entries and correlators, in ulps of 1."""
    worst_joint = worst_corr = Fraction(0)
    for model in _predict_models():
        table, joint = predict(model), exact_predict(model)
        worst_joint = max([worst_joint] + [abs(Fraction(table.joint[key].item()) - p)
                                           for key, p in joint.items()])
        for got, e in zip(table.correlators.flat, exact_correlators(joint)):
            worst_corr = max(worst_corr, abs(Fraction(got.item()) - e))
    one = Fraction(math.ulp(1.0))
    return {"predict joint, ulps of 1": float(worst_joint / one),
            "predict correlators, ulps of 1": float(worst_corr / one)}


def mi_tables() -> list[str]:
    """The ``--table`` arguments of the ``mi`` sweep, each entry a float's shortest repr."""
    rng = np.random.default_rng(MI_SEED)
    tables = [[0.3252, 0.1748, 0.1748, 0.3252], *rng.dirichlet(np.ones(4), MI_TABLES).tolist()]
    tables += [[0.25 + 10.0**-k, 0.25 - 10.0**-k, 0.25 - 10.0**-k, 0.25 + 10.0**-k]
               for k in BALANCED_EXPONENTS]
    tables += [[0.25, 0.25, 0.25, 0.25 + 10.0**-k] for k in ONE_ENTRY_EXPONENTS]
    return [",".join(map(repr, table)) for table in tables]


def mi_errors() -> dict[str, float]:
    """Largest absolute error of the printed ``mutual_information_bits`` over the ``mi`` sweep,
    against the mutual information of the parsed floats."""
    worst = Decimal(0)
    for table in mi_tables():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["mi", "--table", table]) == 0
        printed = json.loads(out.getvalue())["mutual_information_bits"]
        p = [Fraction(float(x)) for x in table.split(",")]
        worst = max(worst, abs(Decimal(printed) - exact_mutual_information([p[:2], p[2:]])))
    return {"mi --table mutual_information_bits, ulps of 1": float(worst / Decimal(math.ulp(1.0)))}


def optimize_errors(tmp_path) -> dict[str, float]:
    """Largest error of the printed ``chsh_value`` and ``best_chsh`` over the optimizer's sweep,
    against the exact S of the model each run wrote."""
    runs = [("--target-s", 2.0 + 10.0**-k, "min_cmd", "chsh_value") for k in OPTIMIZER_EXPONENTS]
    runs += [("--target-s", 2.0 * math.sqrt(2.0), "min_cmd", "chsh_value")]
    runs += [("--budget", 10.0**-k, "budget", "best_chsh") for k in OPTIMIZER_EXPONENTS]
    worst = 0.0
    for flag, value, stem, field in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["optimize", flag, repr(value), "--out-dir", str(tmp_path)]) == 0
        printed = json.loads(out.getvalue())[field]
        assert json.loads((tmp_path / f"{stem}_report.json").read_text())[field] == printed
        model = read_model(tmp_path / f"{stem}_model.json")
        worst = max(worst, ulps(printed, exact_s(exact_correlators(exact_predict(model)))))
    return {"optimize chsh_value and best_chsh": worst}


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict[str, float]:
    return {**teleport_errors(tmp_path_factory.mktemp("ledger")), **chsh_errors(),
            **kcbs_errors(), **cmd_errors(), **predict_errors(), **mi_errors(),
            **optimize_errors(tmp_path_factory.mktemp("optimize"))}


@pytest.mark.parametrize("row", LEDGER)
def test_each_output_is_within_its_stated_bound(measured, row):
    bound, _ = LEDGER[row]
    assert measured[row] <= bound, (row, measured[row])


def test_the_ulp_measure():
    assert ulps(0.25, Fraction(1, 4)) == 0.0
    assert ulps(0.1, Fraction(1, 10)) == pytest.approx(0.4, abs=1e-3)  # 0.1 is 0.4 ulp high
    assert ulps(1.0 - 2.0**-53, Fraction(1)) == 0.5
    assert ulps(math.sqrt(2.0), Decimal(2).sqrt()) < 0.5
