"""Acceptance suite: one test per release criterion, at the pinned tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and enforces
a wall-clock ceiling alongside the numeric gate.
"""

import json
import math
import time

import numpy as np

from bellmd.cli import main
from bellmd.hilbert import StateVector
from bellmd.infotheory import cmd
from bellmd.inequalities import (
    bell_optimal_scenario,
    chsh_quantum,
    chsh_value,
    kcbs_classical_min,
    kcbs_pentagram,
    kcbs_value,
    lhv_chsh_max,
)
from bellmd.lhv import CorrelationTable, LhvModel, SettingSpace, brans_construct, predict
from bellmd.mdsearch import min_cmd_for_chsh, tradeoff_curve
from bellmd.teleport import outcome_counts, run_teleportation

TSIRELSON = 2.0 * math.sqrt(2.0)


class _Stopwatch:
    def __init__(self, limit_seconds: float):
        self.limit = limit_seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _verdict(name: str, ok: bool, watch: _Stopwatch, detail: str) -> None:
    in_time = watch.elapsed < watch.limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {name}: {status} [{watch.elapsed:.2f}s/{watch.limit:.0f}s] {detail}")
    assert ok, f"{name}: {detail}"
    assert in_time, f"{name}: exceeded {watch.limit:.0f}s ({watch.elapsed:.2f}s)"


def _mi_table(capsys, table: str) -> float:
    assert main(["mi", "--table", table]) == 0
    return json.loads(capsys.readouterr().out)["mutual_information_bits"]


def test_criterion_1_mutual_information_golden_values(capsys):
    watch = _Stopwatch(1.0)
    independent = _mi_table(capsys, "0.25,0.25,0.25,0.25")
    determined = _mi_table(capsys, "0.5,0,0,0.5")
    partial = _mi_table(capsys, "0.3252,0.1748,0.1748,0.3252")
    ok = (
        independent == 0.0
        and abs(determined - 1.0) <= 1e-12
        and abs(partial - 0.0663) <= 5e-4
    )
    _verdict("1 mutual-information goldens", ok, watch,
             f"I=({independent:.4g}, {determined:.4g}, {partial:.6g})")


def test_criterion_2_zero_dependence_chsh_bound():
    watch = _Stopwatch(5.0)
    enumerated = lhv_chsh_max()
    rng = np.random.default_rng(2)
    space = SettingSpace()
    worst = 0.0
    for _ in range(10_000):
        lam = int(rng.integers(2, 7))
        marg = rng.gamma(1.0, size=lam)
        marg /= marg.sum()
        model = LhvModel(space, np.tile(marg, (4, 1)),
                         rng.random((2, lam)), rng.random((2, lam)))
        worst = max(worst, chsh_value(predict(model)))
    ok = enumerated == 2.0 and worst <= 2.0 + 1e-9
    _verdict("2 zero-dependence bound", ok, watch,
             f"enumerated={enumerated}, worst randomized={worst:.12f}")


def test_criterion_3_quantum_violation():
    watch = _Stopwatch(1.0)
    value = chsh_value(chsh_quantum(bell_optimal_scenario()))
    ok = abs(value - TSIRELSON) <= 1e-9
    _verdict("3 quantum violation", ok, watch, f"S={value:.12f} vs {TSIRELSON:.12f}")


def test_criterion_4_brans_endpoint():
    watch = _Stopwatch(1.0)
    target = CorrelationTable.from_correlators([[1.0, 1.0], [1.0, -1.0]])
    model = brans_construct(target)
    s_value = chsh_value(predict(model))
    report = cmd(model)
    ok = (
        abs(s_value - 4.0) <= 1e-12
        and abs(report.raw_bits - 2.0) <= 1e-9
        and abs(report.normalized - 1.0) <= 1e-9
    )
    _verdict("4 brans endpoint", ok, watch,
             f"S={s_value}, raw_bits={report.raw_bits}, normalized={report.normalized}")


def test_criterion_5_hall_threshold_hard():
    watch = _Stopwatch(1.0)
    outcome = min_cmd_for_chsh(2.05)
    ok = outcome.feasible and outcome.cmd_report.raw_bits <= 0.05
    _verdict("5 hall threshold (hard)", ok, watch,
             f"raw_bits={outcome.cmd_report.raw_bits:.6f} at S={outcome.chsh:.6f}")


def test_criterion_5_hall_threshold_stretch():
    watch = _Stopwatch(1.0)
    outcome = min_cmd_for_chsh(TSIRELSON - 1e-3)
    ok = outcome.feasible and outcome.cmd_report.raw_bits <= 0.07
    _verdict("5 hall threshold (stretch)", ok, watch,
             f"raw_bits={outcome.cmd_report.raw_bits:.6f} at S={outcome.chsh:.6f}")


def test_criterion_6_teleportation():
    watch = _Stopwatch(10.0)
    rng = np.random.default_rng(6)
    worst_gap = 0.0
    for _ in range(1000):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        sent = StateVector([complex(v[0], v[1]), complex(v[2], v[3])])
        _, _, fidelity = run_teleportation(sent)  # every outcome's, after its correction
        worst_gap = max(worst_gap, abs(fidelity - 1.0))
    freqs = np.array(outcome_counts(trials=100_000, seed=1)) / 100_000
    ok = worst_gap <= 1e-12 and bool(np.all(np.abs(freqs - 0.25) <= 0.01))
    _verdict("6 teleportation", ok, watch,
             f"max |fidelity-1|={worst_gap:.2e}, freqs={np.round(freqs, 4).tolist()}")


def test_criterion_7_kcbs():
    watch = _Stopwatch(1.0)
    classical = kcbs_classical_min()
    quantum = kcbs_value(kcbs_pentagram())
    target = 5.0 - 4.0 * math.sqrt(5.0)
    ok = classical == -3.0 and abs(quantum - target) <= 1e-9
    _verdict("7 kcbs", ok, watch, f"classical={classical}, quantum={quantum:.12f}")


def test_criterion_8_tradeoff_curve_shape():
    watch = _Stopwatch(1.0)
    budgets = [0.0, 0.0663, 0.5, 1.0, 2.0]
    curve = tradeoff_curve(budgets)
    values = [p.chsh for p in curve]
    monotone = all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
    endpoints = abs(values[0] - 2.0) <= 1e-3 and abs(values[-1] - 4.0) <= 1e-3
    budgets_respected = all(
        cmd(p.model).raw_bits <= b + 1e-3 for b, p in zip(budgets, curve)
    )
    ok = monotone and endpoints and budgets_respected
    _verdict("8 tradeoff curve", ok, watch,
             f"best_chsh={[round(v, 4) for v in values]}")
