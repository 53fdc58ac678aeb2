"""Tests of the benchmark itself: oracle, checkers, tracer and a smoke run per workload.

Run from the repository root with ``python3 -m pytest bench``.  The
optimize smoke runs make real annealer calls and take a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

import checks
import oracle
import run
import workloads
import speed
from speed import SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bm():
    sys.path.insert(0, str(run.SRC))
    return run.import_bellmd()


# --- closed form --------------------------------------------------------------

def test_closed_form_known_points_and_inverse():
    oracle.self_check()
    grid = np.linspace(2.0, 4.0, 41)
    bits = [oracle.min_bits(s) for s in grid]
    assert all(b2 > b1 for b1, b2 in zip(bits[1:], bits[2:]))
    for s in grid[1:-1]:
        assert oracle.max_chsh(oracle.min_bits(s)) == pytest.approx(s, abs=1e-9)
    assert oracle.max_chsh(0.0) == 2.0 and oracle.max_chsh(5.0) == 4.0


def _optimal_model(bm, x: float):
    """Rate-distortion optimal model for disagreement x = (4 - S) / 8.

    Hidden value j is the deterministic class that meets the CHSH signs at
    every setting but j; p(j | setting s) is x when j == s, else (1 - x) / 3.
    """
    signs = np.array([1.0, 1.0, 1.0, -1.0])
    lgs = np.full((4, 4), (1.0 - x) / 3.0)
    np.fill_diagonal(lgs, x)
    ra, rb = np.zeros((2, 4)), np.zeros((2, 4))
    for j in range(4):
        p0, p1, p2, _ = signs * np.where(np.arange(4) == j, -1.0, 1.0)  # correlators E_ab
        ra[:, j] = (1.0 + np.array([1.0, p2 * p0])) / 2.0
        rb[:, j] = (1.0 + np.array([p0, p1])) / 2.0
    return bm.lhv.LhvModel(bm.lhv.SettingSpace(), lgs, ra, rb)


def test_closed_form_matches_bellmd_on_the_optimal_model(bm):
    for x in (0.24, 0.2, 0.1, 0.03):
        model = _optimal_model(bm, x)
        s = bm.inequalities.chsh_value(bm.lhv.predict(model))
        bits = bm.infotheory.cmd(model).raw_bits
        assert s == pytest.approx(4.0 - 8.0 * x, abs=1e-12)
        assert bits == pytest.approx(oracle.min_bits(s), abs=1e-12)
        assert checks.check_target(s, s, bits) == []
        assert checks.check_budget(bits, s, bits) == []


# --- optimize checks ------------------------------------------------------------

def test_target_check_rejects_bad_results():
    t = 2.6
    i_t = oracle.min_bits(t)
    assert checks.check_target(t, t, 1.03 * i_t) == []
    assert checks.check_target(t, t, 0.5 * i_t)  # below the closed form
    assert checks.check_target(t, t, 1.2 * i_t)  # more than 10% over
    assert checks.check_target(t, t - 0.1, 1.03 * i_t)  # misses the target


def test_budget_check_rejects_bad_results():
    b = 0.1
    s_star = oracle.max_chsh(b)
    assert checks.check_budget(b, s_star - 0.002, b) == []
    assert checks.check_budget(b, s_star - 0.002, 1.01 * b)  # over budget
    assert checks.check_budget(b, s_star - 0.02, b)  # too far below S*(B)
    assert checks.check_budget(b, s_star + 0.01, b)  # above what b bits allow


def test_optimize_check_reads_the_written_model(bm, tmp_path):
    w = workloads.Optimize(0, tmp_path)
    w.setup(bm)
    assert w._spec(0)[0] == "target" and w._spec(1)[0] == "budget"
    out_dir = w._spec(0)[2]
    out_dir.mkdir()
    # the fully setting-determined model reaches any target, at 2 bits
    table = bm.inequalities.chsh_quantum(bm.inequalities.bell_optimal_scenario())
    bm.serialize.write_model(out_dir / "min_cmd_model.json", bm.lhv.brans_construct(table))
    problems = w.check(0, (0, ""))
    assert any("exceeds 1.1 I(T)" in p for p in problems)
    assert not out_dir.exists()

    out_dir = w._spec(1)[2]
    out_dir.mkdir()
    assert w.check(1, (2, "error: boom")) == ["exit code 2: error: boom"]


# --- teleport checks ------------------------------------------------------------

def _teleport_stdout(counts, fidelity=1.0):
    freqs = [c / checks.TELEPORT_TRIALS for c in counts]
    return json.dumps({"outcome_counts": counts, "outcome_frequencies": freqs,
                       "min_fidelity": fidelity})


def test_teleport_check_rejects_bad_results():
    good = [25_000, 24_900, 25_100, 25_000]
    manifest = {"output_files": ["runs/t.json"]}
    assert checks.check_teleport(0, _teleport_stdout(good), "runs/t.json", manifest) == []
    assert checks.check_teleport(0, _teleport_stdout([25_000] * 3 + [24_999]),
                                 "runs/t.json", manifest)
    assert checks.check_teleport(0, _teleport_stdout([40_000, 10_000, 25_000, 25_000]),
                                 "runs/t.json", manifest)
    assert checks.check_teleport(0, _teleport_stdout(good, 0.999), "runs/t.json", manifest)
    assert checks.check_teleport(0, _teleport_stdout(good), "runs/t.json", {"output_files": []})
    assert checks.check_teleport(0, "not json", "runs/t.json", manifest)
    assert checks.check_teleport(3, "", "runs/t.json", None) == ["exit code 3"]


# --- score and scenario checks --------------------------------------------------

def test_score_check_rejects_a_wrong_or_impossible_result(bm, tmp_path):
    w = workloads.Score(0, tmp_path)
    w.setup(bm)
    table, s, report = w.op(0)
    assert w.check(0, (table, s, report)) == []
    assert w.check(0, (table, s + 1e-6, report))

    fake_table = SimpleNamespace(correlators=np.zeros((2, 2)), joint=np.zeros((2, 2, 2, 2)))
    fake_report = SimpleNamespace(raw_bits=0.01, normalized=0.005, setting_entropy_bits=2.0)
    ref = {"corr": fake_table.correlators, "joint": fake_table.joint, "chsh": 2.8,
           "bits": 0.01, "normalized": 0.005, "entropy": 2.0}
    problems = checks.check_score(ref, True, fake_table, 2.8, fake_report)
    assert len(problems) == 1 and "below the closed form" in problems[0]
    assert checks.check_score(ref, False, fake_table, 2.8, fake_report) == []


def test_scenario_checks_reject_wrong_or_impossible_results(bm, tmp_path):
    w = workloads.Scenarios(0, tmp_path)
    w.setup(bm)
    for i in range(w.cycle):
        assert w.check(i, w.op(i)) == []
    assert w.check(3, w.op(3) + 1e-6)

    corr = np.full((2, 2), 0.75)
    corr[1, 1] = -0.75
    table = SimpleNamespace(correlators=corr, joint=np.zeros((2, 2, 2, 2)))
    ref = {"corr": corr, "joint": table.joint, "chsh": 3.0}
    assert any("exceeds 2 sqrt 2" in p for p in checks.check_chsh_scenario(ref, table, 3.0))
    bad = checks.KCBS_QUANTUM_MIN - 0.01
    assert any("below the quantum minimum" in p for p in checks.check_kcbs_scenario(bad, bad))


# --- tracer and statistics ----------------------------------------------------

def test_tracer_self_time_and_scope():
    mod = ModuleType("fake")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "layer.inner")
    tracer.wrap(mod, "outer", "layer.outer")
    assert mod.outer() == 2  # outside an op: not recorded
    assert tracer.spans == []
    with tracer.op(0):
        mod.outer()
        mod.inner()
    busy, calls = tracer.self_times()
    assert calls == {"op": 1, "layer.outer": 1, "layer.inner": 2}
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(busy.values()) == pytest.approx(total, rel=1e-9)
    parents = {name: parent for name, _, _, parent, _ in tracer.spans}
    assert parents["layer.outer"] == 0
    tracer.unwrap_all()
    assert mod.inner is inner and mod.outer is outer


def test_speed_probe_samples_in_a_thread_and_rescales_each_span():
    with SpeedProbe() as probe:
        time.sleep(0.35)
    assert len(probe.samples) >= 2 and len(probe.times) == len(probe.samples)
    assert not probe._thread.is_alive()
    nominal = speed.NOMINAL_SLICE_S
    probe.times = [1.0, 1.1, 1.2, 1.3, 5.0]
    probe.samples = [nominal, 2.0 * nominal, 2.0 * nominal, 4.0 * nominal, 8.0 * nominal]
    assert probe.slowdown(1.15, 1.16) == pytest.approx(2.0)  # the four samples nearby
    assert probe.rescale([(1.15, 0.3)]) == [pytest.approx(0.15)]
    assert probe.slowdown(3.0, 3.5) == 1.0  # too few samples nearby: not rescaled


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(k) for k in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(k) for k in range(1, 10_011)]) == (99.9, 10_000.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


# --- whole runs -----------------------------------------------------------------

def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["score", "scenarios", "teleport", "optimize"])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "score", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
