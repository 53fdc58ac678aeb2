"""The package's public names are pinned, so the surface cannot regrow silently.

A name added to ``bellmd/__init__.py`` must be added here too, on purpose.
Names the benchmark tracer wraps stay module attributes, checked below.
"""

import importlib
import types
from pathlib import Path

import bellmd

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC_NAMES = [
    "ChshScenario",
    "CmdReport",
    "CorrelationTable",
    "DEFAULT_TOLERANCES",
    "InputError",
    "InvariantError",
    "KCBS_QUANTUM_OPTIMAL",
    "KcbsScenario",
    "LhvModel",
    "OperatorMatrix",
    "SearchOutcome",
    "SettingSpace",
    "StateVector",
    "TeleportInput",
    "TeleportTranscript",
    "TradeoffPoint",
    "bell_optimal_scenario",
    "brans_construct",
    "chsh_quantum",
    "chsh_value",
    "cmd",
    "entropy_bits",
    "expectations",
    "kcbs_classical_min",
    "kcbs_pentagram",
    "kcbs_value",
    "lhv_chsh_max",
    "max_chsh_under_budget",
    "measurement_independent",
    "min_cmd_for_chsh",
    "outcome_counts",
    "pauli_x",
    "pauli_z",
    "predict",
    "rotated_zx",
    "tradeoff_curve",
    "verify_no_setting_choice",
]


def test_public_names_are_pinned():
    public = sorted(
        name for name, value in vars(bellmd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_every_traced_call_resolves(monkeypatch):
    # bench/workloads.py wraps each (module, attribute) with getattr; a cut name breaks it
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("workloads").TRACED_CALLS
    missing = [f"bellmd.{module}.{attr}" for module, attr, *_ in traced
               if not hasattr(importlib.import_module(f"bellmd.{module}"), attr)]
    assert traced and not missing
