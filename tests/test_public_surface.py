"""The package's public names are pinned, so the surface cannot regrow silently.

A name added to ``bellmd/__init__.py`` must be added here too, on purpose.
"""

import types

import bellmd

PUBLIC_NAMES = [
    "ChshScenario",
    "CmdReport",
    "CorrelationTable",
    "DEFAULT_TOLERANCES",
    "InputError",
    "InvariantError",
    "JointDistribution",
    "KCBS_QUANTUM_OPTIMAL",
    "KcbsScenario",
    "LhvModel",
    "MAX_TENSOR_DIM",
    "OperatorMatrix",
    "SearchOutcome",
    "SettingSpace",
    "StateVector",
    "TeleportInput",
    "TeleportTranscript",
    "TradeoffPoint",
    "basis_state",
    "bell_optimal_scenario",
    "bell_state",
    "branch_decomposition",
    "brans_construct",
    "chsh_quantum",
    "chsh_value",
    "cmd",
    "entropy_bits",
    "expectation",
    "expectations",
    "identity",
    "kcbs_classical_min",
    "kcbs_pentagram",
    "kcbs_value",
    "lhv_chsh_max",
    "max_chsh_under_budget",
    "measurement_independent",
    "min_cmd_for_chsh",
    "mutual_information",
    "pauli_x",
    "pauli_z",
    "predict",
    "rotated_zx",
    "run_teleportation",
    "sample_outcome_counts",
    "sample_outcomes",
    "setting_lambda_joint",
    "tensor",
    "tensor_op",
    "tradeoff_curve",
    "verify_no_setting_choice",
]


def test_public_names_are_pinned():
    public = sorted(
        name for name, value in vars(bellmd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
