"""Measurement-dependence toolkit for Bell-type experiments.

Builds finite local hidden-variable models whose hidden variables may
carry information about the measurement settings, quantifies that
dependence in bits, evaluates CHSH/KCBS statistics and their quantum
predictions, simulates teleportation, and searches for the least
dependence needed to reach a target CHSH value.  Every name exported here
is pinned in ``tests/test_public_surface.py``.
"""

__version__ = "0.1.0"

from .errors import InputError, InvariantError
from .hilbert import StateVector
from .infotheory import CmdReport, cmd, entropy_bits
from .inequalities import (
    KCBS_QUANTUM_OPTIMAL,
    ChshScenario,
    KcbsScenario,
    bell_optimal_scenario,
    chsh_quantum,
    chsh_value,
    kcbs_classical_min,
    kcbs_pentagram,
    kcbs_value,
    lhv_chsh_max,
)
from .lhv import (
    CorrelationTable,
    LhvModel,
    SettingSpace,
    brans_construct,
    measurement_independent,
    predict,
)
from .mdsearch import (
    SearchOutcome,
    max_chsh_under_budget,
    min_cmd_for_chsh,
    tradeoff_curve,
)
from .teleport import outcome_counts, verify_no_setting_choice
