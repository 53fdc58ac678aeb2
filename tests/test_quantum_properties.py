"""Property tests of the batched CHSH kernel on random Bloch observables and states.

Every drawn scenario must give a proper joint table (nonnegative, each
setting pair summing to 1), correlators equal to the signed joint sums,
and a CHSH value within the Tsirelson bound.  Observables perturbed up to
the construction gates (hermiticity and squaring to 1), on states whose
squared norm is perturbed across its gate, must evaluate whenever the
scenario constructs.  ``chsh_quantum`` skips the hermiticity scan of its
products and the re-validation of its table; every drawn scenario must
give the same bits as the path that runs both checks.  Examples are
derandomized so the suite stays deterministic.
"""

import math
from unittest import mock

import numpy as np
import pytest

from bellmd import inequalities
from bellmd.errors import InputError
from bellmd.hilbert import StateVector
from bellmd.inequalities import ChshScenario, chsh_quantum, chsh_value
from bellmd.lhv import CorrelationTable
from bellmd.tolerances import ARITHMETIC
from oracles import (bloch_observable, checked_expectations, perturbed_observable,
                     top_eigenvector)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TSIRELSON = 2.0 * math.sqrt(2.0)
UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def _unit(values) -> np.ndarray | None:
    v = np.asarray(values)
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else None


def assert_matches_the_checked_path(scenario: ChshScenario) -> CorrelationTable:
    table = chsh_quantum(scenario)
    with mock.patch.object(inequalities, "expectation", checked_expectations), \
            mock.patch.object(CorrelationTable, "_derived", staticmethod(CorrelationTable)):
        checked = chsh_quantum(scenario)
    revalidated = CorrelationTable(table.joint)
    for other in (checked, revalidated):
        assert other.joint.tobytes() == table.joint.tobytes()
        assert other.correlators.tobytes() == table.correlators.tobytes()
    assert not table.joint.flags.writeable and not table.correlators.flags.writeable
    assert np.all(np.isfinite(table.joint)) and np.all(table.joint >= 0.0)
    sums = table.joint.sum(axis=(2, 3))
    assert np.max(np.abs(sums - 1.0)) <= ARITHMETIC
    return table


BLOCH = st.lists(UNIT, min_size=3, max_size=3).map(_unit).filter(lambda v: v is not None)
STATE = (st.lists(UNIT, min_size=8, max_size=8)
         .map(lambda v: _unit(np.asarray(v[:4]) + 1j * np.asarray(v[4:])))
         .filter(lambda v: v is not None))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(directions=st.lists(BLOCH, min_size=4, max_size=4), state=STATE)
def test_joint_table_is_a_distribution_consistent_with_correlators(directions, state):
    ops = [bloch_observable(d) for d in directions]
    table = assert_matches_the_checked_path(ChshScenario(ops, StateVector(state)))
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    implied = np.einsum("abxy,xy->ab", table.joint, signs)
    assert np.max(np.abs(implied - table.correlators)) <= 1e-12
    assert chsh_value(table) <= TSIRELSON + 1e-9


# max |A^2 - 1| is about 2 |stretch| + 2 |shift|, against a gate of 2.5e-13;
# max |A - A^dagger| = |skew|, against a gate of 1e-12
STRETCH = st.floats(-1e-13, 1e-13, allow_nan=False)
SKEW = st.floats(-1.1e-12, 1.1e-12, allow_nan=False)
PERTURBATION = st.tuples(STRETCH, STRETCH, SKEW)
# squared norm of the state, against StateVector's gate of 1e-9
NORM_OFFSET = st.floats(-1.1e-9, 1.1e-9, allow_nan=False)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(directions=st.lists(BLOCH, min_size=4, max_size=4),
                  perturbations=st.lists(PERTURBATION, min_size=4, max_size=4),
                  state=STATE, pair=st.none() | st.tuples(st.sampled_from([0, 1]),
                                                          st.sampled_from([2, 3])),
                  norm_offset=NORM_OFFSET)
def test_scenarios_at_the_construction_gates_evaluate(directions, perturbations, state, pair,
                                                      norm_offset):
    raw = [perturbed_observable(d, *p) for d, p in zip(directions, perturbations)]
    if pair is not None:  # the state where |<A (x) B>| and the clamped tables peak
        state = top_eigenvector(np.kron(raw[pair[0]], raw[pair[1]]))
    state = state * math.sqrt(1.0 + norm_offset)
    try:
        scenario = ChshScenario(raw, StateVector(state))
    except InputError:
        return
    assert chsh_value(assert_matches_the_checked_path(scenario)) <= TSIRELSON + 1e-9
