"""Property test of the batched CHSH kernel on random Bloch observables and states.

Every drawn scenario must give a proper joint table (nonnegative, each
setting pair summing to 1), correlators equal to the signed joint sums,
and a CHSH value within the Tsirelson bound.  Examples are derandomized
so the suite stays deterministic.
"""

import math

import numpy as np
import pytest

from bellmd.hilbert import OperatorMatrix, StateVector
from bellmd.inequalities import ChshScenario, chsh_quantum, chsh_value
from oracles import bloch_observable

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TSIRELSON = 2.0 * math.sqrt(2.0)
UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def _unit(values) -> np.ndarray | None:
    v = np.asarray(values)
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else None


BLOCH = st.lists(UNIT, min_size=3, max_size=3).map(_unit).filter(lambda v: v is not None)
STATE = (st.lists(UNIT, min_size=8, max_size=8)
         .map(lambda v: _unit(np.asarray(v[:4]) + 1j * np.asarray(v[4:])))
         .filter(lambda v: v is not None))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(directions=st.lists(BLOCH, min_size=4, max_size=4), state=STATE)
def test_joint_table_is_a_distribution_consistent_with_correlators(directions, state):
    ops = [OperatorMatrix(bloch_observable(d), hermitian=True) for d in directions]
    table = chsh_quantum(ChshScenario((ops[0], ops[1]), (ops[2], ops[3]), StateVector(state)))
    assert np.all(table.joint >= 0.0)
    assert np.max(np.abs(table.joint.sum(axis=(2, 3)) - 1.0)) <= 1e-12
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    implied = np.einsum("abxy,xy->ab", table.joint, signs)
    assert np.max(np.abs(implied - table.correlators)) <= 1e-12
    assert chsh_value(table) <= TSIRELSON + 1e-9
