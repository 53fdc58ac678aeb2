"""Inputs are validated once, where they enter; derived values skip the re-check.

Counters pin the hot paths: decoding a CHSH file and evaluating it builds
no ``OperatorMatrix`` and no ``CorrelationTable`` through their checking
constructors and never calls ``expectations``, and ``predict`` builds no
checked ``CorrelationTable``.  A change that puts a re-check back on those
paths fails here.  The property test below shows that what ``predict``
no longer checks still holds: on models whose rows sum to 1 up to rounding,
with entries down to the tolerance below 0 and responses up to it outside
[0, 1], every model that constructs passes ``predict`` and ``cmd``, and
its table is the one the checking constructor would build.
"""

import collections

import numpy as np
import pytest

from bellmd import hilbert, inequalities
from bellmd.cli import asset_path
from bellmd.hilbert import OperatorMatrix, pauli_z
from bellmd.infotheory import cmd
from bellmd.inequalities import chsh_quantum
from bellmd.lhv import CorrelationTable, LhvModel, SettingSpace, predict
from bellmd.serialize import read_chsh_scenario, read_model
from bellmd.tolerances import DEFAULT_TOLERANCES

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TOL = DEFAULT_TOLERANCES.arithmetic


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to each checking entry point, by name."""
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(OperatorMatrix, "__post_init__")
    count(CorrelationTable, "__post_init__")
    count(hilbert, "expectations")
    count(inequalities, "expectations")
    return counts


def test_the_counters_see_the_checked_paths(calls):
    pauli_z()
    CorrelationTable.from_correlators(np.zeros((2, 2)))
    hilbert.expectations(np.eye(2), hilbert.basis_state(2, 0))
    inequalities.kcbs_value(inequalities.kcbs_pentagram())
    assert calls == {"OperatorMatrix.__post_init__": 1, "CorrelationTable.__post_init__": 1,
                     "bellmd.hilbert.expectations": 1, "bellmd.inequalities.expectations": 1}


def test_a_chsh_file_is_checked_once_on_decode(calls):
    table = chsh_quantum(read_chsh_scenario(asset_path("bell-optimal.json")))
    assert abs(inequalities.chsh_value(table) - 2.0 * np.sqrt(2.0)) <= 1e-12
    assert not calls


def test_predict_does_not_recheck_its_table(calls):
    model = read_model(asset_path("brans.json"))
    predict(model)
    assert not calls


ENTRY = st.one_of(st.floats(0.0, 1.0), st.floats(-TOL, 0.0))
RESPONSE = st.one_of(st.floats(0.0, 1.0), st.floats(-TOL, 0.0), st.floats(1.0, 1.0 + TOL))


def _rows(draw, count: int, width: int) -> np.ndarray:
    """Rows whose positive entries sum to 1 up to rounding, and whose other entries clip to 0."""
    raw = np.array(draw(st.lists(st.lists(ENTRY, min_size=width, max_size=width),
                                 min_size=count, max_size=count)))
    positive = np.where(raw > 0.0, raw, 0.0).sum(axis=1, keepdims=True)
    hypothesis.assume(np.all(positive > 0.0))
    return np.where(raw > 0.0, raw / positive, raw)


@st.composite
def models(draw):
    n_a, n_b, lam = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    marginal = _rows(draw, 1, n_a * n_b)[0] if draw(st.booleans()) else None
    responses = [np.array(draw(st.lists(st.lists(RESPONSE, min_size=lam, max_size=lam),
                                        min_size=n, max_size=n))) for n in (n_a, n_b)]
    return LhvModel(SettingSpace(n_a, n_b, marginal), _rows(draw, n_a * n_b, lam), *responses)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(model=models())
def test_every_model_that_constructs_predicts_a_checked_table(model):
    table = predict(model)
    assert cmd(model).raw_bits >= 0.0
    revalidated = CorrelationTable(table.joint)
    assert revalidated.joint.tobytes() == table.joint.tobytes()
    assert revalidated.correlators.tobytes() == table.correlators.tobytes()
    assert not table.joint.flags.writeable and not table.correlators.flags.writeable
    assert np.all(np.isfinite(table.joint)) and np.all(table.joint >= 0.0)
    assert np.max(np.abs(table.joint.sum(axis=(2, 3)) - 1.0)) <= TOL
