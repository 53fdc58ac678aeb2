"""Inputs are checked once, where they enter; derived values skip the re-check.

Counters pin one check per input.  A CHSH file, sound or defective, runs
``ChshScenario``'s check of its four observables once, as one stack, and
builds no ``OperatorMatrix``; evaluating it builds no checked
``CorrelationTable`` and never calls ``expectation``, the checked
evaluator.  A KCBS file runs ``KcbsScenario``'s check once, and evaluating
it never calls ``expectation``: the scenario's orthogonality bound already
settles the hermiticity that an ``OperatorMatrix`` would check.  ``predict``
builds no checked ``CorrelationTable``.
A teleport run checks one state, the sent one, and builds no
``OperatorMatrix``: its four receiver states are one stack with one norm check.
A model, sound or defective, runs ``LhvModel``'s one-pass check of its three
tables once, and never the per-field checks, and ``cmd`` scores the model's
weights without a distribution check of its own.  A change that puts a second
check back on those paths fails here.  The property tests below show that what these paths no
longer check still holds: on models whose rows sum to 1 up to rounding, or
as far from 1 as the entry bound allows, with entries down to the tolerance
below 0 and responses up to it outside [0, 1], every model that constructs
passes ``predict`` and ``cmd``, and its table is the one the checking
constructor would build.
"""

import collections
import functools
import json

import numpy as np
import pytest

import oracles
from bellmd import cli, hilbert, inequalities, lhv, teleport
from bellmd.hilbert import OperatorMatrix, StateVector
from bellmd.errors import InputError
from bellmd.infotheory import cmd
from bellmd.inequalities import ChshScenario, KcbsScenario, bell_optimal_scenario, chsh_quantum
from bellmd.lhv import CorrelationTable, LhvModel, SettingSpace, predict
from bellmd.serialize import read_chsh_scenario, read_kcbs_scenario, read_model
from bellmd.tolerances import ARITHMETIC

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")

TOL = ARITHMETIC


def _counted(monkeypatch, *targets) -> collections.Counter:
    """Counts of calls to each (owner, name) target, keyed 'owner.name'."""
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in targets:
        count(owner, name)
    return counts


def _checked_bits(model) -> float:
    """The model's score by the checked reference: its joint, checked, then scored."""
    return oracles.checked_mutual_information(oracles.setting_lambda_joint(model))


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to each checking entry point of the quantum and table paths."""
    return _counted(monkeypatch, (ChshScenario, "__init__"), (KcbsScenario, "__init__"),
                    (OperatorMatrix, "__init__"), (CorrelationTable, "__init__"),
                    (hilbert, "expectation"))


@pytest.fixture
def state_calls(monkeypatch):
    """Counts of calls to the state check."""
    return _counted(monkeypatch, (StateVector, "__init__"))


@pytest.fixture
def score_calls(monkeypatch):
    """Counts of calls to the model check and the per-field row check."""
    return _counted(monkeypatch, (lhv, "_model_tables"), (lhv, "_distribution_rows"))


def test_the_counters_see_the_checked_paths(calls, state_calls):
    bell_optimal_scenario()  # the four observables are checked once, by the scenario
    inequalities.kcbs_pentagram()
    CorrelationTable.from_correlators(np.zeros((2, 2)))
    qubit = hilbert.StateVector([1.0, 0.0])
    hilbert.expectation(OperatorMatrix(oracles.PAULI_Z), qubit)  # one OperatorMatrix, one call
    assert calls == {"ChshScenario.__init__": 1, "KcbsScenario.__init__": 1,
                     "OperatorMatrix.__init__": 1, "CorrelationTable.__init__": 1,
                     "bellmd.hilbert.expectation": 1}
    state_calls.clear()
    teleport.TeleportInput(0.6, 0.8).state()  # the sent state, the one a teleport run checks
    assert state_calls == {"StateVector.__init__": 1}


def test_a_teleport_run_checks_the_sent_state_once(calls, state_calls, capsys, tmp_path):
    out = tmp_path / "teleport.json"
    code = cli.main(["teleport", "--random", "--seed", "5", "--trials", "1000", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["min_fidelity"] >= 1.0 - 1e-12
    assert not calls  # no OperatorMatrix, and no other check of the quantum path
    assert state_calls == {"StateVector.__init__": 1}


def test_a_chsh_file_is_checked_once_on_decode(calls):
    table = chsh_quantum(read_chsh_scenario(oracles.asset_path("bell-optimal.json")))
    assert abs(inequalities.chsh_value(table) - 2.0 * np.sqrt(2.0)) <= 1e-12
    assert calls == {"ChshScenario.__init__": 1}


# slot -> a matrix document that decodes but fails one of ChshScenario's checks
CHSH_DEFECTS = {
    "nan": ("alice", 1, [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]),
    "inf": ("bob", 0, [[[1.0, 0.0], [0.0, float("inf")]], [[0.0, 0.0], [-1.0, 0.0]]]),
    "non-hermitian": ("bob", 1, [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]),
    "3x3": ("alice", 0, [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]),
    "not squaring to 1": ("alice", 0, [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
}


@pytest.mark.parametrize("defect", CHSH_DEFECTS)
def test_a_defective_chsh_file_is_checked_once(calls, tmp_path, defect):
    party, k, matrix = CHSH_DEFECTS[defect]
    doc = json.loads(oracles.asset_path("bell-optimal.json").read_text())
    doc[f"{party}_observables"][k] = matrix
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    calls.clear()
    with pytest.raises(InputError):
        read_chsh_scenario(path)
    assert calls == {"ChshScenario.__init__": 1}


def test_a_kcbs_file_is_checked_once_and_evaluated_without_a_recheck(calls):
    value = inequalities.kcbs_value(read_kcbs_scenario(oracles.asset_path("kcbs-pentagram.json")))
    assert abs(value - inequalities.KCBS_QUANTUM_OPTIMAL) <= 1e-12
    assert calls == {"KcbsScenario.__init__": 1}
    # the counter patches hilbert's name; inequalities holds one more, for the benchmark tracer
    assert "expectation" not in inequalities.kcbs_value.__code__.co_names


def test_predict_does_not_recheck_its_table(calls):
    model = read_model(oracles.asset_path("brans.json"))
    predict(model)
    assert not calls


def test_the_score_counters_see_the_checked_paths(score_calls):
    brans = read_model(oracles.asset_path("brans.json"))
    score_calls.clear()
    SettingSpace(marginal=[0.25] * 4)  # the marginal's row check
    _checked_bits(brans)  # the joint's row check
    assert score_calls == {"bellmd.lhv._distribution_rows": 2}


def _brans_tables() -> dict:
    brans = read_model(oracles.asset_path("brans.json"))
    return {"setting_space": brans.setting_space,
            "lambda_given_settings": brans.lambda_given_settings.tolist(),
            "alice_response": brans.alice_response.tolist(),
            "bob_response": brans.bob_response.tolist()}


# field -> a table of brans.json's shape with one defect, or of the wrong shape
MODEL_DEFECTS = {
    "lambda_given_settings": lambda t: [t[0][:1] + [float("nan")] + t[0][2:]] + t[1:],
    "alice_response": lambda t: [[2.0] + t[0][1:], t[1]],
    "bob_response": lambda t: [t[0]],
}


@pytest.mark.parametrize("field", MODEL_DEFECTS)
def test_a_defective_model_is_checked_once(score_calls, field):
    tables = _brans_tables()
    tables[field] = MODEL_DEFECTS[field](tables[field])
    score_calls.clear()
    with pytest.raises(InputError, match=field):
        LhvModel(**tables)
    assert score_calls == {"bellmd.lhv._model_tables": 1}


def test_a_model_is_checked_in_one_pass_and_scored_without_a_recheck(score_calls):
    tables = _brans_tables()
    score_calls.clear()
    model = LhvModel(**tables)
    assert score_calls == {"bellmd.lhv._model_tables": 1}
    report = cmd(model)
    assert score_calls == {"bellmd.lhv._model_tables": 1}
    assert report.raw_bits == _checked_bits(model) == 2.0


ENTRY = st.one_of(st.floats(0.0, 1.0), st.floats(-TOL, 0.0))
RESPONSE = st.one_of(st.floats(0.0, 1.0), st.floats(-TOL, 0.0), st.floats(1.0, 1.0 + TOL))


@functools.lru_cache(maxsize=None)
def _arrays(shape, elements):
    """Float arrays of ``shape``, each entry drawn from ``elements`` on its own, as lists were.

    One strategy object per shape and element strategy: a strategy is validated on its first
    draw, and building it once keeps that out of every example.
    """
    return hnp.arrays(np.float64, shape, elements=elements, fill=st.nothing())


def _rows(draw, count: int, width: int) -> np.ndarray:
    """Rows whose positive entries sum to 1 up to rounding, and whose other entries clip to 0."""
    raw = draw(_arrays((count, width), ENTRY))
    positive = np.where(raw > 0.0, raw, 0.0).sum(axis=1, keepdims=True)
    hypothesis.assume(np.all(positive > 0.0))
    # only the positive entries are divided: another entry over a subnormal sum overflows
    return np.divide(raw, positive, out=raw, where=raw > 0.0)


@st.composite
def models(draw):
    n_a, n_b, lam = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    marginal = _rows(draw, 1, n_a * n_b)[0] if draw(st.booleans()) else None
    responses = [draw(_arrays((n, lam), RESPONSE)) for n in (n_a, n_b)]
    return LhvModel(SettingSpace(n_a, n_b, marginal), _rows(draw, n_a * n_b, lam), *responses)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(model=models())
def test_every_model_that_constructs_predicts_a_checked_table(model):
    table = predict(model)
    assert cmd(model).raw_bits == _checked_bits(model) >= 0.0
    revalidated = CorrelationTable(table.joint)
    assert revalidated.joint.tobytes() == table.joint.tobytes()
    assert revalidated.correlators.tobytes() == table.correlators.tobytes()
    assert not table.joint.flags.writeable and not table.correlators.flags.writeable
    assert np.all(np.isfinite(table.joint)) and np.all(table.joint >= 0.0)
    assert np.max(np.abs(table.joint.sum(axis=(2, 3)) - 1.0)) <= TOL


EDGE = st.floats(0.9 * lhv._ROW_ATOL, lhv._ROW_ATOL)
SIGN = st.sampled_from([-1.0, 1.0])


def _at_the_edge(draw, rows: np.ndarray) -> np.ndarray:
    """Rows each scaled by 1 +- 0.9 to 1 times the entry row-sum bound."""
    signs = draw(_arrays(len(rows), SIGN))
    factors = draw(_arrays(len(rows), EDGE))
    return rows * (1.0 + signs * factors)[:, None]


@st.composite
def edge_models(draw):
    """Models whose rows, and often the marginal, sum to 1 as far off as the bound allows.

    Measurement-independent rows, and a single hidden value, are drawn often:
    there the excess mass alone moves cmd's mutual information below zero.
    """
    n_a, n_b, lam = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    marginal = _at_the_edge(draw, _rows(draw, 1, n_a * n_b))[0] if draw(st.booleans()) else None
    rows = _rows(draw, 1, lam) if draw(st.booleans()) else _rows(draw, n_a * n_b, lam)
    lgs = _at_the_edge(draw, np.repeat(rows, n_a * n_b // len(rows), axis=0))
    responses = [draw(_arrays((n, lam), RESPONSE)) for n in (n_a, n_b)]
    try:
        return LhvModel(SettingSpace(n_a, n_b, marginal), lgs, *responses)
    except InputError:  # rounding took a row past the bound
        hypothesis.reject()


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(model=edge_models())
def test_every_model_at_the_row_sum_edge_predicts_and_scores(model):
    assert np.max(np.abs(predict(model).joint.sum(axis=(2, 3)) - 1.0)) <= TOL
    assert cmd(model).raw_bits == _checked_bits(model) >= 0.0
