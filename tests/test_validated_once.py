"""Inputs are checked once, where they enter; derived values skip the re-check.

Counters pin one check per input.  A CHSH file, sound or defective, runs
``ChshScenario``'s check of its four observables once, as one stack, through
one call of ``_hermitian_parts``, the one hermiticity check; evaluating it
builds no checked ``CorrelationTable`` and checks no operator again.  A KCBS
file runs ``KcbsScenario``'s check once, and evaluating it runs no
hermiticity check: the scenario's orthogonality bound already settles it.
``predict`` builds no checked ``CorrelationTable``.  A teleport run checks
one state, the sent one, and no operator: its one receiver state, derived in
closed form, gets one squared-norm check.
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
from bellmd import cli, inequalities, lhv
from bellmd.hilbert import StateVector
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


HERMITIAN_PARTS = "bellmd.inequalities._hermitian_parts"


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to each checking entry point of the quantum and table paths."""
    return _counted(monkeypatch, (ChshScenario, "__init__"), (KcbsScenario, "__init__"),
                    (inequalities, "_hermitian_parts"), (CorrelationTable, "__init__"))


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
    assert calls == {"ChshScenario.__init__": 1, "KcbsScenario.__init__": 1,
                     HERMITIAN_PARTS: 1, "CorrelationTable.__init__": 1}
    state_calls.clear()
    StateVector([0.6, 0.8])  # the sent state, the one a teleport run checks
    assert state_calls == {"StateVector.__init__": 1}


def test_a_teleport_run_checks_the_sent_state_once(calls, state_calls, capsys, tmp_path):
    out = tmp_path / "teleport.json"
    code = cli.main(["teleport", "--random", "--seed", "5", "--trials", "1000", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["min_fidelity"] >= 1.0 - 1e-12
    assert not calls  # no operator check, and no other check of the quantum path
    assert state_calls == {"StateVector.__init__": 1}


def test_a_chsh_file_is_checked_once_on_decode(calls):
    table = chsh_quantum(read_chsh_scenario(oracles.asset_path("bell-optimal.json")))
    assert abs(inequalities.chsh_value(table) - 2.0 * np.sqrt(2.0)) <= 1e-12
    assert calls == {"ChshScenario.__init__": 1, HERMITIAN_PARTS: 1}


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
    # a 3x3 matrix fails the shape check, before the hermiticity check runs
    checks = {"ChshScenario.__init__": 1, HERMITIAN_PARTS: 1}
    assert calls == ({"ChshScenario.__init__": 1} if defect == "3x3" else checks)


def test_a_kcbs_file_is_checked_once_and_evaluated_without_a_recheck(calls):
    value = inequalities.kcbs_value(read_kcbs_scenario(oracles.asset_path("kcbs-pentagram.json")))
    assert abs(value - inequalities.KCBS_QUANTUM_OPTIMAL) <= 1e-12
    assert calls == {"KcbsScenario.__init__": 1}


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


# the parameter strategies, built once: a strategy is validated on its first draw
COUNTS, LAMBDAS, COIN = st.integers(1, 3), st.integers(1, 8), st.booleans()
SEED = st.integers(0, 2**64 - 1)


def _half_ones(rng, shape) -> np.ndarray:
    """Uniforms in [0, 1), about half of them replaced by exactly 1."""
    return np.where(rng.random(shape) < 0.5, 1.0, rng.random(shape))


# entry kind -> (rng, shape) -> an array of it; a model's entry family is "uniform" and a drawn
# set of the others, and each entry of its tables takes one kind of its family at random.
# Below 0 and above 1, half of the entries sit at the tolerance itself; an entry above 1 stays
# there only in a response table, since a distribution's rows are scaled to sum to 1.
ENTRIES = {
    "uniform": lambda rng, shape: rng.random(shape),
    "zero": lambda rng, shape: rng.choice([0.0, -0.0], shape),
    "one": lambda rng, shape: np.ones(shape),
    "subnormal": lambda rng, shape: rng.integers(1, 2**52, shape) * 5e-324,
    "below 0": lambda rng, shape: -TOL * _half_ones(rng, shape),
    "above 1": lambda rng, shape: 1.0 + TOL * _half_ones(rng, shape),
}
EDGE_ENTRIES = sorted(ENTRIES.keys() - {"uniform"})
# a family drawn as a bit mask over EDGE_ENTRIES: one draw, which shrinks towards "uniform" alone
FAMILIES = st.integers(0, 2 ** len(EDGE_ENTRIES) - 1).map(
    lambda mask: ("uniform", *(kind for i, kind in enumerate(EDGE_ENTRIES) if mask >> i & 1)))


@functools.lru_cache(maxsize=None)
def _arrays(shape, elements):
    """Float arrays of ``shape``, each entry drawn from ``elements`` on its own, as lists were.

    One strategy object per shape and element strategy: a strategy is validated on its first
    draw, and building it once keeps that out of every example.
    """
    return hnp.arrays(np.float64, shape, elements=elements, fill=st.nothing())


def _entries(rng, shape, family) -> np.ndarray:
    """Entries of ``shape``, each of a kind of ``family`` picked at random."""
    picks = rng.integers(len(family), size=shape)
    return np.choose(picks, [ENTRIES[kind](rng, shape) for kind in family])


def _rows(rng, count: int, width: int, family) -> np.ndarray:
    """Rows whose positive entries sum to 1 up to rounding, and whose other entries clip to 0."""
    raw = _entries(rng, (count, width), family)
    empty = np.flatnonzero(~(raw > 0.0).any(axis=1))  # a row with no positive entry gets one
    raw[empty, rng.integers(width, size=len(empty))] = 1.0 - rng.random(len(empty))  # in (0, 1]
    positive = np.where(raw > 0.0, raw, 0.0).sum(axis=1, keepdims=True)
    # only the positive entries are divided: another entry over a subnormal sum overflows
    return np.divide(raw, positive, out=raw, where=raw > 0.0)


@st.composite
def models(draw):
    """Models from compact parameters: shapes, entry family and seed; the seed fills the tables."""
    n_a, n_b, lam = draw(COUNTS), draw(COUNTS), draw(LAMBDAS)
    family, with_marginal = draw(FAMILIES), draw(COIN)
    rng = np.random.default_rng(draw(SEED))
    marginal = _rows(rng, 1, n_a * n_b, family)[0] if with_marginal else None
    lgs = _rows(rng, n_a * n_b, lam, family)
    responses = [_entries(rng, (n, lam), family) for n in (n_a, n_b)]
    return LhvModel(SettingSpace(n_a, n_b, marginal), lgs, *responses)


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


SIGN = st.sampled_from([-1.0, 1.0])
# edge kind -> the side of 1 each row's sum lies on: all below, all above, or either, row by row
EDGES = {"below": lambda rng, k: -1.0, "above": lambda rng, k: 1.0,
         "either": lambda rng, k: rng.choice([-1.0, 1.0], k)}
EDGE_KINDS = st.sampled_from(sorted(EDGES))


def _at_the_edge(rng, rows: np.ndarray, edge: str) -> np.ndarray:
    """Rows each scaled by 1 +- 0.9 to 1 times the entry row-sum bound, on the sides ``edge``
    picks."""
    factors = rng.uniform(0.9, 1.0, len(rows)) * lhv._ROW_ATOL
    return rows * (1.0 + EDGES[edge](rng, len(rows)) * factors)[:, None]


@st.composite
def edge_models(draw):
    """Models whose rows, and often the marginal, sum to 1 as far off as the bound allows.

    Measurement-independent rows, and a single hidden value, are drawn often:
    there the excess mass alone moves cmd's mutual information below zero.
    """
    n_a, n_b, lam = draw(COUNTS), draw(COUNTS), draw(LAMBDAS)
    family, edge = draw(FAMILIES), draw(EDGE_KINDS)
    rng = np.random.default_rng(draw(SEED))
    marginal = (_at_the_edge(rng, _rows(rng, 1, n_a * n_b, family), edge)[0]
                if draw(COIN) else None)
    rows = _rows(rng, 1 if draw(COIN) else n_a * n_b, lam, family)
    lgs = _at_the_edge(rng, np.repeat(rows, n_a * n_b // len(rows), axis=0), edge)
    responses = [_entries(rng, (n, lam), family) for n in (n_a, n_b)]
    try:
        return LhvModel(SettingSpace(n_a, n_b, marginal), lgs, *responses)
    except InputError:  # rounding took a row past the bound
        hypothesis.reject()


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(model=edge_models())
def test_every_model_at_the_row_sum_edge_predicts_and_scores(model):
    assert np.max(np.abs(predict(model).joint.sum(axis=(2, 3)) - 1.0)) <= TOL
    assert cmd(model).raw_bits == _checked_bits(model) >= 0.0


# entries up to 1/3 with every mantissa bit drawn, where summing in another order rounds apart
THIRDS = st.integers(0, 2**52).map(lambda k: k / 3.0 / 2**52)


@st.composite
def joint_rows(draw):
    """One (a, b) row of four outcome probabilities: raw, normalized with zeros, or at the gate.

    A gate row's first three entries are drawn, and its last is set so the row sums, up to
    rounding, to 1 +- ``ARITHMETIC`` moved by up to 3 of the sum's ulps either way.
    """
    kind = draw(st.sampled_from(["raw", "normalized", "gate", "gate"]))
    if kind == "raw":
        return draw(_arrays(4, st.floats(0.0, 1.0)))
    if kind == "normalized":  # often with entries of 0.0 or -0.0
        row = draw(_arrays(4, st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0]))))
        hypothesis.assume(row.sum() > 0.0)
        return row / row.sum()
    head = draw(_arrays(3, THIRDS))
    target = 1.0 + draw(SIGN) * ARITHMETIC
    for _ in range(draw(st.integers(0, 3))):
        target = np.nextafter(target, draw(st.sampled_from([-np.inf, np.inf])))
    return np.append(head, target - (head[0] + head[1] + head[2]))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(shape=st.tuples(st.integers(1, 3), st.integers(1, 3)), data=st.data())
def test_derived_tables_match_the_numpy_form_bit_for_bit(shape, data):
    # _derived sums and differences each row's four Python floats; the oracle is numpy's form
    rows = data.draw(st.lists(joint_rows(), min_size=shape[0] * shape[1],
                              max_size=shape[0] * shape[1]))
    joint = np.array(rows).reshape(*shape, 2, 2)
    expected, message = oracles.correlation_table_numpy(joint)
    if message is not None:
        with pytest.raises(InputError) as raised:
            CorrelationTable._derived(joint.copy())
        assert str(raised.value) == message
        return
    table = CorrelationTable._derived(joint.copy())
    assert table.joint.tobytes() == joint.tobytes()
    assert table.correlators.tobytes() == expected.tobytes()
    assert not table.correlators.flags.writeable and not table.correlators.base.flags.writeable
    if (joint >= 0.0).all() and not np.signbit(joint).any():  # nothing for the check to clip
        assert CorrelationTable(joint).correlators.tobytes() == expected.tobytes()


def test_rows_at_the_sum_gate_take_the_numpy_verdict(rng):
    # 20,000 one-row tables summing to within 3 ulps of 1 +- ARITHMETIC: in hundreds of
    # them, another order of the four additions lands on the other side of the gate
    heads = rng.random((20000, 3)) / 3.0
    targets = 1.0 + rng.choice([-ARITHMETIC, ARITHMETIC], 20000)
    for _ in range(3):
        moved = rng.random(20000) < 0.5
        targets[moved] = np.nextafter(targets[moved], rng.choice([-np.inf, np.inf], moved.sum()))
    lasts = targets - ((heads[:, 0] + heads[:, 1]) + heads[:, 2])
    verdicts = collections.Counter()
    for row in np.column_stack([heads, lasts]):
        joint = row.reshape(1, 1, 2, 2)
        expected, message = oracles.correlation_table_numpy(joint)
        try:
            got = CorrelationTable._derived(joint.copy()).correlators.tobytes(), None
        except InputError as exc:
            got = None, str(exc)
        assert got == (None if expected is None else expected.tobytes(), message)
        verdicts[message is None] += 1
    assert min(verdicts.values()) > 5000
