import json
import math
from pathlib import Path

import numpy as np
import pytest

from bellmd.errors import InputError
from bellmd.inequalities import ChshScenario, bell_optimal_scenario, kcbs_pentagram
from bellmd.lhv import CorrelationTable, brans_construct
from bellmd.serialize import (
    chsh_scenario_from_doc,
    chsh_scenario_to_doc,
    dumps_json,
    format_float,
    read_chsh_scenario,
    read_kcbs_scenario,
    read_model,
    state_from_doc,
    write_chsh_scenario,
    write_curve_csv,
    write_kcbs_scenario,
    write_model,
)
from oracles import operator_from_doc, perturbed_observable

PINNED_DOC_TEXT = (
    '{\n'
    '  "nested": {\n'
    '    "list": [\n'
    '      1,\n'
    '      2.5,\n'
    '      [\n'
    '        true,\n'
    '        null\n'
    '      ]\n'
    '    ],\n'
    '    "tuple": [\n'
    '      3,\n'
    '      "x"\n'
    '    ],\n'
    '    "empty_dict": {},\n'
    '    "empty_list": []\n'
    '  },\n'
    '  "numpy": {\n'
    '    "f64": 0.10000000000000001,\n'
    '    "i64": -7,\n'
    '    "flag": false,\n'
    '    "array": [\n'
    '      [\n'
    '        0.5,\n'
    '        -0\n'
    '      ],\n'
    '      [\n'
    '        1e-300,\n'
    '        0.66666666666666663\n'
    '      ]\n'
    '    ]\n'
    '  },\n'
    '  "path": "runs/out.json",\n'
    '  "none": null,\n'
    '  "text": "Bell \\u2013 \\u03bb caf\\u00e9 \\"q\\"\\n"\n'
    '}'
)


class TestFloatFormat:
    def test_seventeen_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert format_float(0.6) == "0.59999999999999998"

    def test_round_trip_is_exact(self, rng):
        for _ in range(500):
            x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            assert float(format_float(x)) == x

    def test_json_floats_round_trip(self, rng):
        values = [float(v) for v in rng.normal(size=50)]
        recovered = json.loads(dumps_json({"values": values}))["values"]
        assert recovered == values

    def test_json_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan, np.float64("nan")):
            with pytest.raises(ValueError):
                dumps_json({"x": [bad]})

    def test_pinned_bytes(self):
        # expected text written by the json.JSONEncoder-based encoder this emitter replaced
        doc = {
            "nested": {"list": [1, 2.5, [True, None]], "tuple": (3, "x"),
                       "empty_dict": {}, "empty_list": []},
            "numpy": {"f64": np.float64(0.1), "i64": np.int64(-7), "flag": np.bool_(False),
                      "array": np.array([[0.5, -0.0], [1e-300, 2.0 / 3.0]])},
            "path": Path("runs") / "out.json",
            "none": None,
            "text": "Bell \u2013 \u03bb caf\u00e9 \"q\"\n",
        }
        assert dumps_json(doc) == PINNED_DOC_TEXT

    def test_unsupported_values_rejected(self):
        with pytest.raises(TypeError):
            dumps_json({"z": 1j})
        with pytest.raises(TypeError):
            dumps_json({1: "non-string key"})


class TestModelRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        target = CorrelationTable.from_correlators(rng.uniform(-1, 1, size=(2, 2)))
        model = brans_construct(target)
        path = tmp_path / "model.json"
        write_model(path, model)
        loaded = read_model(path)
        assert np.array_equal(loaded.lambda_given_settings, model.lambda_given_settings)
        assert np.array_equal(loaded.alice_response, model.alice_response)
        assert np.array_equal(loaded.bob_response, model.bob_response)
        assert np.array_equal(loaded.setting_space.marginal, model.setting_space.marginal)

    def test_document_fields(self, tmp_path):
        model = brans_construct(CorrelationTable.from_correlators(np.zeros((2, 2))))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "lambda_count", "settings", "lambda_given_settings",
            "alice_response", "bob_response",
        }
        assert doc["lambda_count"] == 16
        assert set(doc["settings"]) == {"alice", "bob", "marginal"}

    def test_missing_field_named_in_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lambda_count": 2}')
        with pytest.raises(InputError, match="settings"):
            read_model(path)

    def test_shape_mismatch_reported(self, tmp_path):
        model = brans_construct(CorrelationTable.from_correlators(np.zeros((2, 2))))
        path = tmp_path / "model.json"
        write_model(path, model)
        doc = json.loads(path.read_text())
        doc["lambda_count"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="lambda_count"):
            read_model(path)


class TestScenarioRoundTrips:
    def test_chsh_scenario(self, tmp_path):
        scenario = bell_optimal_scenario()
        path = tmp_path / "scenario.json"
        write_chsh_scenario(path, scenario)
        loaded = read_chsh_scenario(path)
        assert loaded.observables.tobytes() == scenario.observables.tobytes()
        assert np.array_equal(scenario.state.amplitudes, loaded.state.amplitudes)

    def test_chsh_missing_state_named(self, tmp_path):
        scenario = bell_optimal_scenario()
        path = tmp_path / "scenario.json"
        write_chsh_scenario(path, scenario)
        doc = json.loads(path.read_text())
        del doc["state"]
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="state"):
            read_chsh_scenario(path)

    def test_kcbs_scenario(self, tmp_path):
        scenario = kcbs_pentagram()
        path = tmp_path / "kcbs.json"
        write_kcbs_scenario(path, scenario)
        loaded = read_kcbs_scenario(path)
        assert np.array_equal(scenario.vectors, loaded.vectors)
        assert np.array_equal(scenario.state.amplitudes, loaded.state.amplitudes)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(InputError, match="not valid JSON"):
            read_model(path)


def _operators_one_by_one(doc: dict) -> list:
    """Each observable of a CHSH document as an OperatorMatrix, decoded and checked alone."""
    return [operator_from_doc(m, f"scenario.{party}_observables[{k}]")
            for party in ("alice", "bob") for k, m in enumerate(doc[f"{party}_observables"])]


def _observables_one_by_one(doc: dict) -> ChshScenario:
    """The CHSH decode that builds and checks each observable on its own."""
    ops = _operators_one_by_one(doc)
    return ChshScenario([op.entries for op in ops], state_from_doc(doc["state"], "scenario.state"))


def _pairs(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


# kind -> a matrix document with that defect
OBSERVABLE_DEFECTS = {
    "non-numeric pair": [[["x", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "null entry": [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "ragged rows": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    "triple instead of pair": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                               [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]],
    "flat list of pairs": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
    "not a list": "sigma_z",
    "empty": [],
    "2x3": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]],
    "3x3": _pairs(np.diag([1.0, -1.0, 1.0])),
    "nan": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    "inf": [[[1.0, 0.0], [0.0, float("inf")]], [[0.0, 0.0], [-1.0, 0.0]]],
    "-inf imaginary": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, -float("inf")]]],
    "non-hermitian": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
    "not squaring to 1": _pairs(0.5 * np.eye(2)),
}
SLOTS = {"alice 0": [("alice", 0)], "alice 1": [("alice", 1)], "bob 0": [("bob", 0)],
         "bob 1": [("bob", 1)],
         "every slot": [(party, k) for party in ("alice", "bob") for k in (0, 1)]}
# two defects in two slots: the decode checks each matrix's structure as it converts, then
# ChshScenario runs each check over all four observables before the next, so the check
# that comes first raises, for whichever slot fails it first.  The one-by-one reference
# checks slot by slot, so these are pinned by their messages.
TWO_DEFECTS = {
    "nan bob 0, non-hermitian alice 1": ({("bob", 0): "nan", ("alice", 1): "non-hermitian"},
                                         "operator entries must be finite"),
    "nan bob 0, 3x3 alice 1": ({("bob", 0): "nan", ("alice", 1): "3x3"},
                               "alice observable 1 must act on a qubit"),
    "square alice 0, non-hermitian bob 1": (
        {("alice", 0): "not squaring to 1", ("bob", 1): "non-hermitian"},
        "operator must be hermitian: max |A - A^dagger| = 0.5"),
    "nan alice 0, ragged bob 1": ({("alice", 0): "nan", ("bob", 1): "ragged rows"},
                                  "scenario.bob_observables[1]: expected numeric [re, im] pairs"),
}


@pytest.mark.parametrize("slot", SLOTS)
@pytest.mark.parametrize("defect", OBSERVABLE_DEFECTS)
def test_stacked_observable_decode_raises_as_one_by_one(slot, defect):
    doc = json.loads(json.dumps(chsh_scenario_to_doc(bell_optimal_scenario())))
    for party, k in SLOTS[slot]:
        doc[f"{party}_observables"][k] = OBSERVABLE_DEFECTS[defect]
    with pytest.raises(Exception) as wanted:
        _observables_one_by_one(doc)
    with pytest.raises(Exception) as got:
        chsh_scenario_from_doc(doc)
    assert (type(got.value), str(got.value)) == (type(wanted.value), str(wanted.value))


@pytest.mark.parametrize("slots,message", TWO_DEFECTS.values(), ids=TWO_DEFECTS)
def test_two_observable_defects_raise_in_check_order(slots, message):
    doc = json.loads(json.dumps(chsh_scenario_to_doc(bell_optimal_scenario())))
    for (party, k), defect in slots.items():
        doc[f"{party}_observables"][k] = OBSERVABLE_DEFECTS[defect]
    with pytest.raises(InputError) as got:
        chsh_scenario_from_doc(doc)
    assert str(got.value) == message


def test_stacked_observable_decode_keeps_the_bits(rng):
    # observables up to 1e-12 from hermitian, which the decode symmetrizes
    for _ in range(200):
        doc = json.loads(json.dumps(chsh_scenario_to_doc(bell_optimal_scenario())))
        for party in ("alice", "bob"):
            directions = rng.normal(size=(2, 3))
            doc[f"{party}_observables"] = [_pairs(perturbed_observable(
                n / np.linalg.norm(n), 0.0, 0.0, rng.uniform(-1e-12, 1e-12)))
                for n in directions]
        stacked = chsh_scenario_from_doc(doc).observables
        wanted = np.array([op.entries for op in _operators_one_by_one(doc)])
        assert stacked.tobytes() == wanted.tobytes()
        assert not stacked.flags.writeable


def test_curve_csv_header_and_precision(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, [(0.0, 2.0, "m0.json"), (1.0 / 3.0, 4.0, "m1.json")])
    lines = path.read_text().splitlines()
    assert lines[0] == "budget_bits,best_chsh,model_file"
    assert lines[2].startswith("0.33333333333333331,")
