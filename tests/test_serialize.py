import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import bellmd.serialize
from bellmd.errors import InputError
from bellmd.inequalities import (
    _OBSERVABLE_NAMES,
    ChshScenario,
    bell_optimal_scenario,
    chsh_quantum,
    chsh_value,
    kcbs_pentagram,
    kcbs_value,
)
from bellmd.lhv import CorrelationTable, brans_construct
from bellmd.serialize import (
    _pairs_to_complex,
    _read_bytes,
    chsh_scenario_from_doc,
    dump_json,
    dumps_json,
    kcbs_scenario_from_doc,
    load_json,
    read_chsh_scenario,
    read_kcbs_scenario,
    read_model,
    state_from_doc,
    write_curve_csv,
    write_model,
)
from children import scenario_document_digests, seeded_scenario_documents
from oracles import asset_path, dumps_json_reference, operator_from_doc, perturbed_observable

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
    '    "f64": 0.1,\n'
    '    "i64": -7,\n'
    '    "flag": false,\n'
    '    "array": [\n'
    '      [\n'
    '        0.5,\n'
    '        -0.0\n'
    '      ],\n'
    '      [\n'
    '        1e-300,\n'
    '        0.6666666666666666\n'
    '      ]\n'
    '    ]\n'
    '  },\n'
    '  "path": "runs/out.json",\n'
    '  "none": null,\n'
    '  "text": "Bell \\u2013 \\u03bb caf\\u00e9 \\"q\\"\\n"\n'
    '}'
)


class TestFloatFormat:
    def test_shortest_round_trip_text(self):
        assert dumps_json(1.0 / 3.0) == "0.3333333333333333"
        assert dumps_json(np.float64(2.8)) == "2.8"
        assert dumps_json([1.0, -0.0, 5e-324]) == "[\n  1.0,\n  -0.0,\n  5e-324\n]"

    def test_round_trip_is_exact(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # subnormals, both zeros and the largest doubles among the draws
        @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True, database=None)
        @hypothesis.given(x=st.floats(allow_nan=False, allow_infinity=False)
                          | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                             sys.float_info.max, -sys.float_info.max]))
        def reads_back_bit_for_bit(x):
            (back,) = json.loads(dumps_json([x]))
            assert float(back).hex() == x.hex()

        reads_back_bit_for_bit()

    def test_json_floats_round_trip(self, rng):
        values = [float(v) for v in rng.normal(size=50)]
        recovered = json.loads(dumps_json({"values": np.array(values)}))["values"]
        assert [v.hex() for v in recovered] == [v.hex() for v in values]

    def test_plain_documents_match_json_dumps(self, rng):
        doc = {"a": [1, 2.5, -0.0, 1.0, None, True, "x"], "b": {}, "c": [],
               "d": {"e": [float(v) for v in rng.normal(size=20) * 1e-200]},
               "f": (3, "t"), "g": 10**30}
        assert dumps_json(doc) == json.dumps(doc, indent=2)

    def test_json_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan, np.float64("nan"), np.float32("inf")):
            with pytest.raises(ValueError):
                dumps_json({"x": [bad]})

    def test_pinned_bytes(self):
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
        for bad in (1j, np.complex128(1j), np.array([1j]), {1, 2}, b"x"):
            with pytest.raises(TypeError):
                dumps_json({"z": bad})


class TestStringQuoting:
    """``dumps_json`` quotes every string, and every key, as ``json.dumps`` does."""

    def test_every_ascii_code_point(self):
        for code in range(128):
            text = chr(code)
            assert dumps_json(text) == json.dumps(text), code
            assert dumps_json({text: 1}) == json.dumps({text: 1}, indent=2), code

    @pytest.mark.parametrize("text", [
        '"', "\\", "\x7f", 'say "q"', "C:\\runs", "a\x7fb", "caf\u00e9", "\u03bb \u2013 \U0001f600",
        "\ud800", "", " ", "0123" * 25_000,
    ])
    def test_escapes_and_non_ascii_text(self, text):
        assert dumps_json(text) == json.dumps(text)
        assert dumps_json([text]) == json.dumps([text], indent=2)

    def test_a_path(self):
        path = Path("runs") / "out \"1\".json"
        assert dumps_json(path) == json.dumps(str(path))

    def test_arbitrary_text(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @hypothesis.given(text=hypothesis.strategies.text())
        def quoted_as_json_dumps_quotes_it(text):
            assert dumps_json(text) == json.dumps(text)
            assert dumps_json({text: text}) == json.dumps({text: text}, indent=2)

        quoted_as_json_dumps_quotes_it()


def _encoded(encode, doc):
    """The text ``encode`` writes for ``doc``, or the type and message of its error."""
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class _Items(list):
    pass


class _Fields(dict):
    pass


class _Count(int):  # json.dumps writes int.__repr__, not this
    def __repr__(self):
        return "count"


class _Ratio(float):  # json.dumps writes float.__repr__, and this in its error message
    def __repr__(self):
        return "ratio"


NON_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"),
              _Ratio("inf")]


class TestReferenceEncoder:
    """``dumps_json`` gives the text and the errors of ``oracles.dumps_json_reference``."""

    def test_documents_match_the_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max])
        # fixed picks where a drawn value would add nothing but draw time
        specials = st.sampled_from([
            10**30, -10**30, True, False, None, np.float64(-0.0), np.float32(0.1), np.int64(-7),
            np.bool_(True), Path("runs") / "out.json", np.array([[0.5, -0.0], [1e-300, 0.25]]),
            np.array([], dtype=float), np.array([1, 2]), np.float64(5e-324), _Count(3),
            _Ratio(0.5), [_Ratio(-0.0), 2.5, _Ratio(1e-300)]])
        scalars = (floats | floats.map(np.float64) | st.integers(-10**30, 10**30) | st.text()
                   | specials | st.lists(floats, min_size=1, max_size=5))  # the one-join path
        keys = st.text() | st.integers(-10**30, 10**30) | floats | st.sampled_from(
            [True, False, None])

        def nested(children):
            items, fields = st.lists(children, max_size=4), st.dictionaries(keys, children,
                                                                            max_size=4)
            return (items | items.map(tuple) | items.map(_Items) | fields
                    | fields.map(_Fields))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(doc=st.recursive(scalars, nested, max_leaves=8))
        def written_as_the_reference_writes_it(doc):
            assert _encoded(dumps_json, doc) == _encoded(dumps_json_reference, doc)

        written_as_the_reference_writes_it()

    def test_subclasses_are_written_as_their_base_types(self):
        doc = _Fields({_Count(5): _Items([_Count(3), _Ratio(0.5), True]), _Ratio(0.25): (),
                       "floats": [_Ratio(-0.0), 2.5, _Ratio(1e-300)], "empty": _Fields()})
        assert dumps_json(doc) == dumps_json_reference(doc)
        assert '"5": [\n    3,\n    0.5,\n    true\n  ],\n  "0.25": []' in dumps_json(doc)

    @pytest.mark.parametrize("bad", NON_FINITE,
                             ids=["nan", "inf", "-inf", "np-nan", "np--inf", "subclass-inf"])
    @pytest.mark.parametrize("place", [0, 1, 3])
    def test_non_finite_floats_raise_the_reference_error(self, bad, place):
        floats = [0.5, -0.0, 1e300]
        floats.insert(place, bad)
        mixed = [1, "x", *floats, None]
        for doc in (floats, mixed, {"x": floats}, [[2.5], floats], {bad: 1}):
            expected = _encoded(dumps_json_reference, doc)
            assert expected[0] is ValueError
            assert _encoded(dumps_json, doc) == expected

    @pytest.mark.parametrize("bad", [{1, 2}, 1j, np.complex128(1j), b"x", {1j: 1}, {(1,): 1},
                                     {Path("p"): 1}, {np.int64(1): 1}, object()],
                             ids=["set", "complex", "np-complex", "bytes", "complex-key",
                                  "tuple-key", "path-key", "np-int-key", "object"])
    def test_unwritable_values_raise_the_reference_error(self, bad):
        for doc in (bad, [1.0, bad], {"a": [2.0], "z": bad}, (bad, math.nan)):
            expected = _encoded(dumps_json_reference, doc)
            assert expected[0] is TypeError
            assert _encoded(dumps_json, doc) == expected


# name -> file bytes whose document, or error, a text-mode read would give
LOAD_CASES = {
    "crlf": b'{\r\n  "a": 1\r\n}\r\n',
    "crlf, then a syntax error": b'{\r\n  "a": 1,\r\n  "b": ]\r\n}',
    "cr, then a syntax error": b'{\r  "a": 1,\r  "b": ]\r}',
    "cr in a string": b'{"a": "x\ry"}',
    "invalid utf-8 past 8 kB": b'{"a": "' + b"x" * 10_000 + b'\xff"}',
    "utf-8 bom": b'\xef\xbb\xbf{"a": 1}',
    "non-ascii": '{"a": "caf\u00e9"}'.encode(),
}


@pytest.mark.parametrize("case", LOAD_CASES)
def test_load_json_reads_as_a_text_mode_read(tmp_path, case):
    path = tmp_path / "doc.json"
    path.write_bytes(LOAD_CASES[case])
    try:
        expected = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        expected = exc
    try:
        got = load_json(path)
    except InputError as exc:
        assert isinstance(expected, Exception), exc
        assert type(exc.__cause__) is type(expected) and str(exc.__cause__) == str(expected)
    else:
        assert got == expected


class _ShortWriteFile(io.FileIO):
    """A file whose write takes at most 7 bytes, as a raw write may."""

    def write(self, data):
        return super().write(data[:7])


def test_a_short_write_is_continued_until_all_bytes_are_out(tmp_path, monkeypatch):
    monkeypatch.setattr(bellmd.serialize, "open",
                        lambda path, mode, buffering: _ShortWriteFile(path, mode), raising=False)
    doc = {"chsh_value": 2.828427124746, "source": "caf\u00e9"}
    dump_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == (dumps_json(doc) + "\n").encode()


@pytest.mark.parametrize("content", [b"", b'{\r\n  "a": 1\r\n}\r\n', b'{"a": 1}',
                                     bytes(range(256)) * 8192],
                         ids=["empty", "crlf", "no final newline", "2 MB"])
@pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
def test_read_bytes_returns_the_bytes_path_read_bytes_returns(tmp_path, content, kind):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert _read_bytes(kind(path)) == path.read_bytes() == content


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


def test_pairs_decode_to_the_bits_of_re_plus_1j_times_im():
    # the real part of re + 1j * im is re + copysign(0, im): -0.0 stays only with a negative im
    pairs = [[-0.0, 0.5], [-0.0, -0.5]]
    values = _pairs_to_complex(pairs, "pairs")
    assert [math.copysign(1.0, z.real) for z in values] == [1.0, -1.0]
    assert values.tobytes() == np.array([re + 1j * im for re, im in pairs]).tobytes()


def _bell_optimal_doc() -> dict:
    return json.loads(asset_path("bell-optimal.json").read_text())


class TestScenarioRoundTrips:
    # the shipped scenario files hold the built-in scenarios at 17 digits
    def test_chsh_scenario(self):
        scenario = bell_optimal_scenario()
        loaded = read_chsh_scenario(asset_path("bell-optimal.json"))
        assert loaded.observables.tobytes() == scenario.observables.tobytes()
        assert np.array_equal(scenario.state.amplitudes, loaded.state.amplitudes)

    def test_chsh_missing_state_named(self, tmp_path):
        doc = _bell_optimal_doc()
        del doc["state"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="state"):
            read_chsh_scenario(path)

    def test_kcbs_scenario(self):
        scenario = kcbs_pentagram()
        loaded = read_kcbs_scenario(asset_path("kcbs-pentagram.json"))
        # bit for bit, as every CPU set-up child builds them (children.CPU_PINS)
        assert scenario.vectors.tobytes() == loaded.vectors.tobytes()
        assert np.array_equal(scenario.state.amplitudes, loaded.state.amplitudes)

    def test_brans_model(self):
        # brans.json is brans_construct of the Bell-optimal scenario's table, bit for bit
        model = brans_construct(chsh_quantum(bell_optimal_scenario()))
        loaded = read_model(asset_path("brans.json"))
        assert (loaded.setting_space.alice_settings, loaded.setting_space.bob_settings) == (2, 2)
        for table in ("lambda_given_settings", "alice_response", "bob_response"):
            assert getattr(loaded, table).tobytes() == getattr(model, table).tobytes(), table
        assert loaded.setting_space.marginal.tobytes() == model.setting_space.marginal.tobytes()

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(InputError, match="not valid JSON"):
            read_model(path)


def _operators_one_by_one(doc: dict) -> list:
    """Each observable of a CHSH document as an OperatorMatrix, decoded and checked alone."""
    slots = [(party, k) for party in ("alice", "bob") for k in (0, 1)]
    return [operator_from_doc(doc[f"{party}_observables"][k],
                              f"scenario.{party}_observables[{k}]", name)
            for name, (party, k) in zip(_OBSERVABLE_NAMES, slots)]


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
                                         "bob observable 0: operator entries must be finite"),
    "nan bob 0, 3x3 alice 1": ({("bob", 0): "nan", ("alice", 1): "3x3"},
                               "alice observable 1 must act on a qubit"),
    "square alice 0, non-hermitian bob 1": (
        {("alice", 0): "not squaring to 1", ("bob", 1): "non-hermitian"},
        "bob observable 1: operator must be hermitian: max |A - A^dagger| = 0.5"),
    "nan alice 0, ragged bob 1": ({("alice", 0): "nan", ("bob", 1): "ragged rows"},
                                  "scenario.bob_observables[1]: expected numeric [re, im] pairs"),
}


@pytest.mark.parametrize("slot", SLOTS)
@pytest.mark.parametrize("defect", OBSERVABLE_DEFECTS)
def test_stacked_observable_decode_raises_as_one_by_one(slot, defect):
    doc = _bell_optimal_doc()
    for party, k in SLOTS[slot]:
        doc[f"{party}_observables"][k] = OBSERVABLE_DEFECTS[defect]
    with pytest.raises(Exception) as wanted:
        _observables_one_by_one(doc)
    with pytest.raises(Exception) as got:
        chsh_scenario_from_doc(doc)
    assert (type(got.value), str(got.value)) == (type(wanted.value), str(wanted.value))


@pytest.mark.parametrize("slots,message", TWO_DEFECTS.values(), ids=TWO_DEFECTS)
def test_two_observable_defects_raise_in_check_order(slots, message):
    doc = _bell_optimal_doc()
    for (party, k), defect in slots.items():
        doc[f"{party}_observables"][k] = OBSERVABLE_DEFECTS[defect]
    with pytest.raises(InputError) as got:
        chsh_scenario_from_doc(doc)
    assert str(got.value) == message


def test_stacked_observable_decode_keeps_the_bits(rng):
    # observables up to 1e-12 from hermitian, which the decode symmetrizes
    for _ in range(200):
        doc = _bell_optimal_doc()
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
    write_curve_csv(path, [(0.0, 2.0, "m0.json"), (1.0 / 3.0, 4.0, "m1.json"),
                           (np.float64(0.05), np.float64(2.8), "m2.json")])
    assert path.read_text().splitlines() == [
        "budget_bits,best_chsh,model_file",
        "0.0,2.0,m0.json",
        "0.3333333333333333,4.0,m1.json",
        "0.05,2.8,m2.json",
    ]


def test_seeded_scenario_files_evaluate_to_pinned_bits():
    # the inputs, which every CPU set-up child rebuilds (children.CPU_PINS)
    assert scenario_document_digests() == [
        "00252175b55ebfbf25e098a5805846ec4680fedb9ee9b431290577f5cc7ac46e",
        "b3ebacb1c18c22ea8d99c3cb1600c1c8f57438067cbec6db855c7dcbf2d93426"]
    chsh, kcbs = seeded_scenario_documents(seed=13)
    digest = hashlib.sha256()
    for doc in chsh:
        table = chsh_quantum(chsh_scenario_from_doc(json.loads(json.dumps(doc))))
        digest.update(table.joint.tobytes())
        digest.update(repr(chsh_value(table)).encode())
    for doc in kcbs:
        value = kcbs_value(kcbs_scenario_from_doc(json.loads(json.dumps(doc))))
        digest.update(repr(value).encode())
    assert digest.hexdigest() == (
        "b6f2f1b03722a682cdde78f10888104a4202d95f82fc85f7b6eefeb8131872d8")
