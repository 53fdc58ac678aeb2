"""File formats: model JSON documents, scenario JSON documents (read only) and CSV curves.

Floats are written as Python's ``repr``, the shortest text that reads back to
the same double, so readers reconstruct exactly the values that were written.
Each input file is one unbuffered read, as each output file is one raw write:
``_read_bytes`` and ``_write_text`` open the file in raw binary mode, past the
text and buffer layers of ``pathlib``'s readers and writers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .hilbert import StateVector
from .inequalities import ChshScenario, KcbsScenario
from .lhv import LhvModel, SettingSpace


def _plain(obj):
    """``json.dumps``'s ``default``: a numpy array or scalar, or a ``Path``, as plain data."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """JSON text of ``obj`` with a 2-space indent; ValueError on a NaN or an infinity."""
    # every document is a tree bellmd has just built, so the encoder skips its cycle walk
    return json.dumps(obj, indent=2, allow_nan=False, check_circular=False, default=_plain)


def _write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 bytes, in unbuffered writes until all are out.

    A raw binary file skips the text and buffer layers of ``Path.write_text``
    and their per-file set-up; no newline translation applies on any platform.
    """
    data = memoryview(text.encode("utf-8"))
    with open(path, "wb", buffering=0) as f:
        while data:
            data = data[f.write(data):]


def dump_json(path: Path | str, obj) -> None:
    _write_text(path, dumps_json(obj) + "\n")


def _read_bytes(path: Path | str) -> bytes:
    """The bytes of ``path`` in one unbuffered read, past the pathlib object and buffered
    reader that ``Path.read_bytes`` builds on every read; the twin of ``_write_text``."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


def load_json(path: Path | str):
    return parse_json(_read_bytes(path), path)


class _ArrayBoolean:
    """A JSON ``true`` or ``false`` read inside an array, where the input formats hold numbers.

    It is not a number, so the number check of the field it sits in names that field.
    """

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self) -> str:
        return "true" if self.value else "false"


def _marked_booleans(obj):
    """``obj`` with each bool inside a list replaced by an ``_ArrayBoolean``."""
    if isinstance(obj, dict):
        return {key: _marked_booleans(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_ArrayBoolean(v) if isinstance(v, bool) else _marked_booleans(v) for v in obj]
    return obj


def parse_json(data: bytes, path: Path | str):
    """The JSON document in ``data``, the bytes of ``path``, decoded as a text-mode read would.

    A boolean inside an array comes back as an ``_ArrayBoolean``: numpy would read it among
    numbers as 1 or 0.  Only a document whose bytes hold ``true`` or ``false`` is walked.
    """
    try:
        text = data.decode("utf-8")
        if "\r" in text:  # the universal newlines of a text-mode read, which error offsets count
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
        return _marked_booleans(doc) if b"true" in data or b"false" in data else doc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply to read") from exc


def _field(doc: dict, name: str, context: str):
    if not isinstance(doc, dict) or name not in doc:
        raise InputError(f"{context}: missing field '{name}'")
    return doc[name]


def _int_field(doc: dict, name: str, context: str) -> int:
    """A JSON integer, or a float with no fractional part; never a bool or a string."""
    value = _field(doc, name, context)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{context}: field '{name}' must be an integer, got {value!r:.40}")


def _numbers(data, message: str) -> np.ndarray:
    """``data`` as floats; InputError(message) on nulls, strings and bools, unlike dtype=float."""
    try:
        arr = np.array(data)
    except (TypeError, ValueError) as exc:  # ValueError: a ragged array
        raise InputError(message) from exc
    # O: null, an integer past 2**64, a boolean from a file; U: a string; b: bools
    if arr.dtype.kind not in "iuf":
        raise InputError(message)
    return arr.astype(float, copy=False)


def _float_array_field(doc: dict, name: str, context: str) -> np.ndarray:
    return _numbers(_field(doc, name, context),
                    f"{context}: field '{name}' must be a regular array of numbers")


# --- complex payloads --------------------------------------------------------

def _pairs_to_complex(data, context: str) -> np.ndarray:
    arr = _numbers(data, f"{context}: expected numeric [re, im] pairs")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InputError(f"{context}: expected [re, im] pairs, got shape {arr.shape}")
    # re + 1j * im rounds to (re + copysign(0, im)) + (im + 0)j, which this sum gives
    # without the nan and warning that 1j * inf gives
    return arr.view(np.complex128)[..., 0] + np.copysign(0.0, arr[..., 1])


def state_from_doc(data, context: str) -> StateVector:
    values = _pairs_to_complex(data, context)
    if values.ndim != 1:
        raise InputError(f"{context}: state must be a flat list of [re, im] pairs")
    return StateVector(values)


# --- hidden-variable models --------------------------------------------------

def model_to_doc(model: LhvModel) -> dict:
    space = model.setting_space
    return {
        "lambda_count": model.lambda_count,
        "settings": {
            "alice": space.alice_settings,
            "bob": space.bob_settings,
            "marginal": space.marginal.tolist(),
        },
        "lambda_given_settings": model.lambda_given_settings.tolist(),
        "alice_response": model.alice_response.tolist(),
        "bob_response": model.bob_response.tolist(),
    }


def write_model(path: Path | str, model: LhvModel) -> None:
    dump_json(path, model_to_doc(model))


def model_from_doc(doc: dict, context: str = "model") -> LhvModel:
    settings = _field(doc, "settings", context)
    space = SettingSpace(
        alice_settings=_int_field(settings, "alice", f"{context}.settings"),
        bob_settings=_int_field(settings, "bob", f"{context}.settings"),
        marginal=_float_array_field(settings, "marginal", f"{context}.settings"),
    )
    lgs = _float_array_field(doc, "lambda_given_settings", context)
    declared = _int_field(doc, "lambda_count", context)
    if lgs.ndim != 2 or lgs.shape[1] != declared:
        raise InputError(
            f"{context}: lambda_given_settings shape {lgs.shape} does not match "
            f"lambda_count {declared}"
        )
    return LhvModel(
        setting_space=space,
        lambda_given_settings=lgs,
        alice_response=_float_array_field(doc, "alice_response", context),
        bob_response=_float_array_field(doc, "bob_response", context),
    )


def read_model(path: Path | str) -> LhvModel:
    return model_from_doc(load_json(path), context=str(path))


# --- inequality scenarios ----------------------------------------------------

def chsh_scenario_from_doc(doc: dict, context: str = "scenario") -> ChshScenario:
    """Scenario of a document, its defects raised in this order.

    The four matrices convert as one stack, or else one at a time to name the first whose
    [re, im] structure fails; then the state, then ``ChshScenario`` checks the observables.
    """
    parties = [(party, _field(doc, f"{party}_observables", context)) for party in ("alice", "bob")]
    for party, listed in parties:
        if not isinstance(listed, list) or len(listed) != 2:
            raise InputError(f"{context}: {party}_observables must list exactly 2 matrices")
    try:
        stack = _pairs_to_complex([listed for _, listed in parties], context)
    except InputError:
        stack = None
    if stack is not None and stack.shape == (2, 2, 2, 2):
        observables = stack.reshape(4, 2, 2)
    else:
        observables = []
        for party, listed in parties:
            for k, data in enumerate(listed):
                field = f"{context}.{party}_observables[{k}]"
                values = _pairs_to_complex(data, field)
                if values.ndim != 2:
                    raise InputError(f"{field}: operator must be a matrix of [re, im] pairs")
                observables.append(values)
    state = state_from_doc(_field(doc, "state", context), f"{context}.state")
    return ChshScenario(observables, state)


def read_chsh_scenario(path: Path | str) -> ChshScenario:
    return chsh_scenario_from_doc(load_json(path), context=str(path))


def kcbs_scenario_from_doc(doc: dict, context: str = "scenario") -> KcbsScenario:
    return KcbsScenario(
        vectors=_float_array_field(doc, "vectors", context),
        state=state_from_doc(_field(doc, "state", context), f"{context}.state"),
    )


def read_kcbs_scenario(path: Path | str) -> KcbsScenario:
    return kcbs_scenario_from_doc(load_json(path), context=str(path))


def write_curve_csv(path: Path | str, rows: list[tuple[float, float, str]]) -> None:
    """Curve CSV with stable header: budget_bits, best_chsh, model_file."""
    lines = ["budget_bits,best_chsh,model_file"]
    for budget, best_chsh, model_file in rows:
        lines.append(f"{float(budget)!r},{float(best_chsh)!r},{model_file}")
    _write_text(path, "\n".join(lines) + "\n")
