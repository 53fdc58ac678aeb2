"""File formats: model JSON documents, scenario JSON documents (read only) and CSV curves.

Floats are written as Python's ``repr``, the shortest text that reads back to
the same double, so readers reconstruct exactly the values that were written.
``dumps_json`` writes ``json.dumps(doc, indent=2)`` itself, byte for byte: the stdlib's
C encoder runs only with no indent, and a list of floats here is one C-level join.
Each input file is one unbuffered read, as each output file is one raw write:
``_read_bytes`` and ``_write_text`` open the file in raw binary mode, past the
text and buffer layers of ``pathlib``'s readers and writers.
"""

from __future__ import annotations

import json
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from .errors import InputError
from .hilbert import StateVector
from .inequalities import ChshScenario, KcbsScenario
from .lhv import LhvModel, SettingSpace

_quote = json.JSONEncoder().encode  # a str as json.dumps quotes it: ASCII, with \u escapes


def _key(key) -> str:  # quoted, as json.dumps writes a key: a number, bool or None as its text
    if key is not None and not isinstance(key, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _quote(key if isinstance(key, str) else _text(key, ""))


def _text(obj, nl: str) -> str:
    """``obj`` as ``json.dumps`` writes it, where ``nl`` is the newline and indent of its line."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if "n" in (text := float.__repr__(obj)):  # nan, inf or -inf; no finite repr has an "n"
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return text
    if not isinstance(obj, (list, tuple, dict)):
        if not isinstance(obj, (np.ndarray, np.generic, Path)):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        return _text(str(obj) if isinstance(obj, Path) else obj.tolist(), nl)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + "  "
    if isinstance(obj, dict):
        return "{" + inner + ("," + inner).join([_key(k) + ": " + _text(v, inner)
                                                 for k, v in obj.items()]) + nl + "}"
    if isinstance(obj[0], float):
        try:  # a TypeError: an item that is not a float; a NaN or an infinity raises below
            if "n" not in (body := ("," + inner).join(map(float.__repr__, obj))):
                return "[" + inner + body + nl + "]"
        except TypeError:
            pass
    return "[" + inner + ("," + inner).join([_text(v, inner) for v in obj]) + nl + "]"


def dumps_json(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte and errors included, with a
    numpy value written as its ``tolist()`` and a ``Path`` as its string.  A list of floats is
    one join of ``float.__repr__``; only nan and inf put an ``"n"`` in it."""
    return _text(obj, "\n")


def _write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 bytes, in unbuffered writes until all are out.

    A raw binary file skips the text and buffer layers of ``Path.write_text``
    and their per-file set-up; no newline translation applies on any platform.
    """
    data = memoryview(text.encode("utf-8"))
    with open(path, "wb", buffering=0) as f:
        try:
            while data:
                data = data[f.write(data):]
        except BaseException:  # a write cut short, such as on a full disk, leaves no file
            f.close()
            with suppress(OSError):  # the write's own error is the one reported
                Path(path).unlink()
            raise


def dump_json(path: Path | str, obj) -> None:
    _write_text(path, dumps_json(obj) + "\n")


def _read_bytes(path: Path | str) -> bytes:
    """The bytes of ``path`` in one unbuffered read, past the pathlib object and buffered
    reader that ``Path.read_bytes`` builds on every read; the twin of ``_write_text``."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


def load_json(path: Path | str):
    return parse_json(_read_bytes(path), path)


def _marked_booleans(obj):
    """``obj`` with each bool inside a list replaced by its JSON text, ``"true"`` or ``"false"``."""
    if isinstance(obj, dict):
        return {key: _marked_booleans(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_text(v, "") if isinstance(v, bool) else _marked_booleans(v) for v in obj]
    return obj


def _unique_keys(pairs: list) -> dict:
    """An object's ``(key, value)`` pairs as a dict; a key given twice is bad input, since
    parsers disagree on which of its values wins (RFC 8259, section 4)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"key {key!r:.40} appears more than once in one object")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once, not per json.loads


def parse_json(data: bytes, path: Path | str):
    """The JSON document in ``data``, the bytes of ``path``, decoded as a text-mode read would.

    A boolean inside an array comes back as its JSON text, ``"true"`` or ``"false"``, which fails a
    number check where numpy would read 1 or 0.  Only a document whose bytes hold either is walked.
    A key given twice in one object, or an integer past ``int``'s digit limit, is an InputError.
    """
    try:
        text = data.decode("utf-8")
        if "\r" in text:  # the universal newlines of a text-mode read, which error offsets count
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads's own check, which the decoder leaves out
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
        return _marked_booleans(doc) if b"true" in data or b"false" in data else doc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    except InputError as exc:  # a repeated key, from _unique_keys
        raise InputError(f"{path}: {exc}") from None
    except ValueError as exc:  # int() refuses a literal past its digit limit, 4300 by default
        digits = f"more than {sys.get_int_max_str_digits()} digits"
        raise InputError(f"{path}: an integer has {digits}, too many to read") from exc
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
    # O: null, an integer past 2**64; U: a string, a boolean from a file; b: bools
    if arr.dtype.kind not in "iuf":
        raise InputError(message)
    return arr.astype(float, copy=False)


def _float_array_field(doc: dict, name: str, context: str) -> np.ndarray:
    return _numbers(_field(doc, name, context),
                    f"{context}: field '{name}' must be a regular array of numbers")


# --- complex payloads --------------------------------------------------------

def complex_pairs(state: StateVector) -> list[list[float]]:
    """``state``'s amplitudes as ``[re, im]`` pairs, the inverse of ``_pairs_to_complex``."""
    return [[z.real, z.imag] for z in state.amplitudes.tolist()]


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
