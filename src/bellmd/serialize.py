"""File formats: model/scenario JSON documents and CSV curves.

All floats are serialized with 17 significant digits, which round-trips
IEEE-754 doubles bit-exactly; readers therefore reconstruct exactly the
values that were written.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import InputError
from .hilbert import StateVector
from .inequalities import ChshScenario, KcbsScenario
from .lhv import LhvModel, SettingSpace


def format_float(x: float) -> str:
    return format(float(x), ".17g")


_INDENT = "  "


def _emit(obj, depth: int, out: list[str]) -> None:
    """Append the JSON text of ``obj``, nested ``depth`` levels deep, to ``out``.

    Matches ``json.dumps(..., indent=2)`` except that floats carry 17
    significant digits.  numpy scalars and arrays, tuples and ``Path`` values
    are written as their plain JSON counterparts.
    """
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} is not serializable")
        out.append(format_float(obj))
    elif isinstance(obj, (str, Path)):
        out.append(json.dumps(str(obj)))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), depth, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + _INDENT * (depth + 1)
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + json.dumps(key) + ": ")
            _emit(value, depth + 1, out)
            sep = "," + inner
        out.append("\n" + _INDENT * depth + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "\n" + _INDENT * (depth + 1)
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _emit(value, depth + 1, out)
            sep = "," + inner
        out.append("\n" + _INDENT * depth + "]")
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """JSON text of ``obj`` with a 2-space indent and 17-digit floats."""
    out: list[str] = []
    _emit(obj, 0, out)
    return "".join(out)


def dump_json(path: Path | str, obj) -> None:
    Path(path).write_text(dumps_json(obj) + "\n", encoding="utf-8")


def load_json(path: Path | str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply to read") from exc


def sha256_file(path: Path | str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


def _float_array_field(doc: dict, name: str, context: str) -> np.ndarray:
    try:
        return np.array(_field(doc, name, context), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge integer
        raise InputError(f"{context}: field '{name}' must be a regular array of numbers") from exc


# --- complex payloads --------------------------------------------------------

def _pairs_to_complex(data, context: str) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{context}: expected numeric [re, im] pairs") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InputError(f"{context}: expected [re, im] pairs, got shape {arr.shape}")
    # re + 1j * im rounds to (re + copysign(0, im)) + (im + 0)j, which this sum gives
    # without the nan and warning that 1j * inf gives
    return arr.view(np.complex128)[..., 0] + np.copysign(0.0, arr[..., 1])


def _complex_to_pairs(arr: np.ndarray) -> list:
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def state_to_doc(state: StateVector) -> list:
    return _complex_to_pairs(state.amplitudes)


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

def chsh_scenario_to_doc(scenario: ChshScenario) -> dict:
    observables = _complex_to_pairs(scenario.observables)
    return {
        "alice_observables": observables[:2],
        "bob_observables": observables[2:],
        "state": state_to_doc(scenario.state),
    }


def write_chsh_scenario(path: Path | str, scenario: ChshScenario) -> None:
    dump_json(path, chsh_scenario_to_doc(scenario))


def chsh_scenario_from_doc(doc: dict, context: str = "scenario") -> ChshScenario:
    """Scenario of a document, its defects raised in this order.

    Each matrix's [re, im] structure is checked as it converts, then the
    state, then ``ChshScenario`` checks the observables.
    """
    parties = [(party, _field(doc, f"{party}_observables", context)) for party in ("alice", "bob")]
    for party, listed in parties:
        if not isinstance(listed, list) or len(listed) != 2:
            raise InputError(f"{context}: {party}_observables must list exactly 2 matrices")
    matrices = []
    for party, listed in parties:
        for k, data in enumerate(listed):
            field = f"{context}.{party}_observables[{k}]"
            values = _pairs_to_complex(data, field)
            if values.ndim != 2:
                raise InputError(f"{field}: operator must be a matrix of [re, im] pairs")
            matrices.append(values)
    state = state_from_doc(_field(doc, "state", context), f"{context}.state")
    return ChshScenario(matrices, state)


def read_chsh_scenario(path: Path | str) -> ChshScenario:
    return chsh_scenario_from_doc(load_json(path), context=str(path))


def kcbs_scenario_to_doc(scenario: KcbsScenario) -> dict:
    return {
        "vectors": scenario.vectors.tolist(),
        "state": state_to_doc(scenario.state),
    }


def write_kcbs_scenario(path: Path | str, scenario: KcbsScenario) -> None:
    dump_json(path, kcbs_scenario_to_doc(scenario))


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
        lines.append(f"{format_float(budget)},{format_float(best_chsh)},{model_file}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
