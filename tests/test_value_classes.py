"""The package's 11 value classes: read-only, copyable and picklable, compared as pinned.

Assigning or deleting a field raises ``AttributeError``.  ``pickle`` at every
protocol, ``copy.copy`` and ``copy.deepcopy`` give an instance of the same class
with every field kept, arrays identical byte for byte and read-only.  Each is rebuilt
through its checking ``__init__``, so a pickle whose fields were edited raises
``InputError``.  The four plain value classes compare and hash by their fields
(``TeleportInput`` without its kept state); the seven checked classes compare and
hash by identity.  Every ``errors.Frozen`` subclass that bellmd defines is listed here.
"""

import copy
import importlib
import pickle
import pkgutil
import struct

import numpy as np
import pytest

import bellmd
import oracles
from bellmd.errors import Frozen, InputError, Value
from bellmd.hilbert import OperatorMatrix, StateVector
from bellmd.inequalities import ChshScenario, KcbsScenario, bell_optimal_scenario, kcbs_pentagram
from bellmd.infotheory import CmdReport
from bellmd.lhv import CorrelationTable, LhvModel, SettingSpace, brans_construct
from bellmd.mdsearch import SearchOutcome
from bellmd.teleport import TeleportInput, TeleportTranscript

STATE = StateVector([0.6, 0.8])
MODEL = brans_construct(CorrelationTable.from_correlators([[0.5, 0.5], [0.5, -0.5]]))

# class -> (its fields, a factory whose instances have equal fields)
VALUES = {
    CmdReport: (("raw_bits", "normalized", "setting_entropy_bits"),
                lambda: CmdReport(1.0, 0.5, 2.0)),
    SearchOutcome: (("model", "cmd_report", "chsh", "feasible"),
                    lambda: SearchOutcome(MODEL, CmdReport(1.0, 0.5, 2.0), 2.5, True)),
    TeleportInput: (("a", "b", "_state"), lambda: TeleportInput(0.6, 0.8j)),
    TeleportTranscript: (("outcome_index", "outcome_probability", "correction_applied",
                          "bob_final", "fidelity"),
                         lambda: TeleportTranscript(2, 0.25, "sigma_x", STATE, 1.0)),
}
CHECKED = {
    StateVector: (("amplitudes",), lambda: StateVector([0.6, 0.8j])),
    OperatorMatrix: (("entries",), lambda: OperatorMatrix(oracles.PAULI_X)),
    SettingSpace: (("alice_settings", "bob_settings", "marginal", "_entropy_bits"),
                   lambda: SettingSpace(1, 2, [0.25, 0.75])),
    LhvModel: (("setting_space", "lambda_given_settings", "alice_response", "bob_response"),
               lambda: brans_construct(CorrelationTable.from_correlators(np.zeros((2, 2))))),
    CorrelationTable: (("joint", "correlators"),
                       lambda: CorrelationTable.from_correlators([[0.5, 0.5], [0.5, -0.5]])),
    ChshScenario: (("observables", "state"), bell_optimal_scenario),
    KcbsScenario: (("vectors", "state"), kcbs_pentagram),
}
CLASSES = {**VALUES, **CHECKED}


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct, *_subclasses(direct)}}


def test_every_frozen_class_of_the_package_is_listed():
    # import every module first: a class in a module nothing imports yet is still a class
    for module in pkgutil.iter_modules(bellmd.__path__):
        importlib.import_module(f"bellmd.{module.name}")
    defined = {cls for cls in _subclasses(Frozen) if cls.__module__.startswith("bellmd.")}
    assert defined - {Value} == set(CLASSES)


def assert_same(a, b) -> None:
    """Equal fields, recursively through the value classes; arrays equal byte for byte."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif type(a) in CLASSES:
        for name in CLASSES[type(a)][0]:
            assert_same(getattr(a, name), getattr(b, name))
    else:
        assert a == b


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    names, make = CLASSES[cls]
    value = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1


def arrays(value):
    """Every ndarray reachable from ``value`` through the value classes' slots."""
    if isinstance(value, np.ndarray):
        yield value
    elif type(value) in CLASSES:
        for name in type(value).__slots__:
            yield from arrays(getattr(value, name))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_keep_every_field(cls):
    value = CLASSES[cls][1]()
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies + [copy.copy(value), copy.deepcopy(value)]:
        assert twin is not value
        assert_same(twin, value)
        with pytest.raises(AttributeError):
            setattr(twin, CLASSES[cls][0][0], None)
        # a copy is as immutable as the original, in place as well
        assert not any(arr.flags.writeable for arr in arrays(twin))


U = 5e-324  # the smallest subnormal
# A/2 + A^dagger/2 stores the pair 2u, 4u as 3u, and 3u/2 rounds to 2u: a rebuild that
# halved the stored 3u again would store 2u + 2u = 4u
SUBNORMAL_OPERATOR = [[1, 2 * U], [4 * U, -1]]
SUBNORMAL = {
    OperatorMatrix: lambda: OperatorMatrix(SUBNORMAL_OPERATOR),
    ChshScenario: lambda: ChshScenario(
        [SUBNORMAL_OPERATOR, *bell_optimal_scenario().observables[1:]],
        bell_optimal_scenario().state),
}


@pytest.mark.parametrize("cls", SUBNORMAL, ids=lambda cls: cls.__name__)
def test_subnormal_entries_keep_their_bits_in_copies(cls):
    value = SUBNORMAL[cls]()
    stored = next(arrays(value))
    assert stored.reshape(-1, 2, 2)[0, 0, 1] == stored.reshape(-1, 2, 2)[0, 1, 0] == 3 * U
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies + [copy.copy(value), copy.deepcopy(value)]:
        assert_same(twin, value)


class Edited:
    """Pickles as ``cls`` with the given fields: the bytes of an edited pickle of a ``cls``."""

    def __init__(self, cls, fields: tuple) -> None:
        self.cls, self.fields = cls, fields

    def __reduce__(self):
        return self.cls, self.fields


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_an_edited_pickle_is_checked_again(cls, protocol):
    value = CHECKED[cls][1]()
    fields = tuple(getattr(value, name) for name in cls._fields)
    assert pickle.dumps(Edited(cls, fields), protocol) == pickle.dumps(value, protocol)
    k = next(k for k, field in enumerate(fields) if isinstance(field, np.ndarray))
    edited = fields[k].copy()
    edited.flat[0] = np.nan
    tampered = pickle.dumps(Edited(cls, fields[:k] + (edited,) + fields[k + 1:]), protocol)
    with pytest.raises(InputError, match="finite"):
        pickle.loads(tampered)


@pytest.mark.parametrize("protocol", [0, 3, 4, 5])  # the protocols that hold the raw bytes
def test_a_state_pickle_edited_in_place_raises(protocol):
    data = pickle.dumps(StateVector([0.6, 0.8]), protocol)
    old, new = struct.pack("<d", 0.8), struct.pack("<d", 0.9)
    assert data.count(old) == 1
    with pytest.raises(InputError, match=r"squared norm 1\.17, expected 1"):
        pickle.loads(data.replace(old, new))


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_classes_compare_and_hash_by_field(cls):
    first, second = VALUES[cls][1](), VALUES[cls][1]()
    assert first is not second and first == second and not first != second
    assert hash(first) == hash(second)
    assert first != tuple(getattr(first, name) for name in VALUES[cls][0])


def test_a_compared_field_that_differs_makes_values_unequal():
    assert CmdReport(1.0, 0.5, 2.0) != CmdReport(1.0, 0.5, 2.5)
    assert TeleportInput(0.6, 0.8) != TeleportInput(0.8, 0.6)
    # the kept state is not compared: equal inputs hold distinct states
    first, second = TeleportInput(0.6, 0.8), TeleportInput(0.6, 0.8)
    assert first == second and first.state() is not second.state()


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_checked_classes_compare_and_hash_by_identity(cls):
    first, second = CHECKED[cls][1](), CHECKED[cls][1]()
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)


def test_repr_lists_the_shown_fields():
    assert repr(CmdReport(1.0, 0.5, 2.0)) == \
        "CmdReport(raw_bits=1.0, normalized=0.5, setting_entropy_bits=2.0)"
    assert repr(TeleportInput(0.6, 0.8)) == "TeleportInput(a=(0.6+0j), b=(0.8+0j))"
    table = CorrelationTable.from_correlators(np.zeros((1, 1)))
    assert repr(table) == f"CorrelationTable(joint={table.joint!r})"
    assert repr(STATE) == f"StateVector(amplitudes={STATE.amplitudes!r})"
    assert repr(SettingSpace(1, 1)) == "SettingSpace(alice_settings=1, bob_settings=1, " \
                                       "marginal=array([1.]))"
