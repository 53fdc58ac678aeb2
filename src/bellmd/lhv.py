"""Finite local hidden-variable models with tunable setting dependence.

A model is a finite hidden-variable space, a conditional distribution
p(lambda | joint setting), and local response tables p(+1 | setting, lambda)
for each party.  Joint outcome statistics are always computed as

    p(x, y | a, b) = sum_lambda p(lambda | a, b) p(x | a, lambda) p(y | b, lambda)

so outcome independence and parameter independence hold by construction;
only the independence of lambda from the settings can be violated, through
the shape of p(lambda | a, b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .tolerances import DEFAULT_TOLERANCES

_ATOL = DEFAULT_TOLERANCES.arithmetic
# the row sums a model enters with: a quarter of the tolerance keeps predict's
# outcome rows within it, and cmd's mutual information above its -_ATOL clamp
_ROW_ATOL = _ATOL / 4


def _distribution_rows(name: str, table, columns: int | None = None, atol=_ATOL) -> np.ndarray:
    arr = np.array(table, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InputError(f"{name} must be a 2-d table")
    if columns is not None and arr.shape[1] != columns:
        raise InputError(f"{name} must have {columns} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} entries must be finite")
    if np.any(arr < -_ATOL):
        raise InputError(f"{name} entries must be nonnegative")
    # the sums are those of the rows as kept, after the clip
    arr = np.clip(arr, 0.0, None)
    _check_sums(name, arr.sum(axis=1), atol)
    arr.setflags(write=False)
    return arr


def _check_sums(name: str, sums: np.ndarray, atol=_ATOL) -> None:
    if np.any(np.abs(sums - 1.0) > atol):
        if sums.size == 1:
            raise InputError(f"{name} sums to {sums[0]:.15g}, expected 1")
        raise InputError(f"{name} rows must each sum to 1 within {atol:g}")


@dataclass(frozen=True, eq=False)
class SettingSpace:
    """Joint measurement settings for two parties, with a marginal over them.

    Joint settings are indexed row-major: index = a * bob_settings + b.
    """

    alice_settings: int = 2
    bob_settings: int = 2
    marginal: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.alice_settings < 1 or self.bob_settings < 1:
            raise InputError("setting counts must be positive")
        n = self.alice_settings * self.bob_settings
        marginal = self.marginal
        if marginal is None:
            marginal = np.full(n, 1.0 / n)
        marginal = _distribution_rows("setting marginal", marginal, columns=n, atol=_ROW_ATOL)[0]
        object.__setattr__(self, "marginal", marginal)

    @property
    def n_joint(self) -> int:
        return self.alice_settings * self.bob_settings


_FIELDS = ("lambda_given_settings", "alice_response", "bob_response")


def _model_tables(space: SettingSpace, lgs, alice, bob) -> tuple[np.ndarray, ...]:
    """A model's three tables checked in one pass over their stack, in ``LhvModel``'s order."""
    n, n_a = space.n_joint, space.alice_settings
    lgs = np.array(lgs, dtype=float)
    if lgs.ndim == 1:  # a flat row is the one-setting table
        lgs = lgs.reshape(1, -1)
    if lgs.ndim != 2:
        raise InputError("lambda_given_settings must be a 2-d table")
    if lgs.shape[0] != n:
        raise InputError(f"lambda_given_settings needs {n} rows, got {lgs.shape[0]}")
    arrays, lam, defect = [lgs], lgs.shape[1], None
    for name, table, rows in zip(_FIELDS[1:], (alice, bob), (n_a, space.bob_settings)):
        try:
            arr = np.array(table, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            defect = exc
            break
        if arr.shape != (rows, lam):
            defect = InputError(f"{name} must have shape ({rows}, {lam}), got {arr.shape}")
            break
        arrays.append(arr)
    stack = np.concatenate(arrays)
    # the bounds reject NaN too, and +inf in a row fails its sum; `initial` lets tables
    # with no hidden value reach the sum check
    ok = stack.min(initial=0.0) >= -_ATOL and stack[n:].max(initial=1.0) <= 1.0 + _ATOL
    if ok:
        np.clip(stack, 0.0, None, out=stack)
        np.minimum(stack[n:], 1.0, out=stack[n:])
        ok = np.abs(stack[:n].sum(axis=1) - 1.0).max() <= _ROW_ATOL
    if not ok:
        _raise_entry_defect(stack, n, n_a)
    if defect is not None:  # a response table that did not stack, after those before it pass
        raise defect
    stack.setflags(write=False)
    return stack[:n], stack[n:n + n_a], stack[n + n_a:]


def _raise_entry_defect(stack: np.ndarray, n: int, n_a: int) -> None:
    """Raise the first entry defect in field order, from per-field masks over the stack."""
    finite = np.isfinite(stack)
    outside = stack < -_ATOL
    outside[n:] |= stack[n:] > 1.0 + _ATOL
    for name, rows in zip(_FIELDS, (slice(0, n), slice(n, n + n_a), slice(n + n_a, None))):
        if not finite[rows].all():
            raise InputError(f"{name} entries must be finite")
        if outside[rows].any():
            bounds = "be nonnegative" if rows.start == 0 else "lie in [0, 1]"
            raise InputError(f"{name} entries must {bounds}")
        if rows.start == 0:  # the sums are those of the rows as kept, after the clip
            sums = np.clip(stack[rows], 0.0, None).sum(axis=1)
            _check_sums(name, sums)
            _check_sums(name, sums, _ROW_ATOL)


@dataclass(frozen=True, eq=False)
class LhvModel:
    """Hidden-variable distribution plus factorizable +/-1 response tables.

    lambda_given_settings has one row per joint setting (each a distribution
    over lambda; a flat row is the one-setting table); alice_response[a, l] and
    bob_response[b, l] give the probability of outcome +1.

    The tables are checked in one pass, in that field order; for each, its
    conversion and shape, then finite entries, then entries within
    `arithmetic` of [0, 1] ([0, inf) for lambda_given_settings), then its row
    sums within `arithmetic` / 4 of 1 after the clip.  The first defect raises,
    naming its field, or numpy's own error for a table that does not convert.
    """

    setting_space: SettingSpace
    lambda_given_settings: np.ndarray
    alice_response: np.ndarray
    bob_response: np.ndarray

    def __post_init__(self) -> None:
        tables = [getattr(self, name) for name in _FIELDS]
        for name, table in zip(_FIELDS, _model_tables(self.setting_space, *tables)):
            object.__setattr__(self, name, table)

    @property
    def lambda_count(self) -> int:
        return int(self.lambda_given_settings.shape[1])


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint outcome probabilities per setting pair, and the correlators they imply.

    joint[a, b, i, j] is p(x, y | a, b) with index 0 meaning outcome +1 and
    index 1 meaning outcome -1; correlators[a, b] = E(a, b) is derived from it
    as p(+,+) - p(+,-) - p(-,+) + p(-,-), so |E| <= 1, up to the entry and sum
    tolerances, follows from the joint checks.
    """

    joint: np.ndarray
    correlators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        joint = np.array(self.joint, dtype=float)
        if joint.ndim != 4 or joint.shape[2:] != (2, 2):
            raise InputError(f"joint table must have shape (a, b, 2, 2), got {joint.shape}")
        rows = _distribution_rows("joint outcome table", joint.reshape(-1, 4))
        self._set(rows.reshape(joint.shape))

    def _set(self, joint: np.ndarray) -> None:
        corr = joint[..., 0, 0] - joint[..., 0, 1] - joint[..., 1, 0] + joint[..., 1, 1]
        corr.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "correlators", corr)

    @classmethod
    def _derived(cls, joint: np.ndarray) -> CorrelationTable:
        """Table that takes over ``joint``, an array computed from validated inputs.

        Such an array is finite and nonnegative by construction; only the
        per-setting sums, which rounding can still move, are checked.
        """
        _check_sums("joint outcome table", joint.reshape(-1, 4).sum(axis=1))
        joint.setflags(write=False)
        table = object.__new__(cls)
        table._set(joint)
        return table

    @classmethod
    def from_correlators(cls, correlators) -> CorrelationTable:
        """Fill in the unique unbiased-marginal joint table for given correlators."""
        corr = np.array(correlators, dtype=float)
        same = (1.0 + corr) / 4.0
        diff = (1.0 - corr) / 4.0
        joint = np.stack(
            [np.stack([same, diff], axis=-1), np.stack([diff, same], axis=-1)], axis=-2
        )
        return cls(joint)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.correlators.shape[0]), int(self.correlators.shape[1]))


def predict(model: LhvModel) -> CorrelationTable:
    """Exact outcome statistics of a model, marginalizing over the hidden variable."""
    space = model.setting_space
    n_a, n_b = space.alice_settings, space.bob_settings
    w = model.lambda_given_settings.reshape(n_a, n_b, model.lambda_count)
    pa = model.alice_response  # p(+1 | a, lambda)
    pb = model.bob_response
    pa2 = np.stack([pa, 1.0 - pa])  # outcome-indexed: [x, a, lambda]
    pb2 = np.stack([pb, 1.0 - pb])
    return CorrelationTable._derived(np.einsum("abl,ial,jbl->abij", w, pa2, pb2))


def brans_construct(target: CorrelationTable) -> LhvModel:
    """Fully setting-determined model reproducing an arbitrary correlation table.

    The hidden variable enumerates (joint setting, outcome pair); its
    distribution under setting s is supported only on lambdas whose first
    component is s, so the hidden variable determines the settings outright
    and the responses can be deterministic.  ``predict`` returns the target
    exactly, and the information between lambda and the settings saturates
    the setting entropy.
    """
    n_a, n_b = target.shape
    n_joint = n_a * n_b
    # lambda = 4 s + 2 i + j for joint setting s = a * n_b + b and outcome pair (i, j),
    # index 0 -> +1, 1 -> -1
    lgs = np.zeros((n_joint, n_joint, 4))
    lgs[np.arange(n_joint), np.arange(n_joint)] = target.joint.reshape(n_joint, 4)
    lgs = lgs.reshape(n_joint, 4 * n_joint)
    i, j = np.divmod(np.arange(4 * n_joint) % 4, 2)
    alice = np.tile(i == 0, (n_a, 1)).astype(float)
    bob = np.tile(j == 0, (n_b, 1)).astype(float)
    # guard against float residue in the target rows
    lgs /= lgs.sum(axis=1, keepdims=True)
    return LhvModel(SettingSpace(n_a, n_b), lgs, alice, bob)


def measurement_independent(model: LhvModel, tolerance: float = 1e-9) -> bool:
    """True iff p(lambda | a, b) is the same distribution for every joint setting."""
    lgs = model.lambda_given_settings
    spread = float(np.max(lgs.max(axis=0) - lgs.min(axis=0))) if lgs.shape[0] > 1 else 0.0
    return spread <= tolerance
