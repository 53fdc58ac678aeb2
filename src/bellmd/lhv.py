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

import numpy as np

from .errors import Frozen, InputError
from .infotheory import entropy_bits
from .tolerances import ARITHMETIC

# the row sums a model enters with: a quarter of the tolerance keeps predict's
# outcome rows within it, and cmd's mutual information above infotheory's clamp
_ROW_ATOL = ARITHMETIC / 4


def _distribution_rows(name: str, table, atol=ARITHMETIC) -> np.ndarray:
    arr = np.array(table, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    _check_table(name, arr, atol)
    arr.setflags(write=False)
    return arr


def _check_table(name: str, table: np.ndarray, row_atol: float | None) -> None:
    """Check one table, raising its first defect; a distribution is clipped at 0 in place.

    In order: finite entries; entries within ``ARITHMETIC`` of [0, 1] for a response table
    (``row_atol`` None), or of [0, inf) for a distribution; then a distribution's row sums
    after the clip, within ``ARITHMETIC``, then within ``row_atol``, of 1.
    """
    if not np.isfinite(table).all():
        raise InputError(f"{name} entries must be finite")
    below = (table < -ARITHMETIC).any()
    if row_atol is None:
        if below or (table > 1.0 + ARITHMETIC).any():
            raise InputError(f"{name} entries must lie in [0, 1]")
    elif below:
        raise InputError(f"{name} entries must be nonnegative")
    else:
        np.clip(table, 0.0, None, out=table)
        with np.errstate(over="ignore"):  # rows near the float maximum sum to inf
            sums = table.sum(axis=1)
        _check_sums(name, sums)
        _check_sums(name, sums, row_atol)


def _check_sums(name: str, sums: np.ndarray, atol=ARITHMETIC) -> None:
    if np.abs(sums - 1.0).max(initial=0.0) > atol:
        if sums.size == 1:
            raise InputError(f"{name} sums to {sums[0]:.15g}, expected 1")
        raise InputError(f"{name} rows must each sum to 1 within {atol:g}")


class SettingSpace(Frozen):
    """Joint measurement settings for two parties, with a marginal over them.

    Joint settings are indexed row-major: index = a * bob_settings + b.  The marginal's
    entropy, which ``cmd`` reads, is computed once from the checked marginal.
    """

    __slots__ = ("alice_settings", "bob_settings", "marginal", "_entropy_bits")
    _fields = ("alice_settings", "bob_settings", "marginal")

    def __init__(self, alice_settings: int = 2, bob_settings: int = 2, marginal=None) -> None:
        for count in (alice_settings, bob_settings):  # numpy's ints pass; bools and 2.0 fail
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise InputError("setting counts must be positive integers")
        if alice_settings < 1 or bob_settings < 1:
            raise InputError("setting counts must be positive")
        n = alice_settings * bob_settings
        if marginal is None:
            marginal = np.full(n, 1.0 / n)
        marginal = np.asarray(marginal, dtype=float)
        if marginal.shape != (n,):  # one row of n entries, never a table of rows
            raise InputError(f"setting marginal must be a flat list of {n} entries, "
                             f"got shape {marginal.shape}")
        marginal = _distribution_rows("setting marginal", marginal, atol=_ROW_ATOL)[0]
        self._assign(alice_settings, bob_settings, marginal, entropy_bits(marginal))

    @property
    def n_joint(self) -> int:
        return self.alice_settings * self.bob_settings


_FIELDS = ("lambda_given_settings", "alice_response", "bob_response")


def _model_tables(space: SettingSpace, lgs, alice, bob) -> tuple[np.ndarray, ...]:
    """A model's three tables checked in one pass over their stack, in ``LhvModel``'s order."""
    n, n_a = space.n_joint, space.alice_settings
    lgs = np.asarray(lgs, dtype=float)  # np.concatenate below makes the copy the model keeps
    if lgs.ndim == 1:  # a flat row is the one-setting table
        lgs = lgs.reshape(1, -1)
    if lgs.ndim != 2:
        raise InputError("lambda_given_settings must be a 2-d table")
    if lgs.shape[0] != n:
        raise InputError(f"lambda_given_settings needs {n} rows, got {lgs.shape[0]}")
    arrays, lam, defect = [lgs], lgs.shape[1], None
    for name, table, rows in zip(_FIELDS[1:], (alice, bob), (n_a, space.bob_settings)):
        try:
            arr = np.asarray(table, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            defect = exc
            break
        if arr.shape != (rows, lam):
            defect = InputError(f"{name} must have shape ({rows}, {lam}), got {arr.shape}")
            break
        arrays.append(arr)
    stack = np.concatenate(arrays)
    # the bounds reject NaN too, and an entry past 1 fails its row sum anyway, which bounding
    # it keeps finite; `initial` lets tables with no hidden value reach the sum check
    ok = stack.min(initial=0.0) >= -ARITHMETIC and stack.max(initial=1.0) <= 1.0 + ARITHMETIC
    if ok:
        np.maximum(stack, 0.0, out=stack)  # the ufunc np.clip(stack, 0.0, None) calls
        np.minimum(stack[n:], 1.0, out=stack[n:])
        ok = np.abs(stack[:n].sum(axis=1) - 1.0).max() <= _ROW_ATOL
    if not ok:  # the first defect in field order, from the same checks table by table
        rows = (slice(0, n), slice(n, n + n_a), slice(n + n_a, None))
        for name, table_rows, row_atol in zip(_FIELDS, rows, (_ROW_ATOL, None, None)):
            _check_table(name, stack[table_rows], row_atol)
    if defect is not None:  # a response table that did not stack, after those before it pass
        raise defect
    stack.setflags(write=False)
    return stack[:n], stack[n:n + n_a], stack[n + n_a:]


class LhvModel(Frozen):
    """Hidden-variable distribution plus factorizable +/-1 response tables.

    lambda_given_settings has one row per joint setting (each a distribution
    over lambda; a flat row is the one-setting table); alice_response[a, l] and
    bob_response[b, l] give the probability of outcome +1.

    The tables are checked in one pass, in that field order; for each, its
    conversion and shape, then finite entries, then entries within
    ``ARITHMETIC`` of [0, 1] ([0, inf) for lambda_given_settings), then its row
    sums within ``ARITHMETIC`` / 4 of 1 after the clip.  The first defect raises,
    naming its field, or numpy's own error for a table that does not convert.
    """

    __slots__ = ("setting_space", *_FIELDS)

    def __init__(self, setting_space: SettingSpace, lambda_given_settings, alice_response,
                 bob_response) -> None:
        self._assign(setting_space, *_model_tables(setting_space, lambda_given_settings,
                                                   alice_response, bob_response))

    @property
    def lambda_count(self) -> int:
        return int(self.lambda_given_settings.shape[1])


class CorrelationTable(Frozen):
    """Joint outcome probabilities per setting pair, and the correlators they imply.

    joint[a, b, i, j] is p(x, y | a, b) with index 0 meaning outcome +1 and
    index 1 meaning outcome -1; correlators[a, b] = E(a, b) is derived from it
    as p(+,+) - p(+,-) - p(-,+) + p(-,-), so |E| <= 1, up to the entry and sum
    tolerances, follows from the joint checks.
    """

    __slots__ = ("joint", "correlators")
    _fields = ("joint",)

    def __init__(self, joint) -> None:
        joint = np.array(joint, dtype=float)
        if joint.ndim != 4 or joint.shape[2:] != (2, 2):
            raise InputError(f"joint table must have shape (a, b, 2, 2), got {joint.shape}")
        rows = _distribution_rows("joint outcome table", joint.reshape(-1, 4))
        self._set(rows.reshape(joint.shape))

    def _set(self, joint: np.ndarray) -> None:
        corr = joint[..., 0, 0] - joint[..., 0, 1] - joint[..., 1, 0] + joint[..., 1, 1]
        corr.setflags(write=False)
        self._assign(joint, corr)

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
    w = model.lambda_given_settings.reshape(n_a, n_b, -1)
    pa = model.alice_response  # p(+1 | a, lambda)
    pb = model.bob_response
    pa2 = np.array((pa, 1.0 - pa))  # outcome-indexed: [x, a, lambda]
    pb2 = np.array((pb, 1.0 - pb))
    # one einsum, not a chain of products: its order of products and of the sum over
    # lambda fixes how every joint entry rounds
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
