"""Discrete entropy and mutual information in bits, plus the setting-dependence score.

The dependence of a hidden-variable model on its measurement settings is
scored as the mutual information, in bits, between the hidden variable and
the joint setting; a normalized companion (raw bits divided by the setting
entropy) is reported alongside so fully deterministic settings score 1.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import Frozen, InputError, InvariantError
from .tolerances import ARITHMETIC, NORMALIZATION

if TYPE_CHECKING:  # cmd's annotation only: lhv imports entropy_bits from here
    from .lhv import LhvModel

_TINY = np.finfo(float).tiny


def entropy_bits(distribution) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention.

    The entries must be finite and at least -ARITHMETIC, and sum to 1 within ARITHMETIC; a
    negative entry within that bound counts as 0.
    """
    p = np.asarray(distribution, dtype=float).reshape(-1)
    # a NaN or infinite entry makes the sum NaN or infinite, which fails the first test
    if not (abs(p.sum() - 1.0) <= ARITHMETIC and p.min() >= -ARITHMETIC):
        raise InputError(f"a distribution's entries must be finite and at least -{ARITHMETIC:g},"
                         f" and sum to 1 within {ARITHMETIC:g}")
    p = p[p > 0.0]
    # 0 - sum, not -sum: a point mass and an empty sum give +0.0, which negation would print as -0
    return float(0.0 - (p * np.log2(p)).sum())


def _mutual_information_bits(joint: np.ndarray, row_m: np.ndarray, col_m: np.ndarray) -> float:
    mask = joint > 0.0
    outer = row_m[:, None] * col_m
    p, outer = joint[mask], outer[mask]
    if outer.min() >= _TINY:
        log_ratio = np.log2(p / outer)
    else:  # p(x) p(y) underflowed where p(x, y) did not: one marginal at a time, and
        # the second in logs, since 1 / p(y) overflows for a subnormal p(y)
        rows, cols = np.nonzero(mask)
        log_ratio = np.log2(p / row_m[rows]) - np.log2(col_m[cols])
    value = float((p * log_ratio).sum())
    if value < -ARITHMETIC:
        raise InvariantError(f"mutual information {value:.3g} below the float-residue clamp")
    return max(value, 0.0)


class CmdReport(Frozen):
    """Setting-dependence score of a model.

    raw_bits: mutual information between the hidden variable and the joint
    setting; normalized: raw bits divided by the setting entropy (0 when
    that entropy vanishes); setting_entropy_bits: entropy of the setting
    marginal.
    """

    __slots__ = ("raw_bits", "normalized", "setting_entropy_bits")

    def __init__(self, raw_bits: float, normalized: float, setting_entropy_bits: float) -> None:
        self._assign(raw_bits, normalized, setting_entropy_bits)

    def to_json_dict(self) -> dict:
        return {
            "raw_bits": self.raw_bits,
            "normalized": self.normalized,
            "setting_entropy_bits": self.setting_entropy_bits,
        }


def cmd(model: LhvModel) -> CmdReport:
    """Score a model's measurement dependence in bits (raw and normalized).

    A checked model's weights are a distribution, so they are scored without a re-check.
    The setting entropy is the one its ``SettingSpace`` computed when it was built.  A reading
    within H(S) + NORMALIZATION and under the min-entropy -log2 max p(lambda) <= H(lambda), less
    ARITHMETIC, meets the entropy bound; any other is checked against H(lambda), computed.
    """
    # rows: lambda, cols: joint setting; C order fixes how the sums below round
    joint = np.multiply(model.lambda_given_settings.T, model.setting_space.marginal, order="C")
    lambda_marginal = joint.sum(axis=1)
    raw = _mutual_information_bits(joint, lambda_marginal, joint.sum(axis=0))
    setting_entropy = model.setting_space._entropy_bits
    if (raw > setting_entropy + NORMALIZATION
            or raw > -math.log2(lambda_marginal.max()) - ARITHMETIC):
        bound = min(setting_entropy, entropy_bits(lambda_marginal))
        if raw > bound + NORMALIZATION:
            raise InvariantError(
                f"mutual information {raw:.12g} exceeds the entropy bound {bound:.12g}")
    normalized = raw / setting_entropy if setting_entropy > 0.0 else 0.0
    return CmdReport(raw_bits=raw, normalized=normalized, setting_entropy_bits=setting_entropy)
