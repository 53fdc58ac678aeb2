"""Closed-form dependence/CHSH tradeoff for uniform 2x2 settings.

The least mutual information I(lambda; settings) a local model needs to
reach CHSH value s is a rate-distortion function (Blahut, IEEE Trans. IT
18:460, 1972): the source is the uniform joint setting and the
reproduction alphabet is the 8 deterministic correlator classes.  With
x = (4 - s) / 8,

    I(s) = 2 - h(x) - (1 - x) log2 3        for 2 <= s <= 4,

and I(s) = 0 for s <= 2.  It agrees with Hall (PRA 84, 022102, 2011) at
s = 2 sqrt(2).  S*(b), the largest CHSH value reachable within b bits, is
the inverse of I, found by bisection.
"""

from __future__ import annotations

import math

LOG2_3 = math.log2(3.0)
TSIRELSON = 2.0 * math.sqrt(2.0)


def _h(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def min_bits(s: float) -> float:
    """I(s): least dependence in bits that reaches CHSH value s."""
    if s <= 2.0:
        return 0.0
    if s > 4.0:
        raise ValueError(f"CHSH value {s} exceeds the algebraic maximum 4")
    x = (4.0 - s) / 8.0
    return max(2.0 - _h(x) - (1.0 - x) * LOG2_3, 0.0)


def max_chsh(bits: float) -> float:
    """S*(b): largest CHSH value any model within b bits reaches."""
    if bits <= 0.0:
        return 2.0
    if bits >= min_bits(4.0):
        return 4.0
    lo, hi = 2.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if min_bits(mid) <= bits:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    return lo


def self_check() -> None:
    """Raise AssertionError unless the closed form hits its known points."""
    checks = (
        ("I(2)", min_bits(2.0), 0.0, 1e-15),
        ("I(2 sqrt 2)", min_bits(TSIRELSON), 0.046274, 5e-7),
        ("I(4)", min_bits(4.0), math.log2(4.0 / 3.0), 1e-12),
        ("S*(I(2 sqrt 2))", max_chsh(min_bits(TSIRELSON)), TSIRELSON, 1e-9),
    )
    for label, got, want, tol in checks:
        if abs(got - want) > tol:
            raise AssertionError(f"closed form {label} = {got!r}, expected {want!r}")
