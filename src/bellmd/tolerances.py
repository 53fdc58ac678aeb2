"""Central numeric tolerances: one knob for every constructor and consistency check.

Outside it, as neither checks input: ``mdsearch._FEAS_HEADROOM`` (1e-12), the optimizer's
rounding allowance on its own model, and ``lhv.measurement_independent``'s ``tolerance=1e-9``.
"""

from __future__ import annotations

from .errors import Value


class Tolerances(Value):
    """Absolute tolerances used throughout the package.

    normalization: squared norms of state vectors, teleport inputs included, and
        the entropy bound on a model's dependence
    operator: unit length of KCBS vectors, imaginary residue of expectation
        values
    arithmetic: hermiticity of every operator, probability-table entries and sums, and
        the mutual-information clamp; a quarter of it bounds CHSH observables squaring
        to 1 and the row sums of a model's tables, an eighth KCBS neighbour orthogonality
    """

    __slots__ = ("normalization", "operator", "arithmetic")

    def __init__(self, normalization: float = 1e-9, operator: float = 1e-10,
                 arithmetic: float = 1e-12) -> None:
        self._assign(normalization, operator, arithmetic)


DEFAULT_TOLERANCES = Tolerances()
