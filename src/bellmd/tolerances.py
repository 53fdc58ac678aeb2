"""Central numeric tolerances: the absolute bounds of every constructor and consistency check.

NORMALIZATION: squared norms of state vectors, teleport inputs included, and the entropy
    bound on a model's dependence
OPERATOR: unit length of KCBS vectors, imaginary residue of expectation values
ARITHMETIC: hermiticity of every operator, probability-table entries and sums, and the
    mutual-information clamp; a quarter of it bounds CHSH observables squaring to 1 and
    the row sums of a model's tables, an eighth KCBS neighbour orthogonality

Outside them, as neither checks input: ``mdsearch._FEAS_HEADROOM`` (1e-12), the optimizer's
rounding allowance on its own model, and ``lhv.measurement_independent``'s ``tolerance=1e-9``.
"""

NORMALIZATION = 1e-9
OPERATOR = 1e-10
ARITHMETIC = 1e-12
