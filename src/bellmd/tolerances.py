"""Central numeric tolerances: every absolute bound that bellmd checks a number against.

NORMALIZATION: squared norms of state vectors, teleport inputs included, the entropy
    bound on a model's dependence, and the spread that ``measurement_independent`` allows
OPERATOR: unit length of KCBS vectors, imaginary residue of expectation values
ARITHMETIC: hermiticity of every operator, probability-table entries and sums, the
    mutual-information clamp and the optimizer's rounding allowance on its own model; a quarter
    of it bounds CHSH observables squaring to 1 and the row sums of a model's tables, an
    eighth KCBS neighbour orthogonality
"""

NORMALIZATION = 1e-9
OPERATOR = 1e-10
ARITHMETIC = 1e-12
