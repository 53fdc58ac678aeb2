"""Independent reference computations used to check library results.

Everything here is deliberately written in the most direct way possible
(explicit loops, brute-force enumeration, characteristic polynomials) and
must not call into the code paths it is checking.  ``asset_path`` locates the
canned scenario files the package ships.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

import bellmd


def asset_path(name: str) -> Path:
    """Path of a canned scenario file shipped with the package."""
    return Path(bellmd.__file__).parent / "assets" / name


def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues via characteristic-polynomial roots (Faddeev-LeVerrier), dim <= 4."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    assert n <= 4, "closed-form characteristic polynomial intended for dim <= 4"
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ (m + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(m) / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)


def chsh_eight_placements(correlators: np.ndarray) -> float:
    """Max |E(ab) + E(ab') + E(a'b) - E(a'b')| over all setting/party relabelings."""
    e = np.asarray(correlators, dtype=float)
    best = 0.0
    for swap_a, swap_b, swap_parties in itertools.product((False, True), repeat=3):
        t = e.copy()
        if swap_a:
            t = t[::-1, :]
        if swap_b:
            t = t[:, ::-1]
        if swap_parties:
            t = t.T
        best = max(best, abs(t[0, 0] + t[0, 1] + t[1, 0] - t[1, 1]))
    return best


def entropy_direct(probabilities) -> float:
    total = 0.0
    for p in np.asarray(probabilities, dtype=float).reshape(-1):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def mutual_information_direct(joint: np.ndarray) -> float:
    joint = np.asarray(joint, dtype=float)
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = joint[i, j]
            if p > 0.0:
                total += p * math.log2(p / (rows[i] * cols[j]))
    return total


def lhv_correlators_direct(marg_lambda, alice_plus, bob_plus) -> np.ndarray:
    """E(a,b) for a setting-independent lambda distribution, by explicit sums."""
    marg_lambda = np.asarray(marg_lambda, dtype=float)
    alice_plus = np.asarray(alice_plus, dtype=float)
    bob_plus = np.asarray(bob_plus, dtype=float)
    n_a, n_b = alice_plus.shape[0], bob_plus.shape[0]
    out = np.zeros((n_a, n_b))
    for a in range(n_a):
        for b in range(n_b):
            for l, w in enumerate(marg_lambda):
                da = 2.0 * alice_plus[a, l] - 1.0
                db = 2.0 * bob_plus[b, l] - 1.0
                out[a, b] += w * da * db
    return out


def kcbs_cycle_sum(signs) -> int:
    return sum(signs[i] * signs[(i + 1) % 5] for i in range(5))


def random_unit_bloch(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def bloch_observable(direction: np.ndarray) -> np.ndarray:
    x, y, z = direction
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rotated_zx(angle: float) -> np.ndarray:
    """cos(angle) sigma_z + sin(angle) sigma_x: a +/-1-valued spin observable in the zx plane."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def checked_expectations(ops, state) -> np.ndarray:
    """<state|A|state> of every A in a stack of shape (..., d, d) and a ``StateVector``.

    The checked reference for the library's one evaluator, which trusts its
    callers' checks: every A must be finite and within 1e-12 of its adjoint,
    and is then evaluated alone, as np.vdot(psi, A psi).
    """
    arr = np.asarray(ops, dtype=complex)
    psi = state.amplitudes
    values = []
    for a in arr.reshape(-1, psi.size, psi.size):
        assert np.isfinite(a).all() and np.abs(a - a.conj().T).max() <= 1e-12, "not hermitian"
        values.append(np.vdot(psi, a @ psi).real)
    return np.array(values).reshape(arr.shape[:-2])


def perturbed_observable(direction: np.ndarray, stretch: float, shift: float,
                         skew: float) -> np.ndarray:
    """(1 + stretch) n.sigma + shift * 1, plus ``skew`` on entry [0, 1] alone.

    The skew gives max |A - A^dagger| = |skew|.  It points along the
    off-diagonal direction whose hermitian part is orthogonal to n in Bloch
    space, so it leaves A^2 unchanged to first order; stretch and shift alone
    move A^2 - 1, by about 2 |stretch| + 2 |shift|.
    """
    x, y, _ = direction
    a = (1.0 + stretch) * bloch_observable(direction) + shift * np.eye(2)
    a[0, 1] += skew * complex(y, x) / max(math.hypot(x, y), 1e-300)
    return a


def top_eigenvector(matrix: np.ndarray) -> np.ndarray:
    """Unit eigenvector of a hermitian matrix for its largest eigenvalue."""
    _, vecs = np.linalg.eigh(matrix)
    v = vecs[:, -1]
    return v / np.linalg.norm(v)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def min_bits_closed_form(s: float) -> float:
    """Least dependence (bits) reaching CHSH value s under uniform 2x2 settings.

    The rate-distortion closed form I(s) = 2 - h(x) - (1 - x) log2 3 with
    x = (4 - s) / 8.  It is evaluated in the offset d = s - 2, as
    x log2(4x) + (1 - x) log2(4(1 - x)/3) with 4x = 1 - d/2 and
    4(1 - x)/3 = 1 + d/6, so it keeps full relative precision near s = 2.
    """
    d = s - 2.0
    if d <= 0.0:
        return 0.0
    assert d <= 2.0, "CHSH values above 4 are not reachable"
    first = (2.0 - d) / 8.0 * math.log1p(-d / 2.0) if d < 2.0 else 0.0
    return (first + (6.0 + d) / 8.0 * math.log1p(d / 6.0)) / math.log(2.0)


def max_chsh_closed_form(bits: float) -> float:
    """Largest CHSH value reachable within ``bits``: min_bits_closed_form inverted by bisection."""
    lo, hi = 2.0, 4.0
    if min_bits_closed_form(hi) <= bits:
        return hi
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if min_bits_closed_form(mid) <= bits:
            lo = mid
        else:
            hi = mid
    return lo


def chsh_quantum_reference(alice, bob, state) -> tuple[np.ndarray, np.ndarray]:
    """(correlators, joint table) of two-qubit observables, one np.kron at a time.

    ``alice`` and ``bob`` hold two 2x2 +/-1-valued observables each.  The
    joint table is indexed [i, j, x, y] with outcome 0 for +1 and 1 for -1.
    """
    psi = np.asarray(state, dtype=complex)
    eye = np.eye(2)
    corr = np.zeros((2, 2))
    joint = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            corr[i, j] = np.vdot(psi, np.kron(alice[i], bob[j]) @ psi).real
            for x, sign_a in enumerate((1.0, -1.0)):
                for y, sign_b in enumerate((1.0, -1.0)):
                    pa = (eye + sign_a * np.asarray(alice[i])) / 2.0
                    pb = (eye + sign_b * np.asarray(bob[j])) / 2.0
                    joint[i, j, x, y] = np.vdot(psi, np.kron(pa, pb) @ psi).real
    return corr, joint


def kcbs_reference(vectors, state) -> float:
    """sum_i <state| A_i A_{i+1} |state> with A_i = 2 |v_i><v_i| - 1, one product at a time."""
    psi = np.asarray(state, dtype=complex)
    ops = [2.0 * np.outer(v, v) - np.eye(3) for v in np.asarray(vectors, dtype=float)]
    return sum(np.vdot(psi, ops[i] @ ops[(i + 1) % 5] @ psi).real for i in range(5))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random proper rotation of real 3-space."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def sample_outcomes_reference(p, trials: int, seed: int) -> np.ndarray:
    """Outcome indices drawn by numpy's own weighted ``choice`` on the normalized p."""
    p = np.asarray(p, dtype=float)
    return np.random.default_rng(seed).choice(4, size=trials, p=p / p.sum())


def teleport_file_before_sampler(data: bytes) -> bytes:
    """The bytes a teleport run wrote before its file held a ``sampler`` record, from ``data``.

    That file ended in ``outcomes``, one digit per trial, where the new one
    ends in ``sampler``.  Its ``summary`` and ``transcripts`` are the new
    file's, byte for byte.  The digits are the forced outcome repeated, or the
    draws of numpy's own ``choice`` (``sample_outcomes_reference``) on the
    transcripts' probabilities, with the recorded seed and trial count.
    """
    text = data.decode("utf-8")
    head, sep, _ = text.partition(',\n  "sampler": ')
    assert sep, "the sampler record is the last field of a teleport file"
    doc = json.loads(text)
    sampler = doc["sampler"]
    if sampler["forced_outcome"] is None:
        p = [t["outcome_probability"] for t in doc["transcripts"]]
        outcomes = sample_outcomes_reference(p, sampler["trials"], sampler["seed"])
    else:
        outcomes = np.full(sampler["trials"], sampler["forced_outcome"])
    digits = "".join(str(k) for k in outcomes.tolist())
    return (head + ',\n  "outcomes": "' + digits + '"\n}\n').encode("utf-8")


def operator_from_doc(data, context: str, name: str):
    """``OperatorMatrix`` of one [re, im] matrix document, decoded and checked alone.

    The one-by-one reference for the CHSH decode, which checks a scenario's
    four observables as one stack in ``ChshScenario``.  It reuses the
    library's pair conversion and ``OperatorMatrix``'s own checks, which are
    not the path it is compared with.  A square matrix that fails on its
    entries (finite, then hermitian) is named as ``name``, the observable it
    stands for, as ``ChshScenario`` names it.
    """
    from bellmd.errors import InputError
    from bellmd.hilbert import OperatorMatrix
    from bellmd.serialize import _pairs_to_complex

    values = _pairs_to_complex(data, context)
    if values.ndim != 2:
        raise InputError(f"{context}: operator must be a matrix of [re, im] pairs")
    try:
        return OperatorMatrix(values)
    except InputError as exc:
        if values.shape[0] != values.shape[1] or values.shape[0] == 0:
            raise  # the shape error, which names no observable
        raise InputError(f"{name}: {exc}") from None


def setting_lambda_joint(model) -> np.ndarray:
    """(hidden variable, joint setting) table of a model: its setting marginal times its rows."""
    return (model.setting_space.marginal[:, None] * model.lambda_given_settings).T


def checked_mutual_information(joint) -> float:
    """I(row; col) in bits of a joint table, checked as a distribution and then scored.

    The checked reference for ``cmd``, which scores a model's weights without
    a re-check: the table passes the library's distribution check as one
    flat row, then goes to the scoring that ``cmd`` and ``mi --table`` share.
    """
    from bellmd import lhv
    from bellmd.infotheory import _mutual_information_bits

    arr = np.array(joint, dtype=float)
    table = lhv._distribution_rows("joint distribution", arr.reshape(-1)).reshape(arr.shape)
    return _mutual_information_bits(table, table.sum(axis=1), table.sum(axis=0))


def teleport_branches_reference(a: complex, b: complex) -> list[tuple[float, np.ndarray]]:
    """(probability, corrected receiver state) of each teleport outcome, by np.kron.

    The sender's qubit a|0> + b|1> and the pair (|00> + |11>)/sqrt(2) form
    the three-qubit state as one ``np.kron``; each entangled-basis vector,
    itself built from ``np.kron`` of basis states, is contracted with the
    sender's two qubits one at a time, and the Pauli correction of its
    outcome is applied to the receiver's qubit.
    """
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    r = 1.0 / math.sqrt(2.0)
    basis = [r * (np.kron(zero, zero) + np.kron(one, one)),
             r * (np.kron(zero, zero) - np.kron(one, one)),
             r * (np.kron(zero, one) + np.kron(one, zero)),
             r * (np.kron(zero, one) - np.kron(one, zero))]
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    corrections = [np.eye(2), z, x, z @ x]
    sent = np.array([a, b], dtype=complex)
    total = np.kron(sent, basis[0])
    branches = []
    for vector, correction in zip(basis, corrections):
        receiver = np.array([np.vdot(np.kron(vector, basis_bit), total)
                             for basis_bit in (zero, one)])
        prob = float(np.vdot(receiver, receiver).real)
        branches.append((prob, correction @ (receiver / math.sqrt(prob))))
    return branches
