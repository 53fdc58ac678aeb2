"""Correctness checks for every benchmark op.

Each ``check_*`` function returns a list of problems; an empty list means
the op passed.  The references are plain numpy written from the
definitions, and never call into bellmd.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

TOL = 1e-9
KCBS_QUANTUM_MIN = 5.0 - 4.0 * math.sqrt(5.0)
TELEPORT_TRIALS = 100_000


def _close(label: str, got, want, problems: list[str]) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    if not err <= TOL:  # also catches NaN
        problems.append(f"{label} differs from the reference by {err:.3g}")


def _chsh(corr: np.ndarray) -> float:
    """max over the four correlators of |sum E - 2 E_i|."""
    return float(max(abs(corr.sum() - 2.0 * e) for e in corr.reshape(-1)))


# --- score ------------------------------------------------------------------

def lhv_reference(marginal, lgs, ra, rb) -> dict:
    """Correlators, joint table, CHSH and dependence of a 2x2 model, by explicit sums."""
    corr = np.zeros((2, 2))
    joint = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            w = lgs[2 * a + b]
            corr[a, b] = np.dot(w, (2.0 * ra[a] - 1.0) * (2.0 * rb[b] - 1.0))
            for x, qa in enumerate((ra[a], 1.0 - ra[a])):
                for y, qb in enumerate((rb[b], 1.0 - rb[b])):
                    joint[a, b, x, y] = np.dot(w, qa * qb)
    p_joint = marginal[:, None] * lgs  # p(setting, lambda)
    p_lambda = p_joint.sum(axis=0)
    bits = 0.0
    for s in range(4):
        for l in range(lgs.shape[1]):
            p = p_joint[s, l]
            if p > 0.0:
                bits += p * math.log2(p / (marginal[s] * p_lambda[l]))
    entropy = -sum(m * math.log2(m) for m in marginal if m > 0.0)
    return {"corr": corr, "joint": joint, "chsh": _chsh(corr), "bits": bits,
            "normalized": bits / entropy, "entropy": entropy}


def check_score(ref: dict, uniform: bool, table, s: float, report) -> list[str]:
    problems: list[str] = []
    _close("correlators", table.correlators, ref["corr"], problems)
    _close("joint table", table.joint, ref["joint"], problems)
    _close("chsh_value", s, ref["chsh"], problems)
    _close("raw_bits", report.raw_bits, ref["bits"], problems)
    _close("normalized", report.normalized, ref["normalized"], problems)
    _close("setting_entropy_bits", report.setting_entropy_bits, ref["entropy"], problems)
    if uniform and s > 2.0 and report.raw_bits < oracle.min_bits(min(s, 4.0)) - TOL:
        problems.append(f"{report.raw_bits!r} bits reach S={s!r}, below the closed form")
    return problems


# --- scenarios --------------------------------------------------------------

def chsh_quantum_reference(alice, bob, state) -> dict:
    """E(i, j) = <psi|A_i (x) B_j|psi> and p(x, y | i, j) from the (1 +/- A)/2 projectors."""
    eye = np.eye(2)
    corr = np.zeros((2, 2))
    joint = np.zeros((2, 2, 2, 2))
    for i, a in enumerate(alice):
        for j, b in enumerate(bob):
            corr[i, j] = np.vdot(state, np.kron(a, b) @ state).real
            for x, pa in enumerate(((eye + a) / 2.0, (eye - a) / 2.0)):
                for y, pb in enumerate(((eye + b) / 2.0, (eye - b) / 2.0)):
                    joint[i, j, x, y] = np.vdot(state, np.kron(pa, pb) @ state).real
    return {"corr": corr, "joint": joint, "chsh": _chsh(corr)}


def kcbs_reference(vectors, state) -> float:
    """sum_i <psi|A_i A_{i+1}|psi> with A_i = 2 v_i v_i^T - 1."""
    ops = [2.0 * np.outer(v, v) - np.eye(3) for v in vectors]
    total = sum(ops[i] @ ops[(i + 1) % 5] for i in range(5))
    return float(np.vdot(state, total @ state).real)


def check_chsh_scenario(ref: dict, table, s: float) -> list[str]:
    problems: list[str] = []
    _close("correlators", table.correlators, ref["corr"], problems)
    _close("joint table", table.joint, ref["joint"], problems)
    _close("chsh_value", s, ref["chsh"], problems)
    if not s <= oracle.TSIRELSON + TOL:
        problems.append(f"quantum CHSH {s!r} exceeds 2 sqrt 2")
    return problems


def check_kcbs_scenario(ref: float, value: float) -> list[str]:
    problems: list[str] = []
    _close("kcbs_value", value, ref, problems)
    if not value >= KCBS_QUANTUM_MIN - TOL:
        problems.append(f"KCBS value {value!r} is below the quantum minimum 5 - 4 sqrt 5")
    return problems


# --- optimize ---------------------------------------------------------------

TARGET_SLACK = 0.10
BUDGET_SHORTFALL = 0.01
TARGET_TOLERANCE_S = 1e-3  # the CHSH tolerance the search promises on a target


def check_target(target: float, s: float, bits: float) -> list[str]:
    """A --target-s result: reaches the target, and bits lie in [I(S), 1.1 I(T)]."""
    problems = []
    if not s >= target - TARGET_TOLERANCE_S:
        problems.append(f"model reaches S={s!r}, short of the target {target!r}")
    if not bits >= oracle.min_bits(min(s, 4.0)) - TOL:
        problems.append(f"{bits!r} bits at S={s!r} is below the closed form I(S)")
    if not bits <= (1.0 + TARGET_SLACK) * oracle.min_bits(target) + 1e-6:
        problems.append(f"{bits!r} bits exceeds 1.1 I(T) = "
                        f"{(1.0 + TARGET_SLACK) * oracle.min_bits(target)!r}")
    return problems


def check_budget(budget: float, s: float, bits: float) -> list[str]:
    """A --budget result: within the budget, and S in [S*(B) - 0.01, S*(bits)]."""
    problems = []
    if not bits <= budget + TOL:
        problems.append(f"{bits!r} bits exceeds the budget {budget!r}")
    if not s >= oracle.max_chsh(budget) - BUDGET_SHORTFALL:
        problems.append(f"S={s!r} is more than {BUDGET_SHORTFALL} below S*(B)="
                        f"{oracle.max_chsh(budget)!r}")
    if not s <= oracle.max_chsh(bits) + TOL:
        problems.append(f"S={s!r} exceeds the closed form S*(bits)={oracle.max_chsh(bits)!r}")
    return problems


# --- teleport ---------------------------------------------------------------

def check_teleport(rc: int, stdout: str, out_path: str, manifest: dict | None) -> list[str]:
    """Exit code, outcome counts and frequencies, fidelity, and the manifest's file list."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        summary = json.loads(stdout)
        counts = [int(c) for c in summary["outcome_counts"]]
        freqs = [float(f) for f in summary["outcome_frequencies"]]
        fidelity = float(summary["min_fidelity"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable stdout summary: {exc!r}"]
    problems = []
    if len(counts) != 4 or sum(counts) != TELEPORT_TRIALS:
        problems.append(f"outcome counts {counts} do not sum to {TELEPORT_TRIALS}")
    if len(freqs) != 4 or any(not abs(f - 0.25) <= 0.01 for f in freqs):
        problems.append(f"outcome frequencies {freqs} are not all within 0.01 of 1/4")
    if not fidelity >= 1.0 - 1e-12:
        problems.append(f"min_fidelity {fidelity!r} is below 1 - 1e-12")
    if manifest is None or out_path not in manifest.get("output_files", []):
        problems.append(f"manifest does not list {out_path}")
    return problems
