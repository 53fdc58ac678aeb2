"""The scoring kernel, ``LhvModel`` -> ``predict`` -> ``chsh_value`` -> ``cmd``, pinned bit for bit.

About 500 seeded random models go through the kernel: 1-3 settings per party, uniform
and random setting marginals, 1-64 hidden values (some never reached), binary and
fractional responses.  One sha256 covers every table's bytes and every float's
``float.hex``, so a rewrite of the kernel that moves one rounding anywhere changes the
digest.
"""

import hashlib

import numpy as np

from bellmd.inequalities import chsh_value
from bellmd.infotheory import cmd
from bellmd.lhv import LhvModel, SettingSpace, predict

DIGEST = "c808f0bf70628c7642028eba55dabccf29f489d43ef89fc4602926c436fd0394"


def random_model(rng) -> LhvModel:
    n_a, n_b = (2, 2) if rng.random() < 0.5 else tuple(rng.integers(1, 4, 2).tolist())
    lam = int(rng.integers(1, 65))
    marginal = rng.dirichlet(np.full(n_a * n_b, 2.0)) if rng.random() < 0.5 else None
    if marginal is not None and marginal.size > 1 and rng.random() < 0.25:
        marginal[0] = 0.0  # a setting that never occurs
        marginal /= marginal.sum()
    lgs = rng.dirichlet(np.full(lam, 10.0 ** rng.uniform(-1.0, 0.5)), size=n_a * n_b)
    if rng.random() < 0.25:  # hidden values that some settings never reach
        lgs[rng.random(lgs.shape) < 0.3] = 0.0
        lgs[:, 0] += lgs.sum(axis=1) == 0.0
        lgs /= lgs.sum(axis=1, keepdims=True)
    if rng.random() < 0.5:
        alice = rng.integers(0, 2, (n_a, lam)).astype(float)
        bob = rng.integers(0, 2, (n_b, lam)).astype(float)
    else:
        alice, bob = rng.random((n_a, lam)), rng.random((n_b, lam))
    return LhvModel(SettingSpace(n_a, n_b, marginal), lgs, alice, bob)


def kernel_digest() -> str:
    rng = np.random.default_rng(20250914)
    digest = hashlib.sha256()
    for _ in range(500):
        model = random_model(rng)
        table = predict(model)
        for arr in (model.lambda_given_settings, model.alice_response, model.bob_response,
                    table.joint, table.correlators):
            digest.update(arr.tobytes())
        if table.correlators.shape == (2, 2):
            digest.update(chsh_value(table).hex().encode())
        report = cmd(model)
        for value in (report.raw_bits, report.normalized, report.setting_entropy_bits):
            digest.update(value.hex().encode())
    return digest.hexdigest()


def test_scoring_kernel_is_bit_for_bit_pinned():
    assert kernel_digest() == DIGEST

