"""Fresh child processes for the tests: the CPU set-ups, the bit pins and one runner.

``CPU_PINS`` is the one table of bit pins, each with its record.  Run as a script
(``PYTHONPATH=src python tests/children.py``), it prints each pin's value as one JSON line,
``[name, value]``.  Only the standard library is imported at load; each pin imports what it
computes with.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# per-process switches of the kernels numpy, OpenBLAS and glibc pick for this CPU
CPU_SETUPS = {
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "x86-64-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "glibc-no-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA"},
}

# argv of each teleport run that ``teleport_golden_digests`` digests
GOLDEN_RUNS = (
    [["--random", "--seed", str(seed), "--trials", str(trials)]
     for seed in range(64) for trials in (1, 7, 1000)]
    + [["--a-re", a, "--b-re", b, "--seed", "3", "--trials", "1000"]
       for a, b in (("1", "0"), ("0", "1"), ("0.6", "0.8"), ("0.8", "-0.6"))]
    + [["--a-re", "0.6", "--b-re", "0.8", "--force-outcome", str(k), "--trials", "9"]
       for k in range(4)]
)

# the optimize runs whose data files the ``optimize data files`` pin digests
OPTIMIZE_GOLDEN_MODES = (("--target-s", "2.8284271247461903"), ("--budget", "0.03"),
                         ("--curve", "0,0.01,0.05,0.2075"))


def teleport_golden_digests() -> list[str]:
    """sha256 over rc, stdout and data file of each ``GOLDEN_RUNS`` run.

    One digest of the files as written, with the sampler record, and one of the files
    as written before that record, rebuilt from it.
    """
    from bellmd.cli import main
    from oracles import teleport_file_before_sampler

    digest, old_digest = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "run.json")
        for argv in GOLDEN_RUNS:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(["teleport", *argv, "--out", str(out)])
            printed, data = stdout.getvalue().encode(), out.read_bytes()
            digest.update(b"%d\n%s\n%s\n" % (code, printed, data))
            old_digest.update(b"%d\n%s\n%s\n" % (code, printed, teleport_file_before_sampler(data)))
    return [digest.hexdigest(), old_digest.hexdigest()]


def optimize_data_file_digests(modes=OPTIMIZE_GOLDEN_MODES) -> dict[str, dict[str, str]]:
    """Each mode, joined -> the sha256 of each data file but the manifest that it writes."""
    from bellmd.cli import main

    digests = {}
    for mode in modes:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            if main(["optimize", *mode, "--out-dir", tmp]) != 0:
                raise RuntimeError(f"optimize {' '.join(mode)} failed")
            digests[" ".join(mode)] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                       for p in Path(tmp).iterdir() if p.name != "manifest.json"}
    return digests


def _unit(v: list) -> list:
    """v / |v|, the norm taken from a correctly rounded sum of the rounded squares."""
    norm = math.sqrt(math.fsum(x * x for x in v))
    return [x / norm for x in v]


def seeded_scenario_documents(seed: int) -> tuple[list, list]:
    """64 CHSH and 32 KCBS documents, drawn from the generator that the benchmark's scenarios
    workload uses and built in real arithmetic, so that no step goes through BLAS and the
    documents are the same on every CPU.

    A Bloch direction or a state is a Gaussian draw over its norm (``_unit``).  A KCBS
    rotation is the rotation of a unit quaternion, and each rotated vector's component is a
    correctly rounded sum of three products.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 2])

    def observable() -> list:  # [[z, x - iy], [x + iy, -z]] as [re, im] pairs
        x, y, z = _unit(rng.normal(size=3).tolist())
        return [[[z, 0.0], [x, -y]], [[x, y], [-z, 0.0]]]

    def state(dim: int) -> list:  # real parts drawn first, then imaginary parts
        u = _unit(rng.normal(size=dim).tolist() + rng.normal(size=dim).tolist())
        return [[re, im] for re, im in zip(u[:dim], u[dim:])]

    def rotation() -> list:
        w, x, y, z = _unit(rng.normal(size=4).tolist())
        return [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]

    chsh = [{"alice_observables": [observable() for _ in range(2)],
             "bob_observables": [observable() for _ in range(2)],
             "state": state(4)} for _ in range(64)]
    cos_sq = math.cos(math.pi / 5.0) / (1.0 + math.cos(math.pi / 5.0))
    cos_t, sin_t = math.sqrt(cos_sq), math.sqrt(1.0 - cos_sq)
    pentagram = [[sin_t * math.cos(4.0 * math.pi * k / 5.0),
                  sin_t * math.sin(4.0 * math.pi * k / 5.0), cos_t] for k in range(5)]
    kcbs = []
    for _ in range(32):
        r = rotation()
        kcbs.append({"vectors": [[math.fsum(a * b for a, b in zip(v, row)) for row in r]
                                 for v in pentagram],
                     "state": state(3)})
    return chsh, kcbs


def scenario_document_digests() -> list[str]:
    """sha256 of the JSON text of the seed-13 CHSH documents, then of the KCBS documents."""
    return [hashlib.sha256(json.dumps(docs).encode()).hexdigest()
            for docs in seeded_scenario_documents(13)]


def scenario_evaluation_digest() -> str:
    """sha256 over the joint table and CHSH value of each seed-13 CHSH document, and the KCBS
    value of each KCBS document, decoded from its JSON text as a scenario file is."""
    from bellmd.inequalities import chsh_quantum, chsh_value, kcbs_value
    from bellmd.serialize import chsh_scenario_from_doc, kcbs_scenario_from_doc

    chsh, kcbs = seeded_scenario_documents(13)
    digest = hashlib.sha256()
    for doc in chsh:
        table = chsh_quantum(chsh_scenario_from_doc(json.loads(json.dumps(doc))))
        digest.update(table.joint.tobytes())
        digest.update(repr(chsh_value(table)).encode())
    for doc in kcbs:
        value = kcbs_value(kcbs_scenario_from_doc(json.loads(json.dumps(doc))))
        digest.update(repr(value).encode())
    return digest.hexdigest()


def kcbs_pentagram_digest() -> str:
    """sha256 of the bytes of ``kcbs_pentagram()``'s vectors."""
    from bellmd.inequalities import kcbs_pentagram

    return hashlib.sha256(kcbs_pentagram().vectors.tobytes()).hexdigest()


def kcbs_asset_digest() -> str:
    """sha256 of the bytes of ``kcbs-pentagram.json``'s vectors as read: the pentagram's record."""
    from bellmd.serialize import read_kcbs_scenario
    from oracles import asset_path

    return hashlib.sha256(
        read_kcbs_scenario(asset_path("kcbs-pentagram.json")).vectors.tobytes()).hexdigest()


def scoring_models(count: int):
    """The first ``count`` seeded random models of the scoring kernel's sweep: 1-3 settings per
    party, uniform or random marginals (some never occurring), 1-64 hidden values (some never
    reached), binary or fractional responses."""
    import numpy as np
    from bellmd.lhv import LhvModel, SettingSpace

    rng = np.random.default_rng(20250914)
    for _ in range(count):
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
        yield LhvModel(SettingSpace(n_a, n_b, marginal), lgs, alice, bob)


def scoring_kernel_digest() -> str:
    """sha256 over ``LhvModel`` -> ``predict`` -> ``chsh_value`` -> ``cmd`` on 500 scoring models:
    every table's bytes and every float's ``float.hex``, so one moved rounding changes it."""
    from bellmd.inequalities import chsh_value
    from bellmd.infotheory import cmd
    from bellmd.lhv import predict

    digest = hashlib.sha256()
    for model in scoring_models(500):
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


# pin name -> (the function that computes its value, in JSON types; its record, or the function
# that reads it).  The scenario documents are the scenario evaluation's inputs
CPU_PINS = {
    "teleport golden runs": (teleport_golden_digests, [
        "e3cb98c26ea810be2be0f4fe8b90ef89b97f21c24a066bd518b8363c4f410560",
        "ae7420dcc1bde69d06cd11932da6ef970c91980404780327215b99e545f2182c"]),
    # the values written before LhvModel checked its tables in one pass and cmd scored the
    # weights directly, in shortest round-trip float text
    "optimize data files": (optimize_data_file_digests, {
        "--target-s 2.8284271247461903": {
            "min_cmd_model.json": "57fabe394b88231a42dc13dbd17377f3905c422337e64ba2748892681f6be0bc",
            "min_cmd_report.json": "ab44b4686005b822fedc0fa04103d1a37d949506aac598c4635cc36c11917513"},
        "--budget 0.03": {
            "budget_model.json": "2e9219a2985c0c6164f30cff858fe1103b482f581bf01d977f65b25161d8076e",
            "budget_report.json": "cb7e734b73ec7fbb0bb7dcd14590a30a8654beb11693d9ee1371cae8e0934931"},
        "--curve 0,0.01,0.05,0.2075": {
            "curve.csv": "7caa4841e458cb8b2311415980addfa6eac4477f2b700ed59e78184fd579a259",
            "curve_model_0.json": "5771f7208767f19e12555ecbaabab6a58d47a3ef6db84f861d223e3dc7e94e6f",
            "curve_model_1.json": "97e7a3475dc464637d3efb671adb21219be9d94843261586072a6547534e5baf",
            "curve_model_2.json": "ac10762299a3bebd87bbb9becb05f5ba6c1928801f5186587c5a7bc07fa31c10",
            "curve_model_3.json": "48097fa80337df8d9fb2cd9ff57915d0d1865d1b53612d5cf419b62cb00b24e7"}}),
    "scenario documents": (scenario_document_digests, [
        "00252175b55ebfbf25e098a5805846ec4680fedb9ee9b431290577f5cc7ac46e",
        "b3ebacb1c18c22ea8d99c3cb1600c1c8f57438067cbec6db855c7dcbf2d93426"]),
    "kcbs_pentagram vectors": (kcbs_pentagram_digest, kcbs_asset_digest),
    "scoring kernel": (scoring_kernel_digest,
                       "c808f0bf70628c7642028eba55dabccf29f489d43ef89fc4602926c436fd0394"),
    "scenario evaluation": (scenario_evaluation_digest,
                            "b6f2f1b03722a682cdde78f10888104a4202d95f82fc85f7b6eefeb8131872d8"),
}


def run_all(jobs: dict, cwd=None) -> dict[str, subprocess.CompletedProcess]:
    """name -> the run of each job, (python's arguments, environment switches), in a fresh
    interpreter with ``src`` put first on the ``PYTHONPATH`` it would have.  Every child
    starts before the first is waited on, and none outlives the call: one still running is
    killed and reaped."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with contextlib.ExitStack() as stack:
        procs = {}
        for name, (args, switches) in jobs.items():
            env = {**os.environ, **switches}
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            procs[name] = stack.enter_context(subprocess.Popen(
                [sys.executable, *args], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            stack.callback(procs[name].kill)  # runs first on exit; a no-op once it has ended
        runs = {}
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            runs[name] = subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)
        return runs


if __name__ == "__main__":
    for name, (compute, _) in CPU_PINS.items():
        print(json.dumps([name, compute()]), flush=True)
