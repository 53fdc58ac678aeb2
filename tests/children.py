"""Fresh child processes for the tests: the CPU set-ups, the bit pins and one runner.

Run as a script (``PYTHONPATH=src python tests/children.py``), it prints each pin of
``CPU_PINS`` as one JSON line, ``[name, value]``.  Only the standard library is imported at
load; each pin imports what it computes with.
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

# the optimize runs whose data files ``TestOptimizeCommand.GOLDEN_DATA_FILES`` pins
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


def optimize_data_file_digests(mode: tuple[str, str]) -> dict[str, str]:
    """sha256 of every data file (all but the manifest) that ``optimize`` writes in ``mode``."""
    from bellmd.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["optimize", *mode, "--out-dir", tmp])
        if code != 0:
            raise RuntimeError(f"optimize {' '.join(mode)} exited {code}")
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in Path(tmp).iterdir() if p.name != "manifest.json"}


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


def kcbs_pentagram_digest() -> str:
    """sha256 of the bytes of ``kcbs_pentagram()``'s vectors."""
    from bellmd.inequalities import kcbs_pentagram

    return hashlib.sha256(kcbs_pentagram().vectors.tobytes()).hexdigest()


# pin name -> the function that computes its value, in JSON types.  The scenario documents are
# the scenario pin's inputs; the pin itself still moves with the CPU's matrix product kernels
CPU_PINS = {
    "teleport golden runs": teleport_golden_digests,
    "scenario documents": scenario_document_digests,
    "kcbs_pentagram vectors": kcbs_pentagram_digest,
    "optimize data files": lambda: {" ".join(mode): optimize_data_file_digests(mode)
                                    for mode in OPTIMIZE_GOLDEN_MODES},
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
    for name, pin in CPU_PINS.items():
        print(json.dumps([name, pin()]), flush=True)
