"""The four benchmark workloads.

Each is a closed loop driven by one client in one thread: op ``i`` starts
only after op ``i - 1`` has returned and been checked.  ``setup`` makes
every input from the workload seed; ``op`` is the timed call into bellmd;
``check`` runs outside the timed region and returns the op's problems.
Op ``i`` is the same call in every pass of one run, so a traced pass can
be compared op by op with an untraced one.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import oracle
from tracing import file_size, text_size

# (module, attribute, span name, byte measure): every public function a
# workload reaches, at the attribute its caller looks it up from.
TRACED_CALLS = (
    ("cli", "main", "cli.main", None),
    ("cli", "min_cmd_for_chsh", "mdsearch.solve", None),
    ("cli", "max_chsh_under_budget", "mdsearch.solve", None),
    ("lhv", "LhvModel", "lhv.model_init", None),
    ("mdsearch", "LhvModel", "lhv.model_init", None),
    ("lhv", "predict", "lhv.predict", None),
    ("infotheory", "cmd", "infotheory.cmd", None),
    ("mdsearch", "cmd", "infotheory.cmd", None),
    ("inequalities", "chsh_value", "inequalities.chsh_value", None),
    ("inequalities", "chsh_quantum", "inequalities.chsh_quantum", None),
    ("inequalities", "kcbs_value", "inequalities.kcbs_value", None),
    ("inequalities", "expectation", "hilbert.expectation", None),
    ("inequalities", "tensor_op", "hilbert.tensor_op", None),
    ("serialize", "read_chsh_scenario", "serialize.decode", file_size),
    ("serialize", "read_kcbs_scenario", "serialize.decode", file_size),
    ("cli", "dump_json", "serialize.encode", file_size),
    ("cli", "write_model", "serialize.encode", file_size),
    ("cli", "dumps_json", "serialize.encode", text_size),
    ("cli", "run_teleportation", "teleport.run_teleportation", None),
    ("cli", "branch_decomposition", "teleport.branch_decomposition", None),
)


def _run_cli(bm, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = bm.cli.main(argv)
    return rc, (out.getvalue() + err.getvalue()) if rc else out.getvalue()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


class Workload:
    """Base: subclasses set ``name``, ``cycle`` and implement setup/op/check."""

    name = ""
    cycle = 1  # ops after which the kinds of op repeat; a traced pass runs at least one cycle
    # a CLI op stands for one bellmd process, which starts with no garbage
    # left by earlier ops, so the loop collects it before the op's timer starts
    collect_before_op = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.bm = None
        self.reset_records()

    def reset_records(self) -> None:
        """Forget per-pass records: output bytes per op and solution quality."""
        self.output_bytes: list[int] = []
        self.quality: dict[str, list[float]] = {"excess_rel": [], "chsh_shortfall": []}

    def setup(self, bm) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError


# --- optimize ---------------------------------------------------------------

class Optimize(Workload):
    """``bellmd optimize`` in process: --target-s and --budget ops alternate.

    Op ``i`` is a target op when ``seed + i`` is even, so a run too short
    for a second op still covers both directions across seeds.
    """

    name = "optimize"
    collect_before_op = True
    POOL = 256

    def setup(self, bm) -> None:
        oracle.self_check()
        self.bm = bm
        rng = np.random.default_rng([self.seed, 0])
        self.targets = rng.uniform(2.05, oracle.TSIRELSON, self.POOL)
        self.budgets = rng.uniform(0.005, 0.3, self.POOL)
        self.op_seeds = rng.integers(0, 2**31 - 1, self.POOL)

    def _spec(self, i: int) -> tuple[str, float, Path]:
        k = i % self.POOL
        kind = "target" if (self.seed + i) % 2 == 0 else "budget"
        value = float(self.targets[k] if kind == "target" else self.budgets[k])
        return kind, value, self.workdir / f"optimize-{i}"

    def op(self, i: int):
        kind, value, out_dir = self._spec(i)
        flag = "--target-s" if kind == "target" else "--budget"
        return _run_cli(self.bm, ["optimize", flag, repr(value),
                                  "--seed", str(int(self.op_seeds[i % self.POOL])),
                                  "--out-dir", str(out_dir)])

    def check(self, i: int, result) -> list[str]:
        rc, text = result
        kind, value, out_dir = self._spec(i)
        try:
            if rc != 0:
                return [f"exit code {rc}: {text.strip()}"]
            self.output_bytes.append(_dir_bytes(out_dir))
            model = self.bm.serialize.read_model(
                out_dir / ("min_cmd_model.json" if kind == "target" else "budget_model.json"))
            s = self.bm.inequalities.chsh_value(self.bm.lhv.predict(model))
            bits = self.bm.infotheory.cmd(model).raw_bits
            if kind == "target":
                self.quality["excess_rel"].append(bits / oracle.min_bits(value) - 1.0)
                return checks.check_target(value, s, bits)
            self.quality["chsh_shortfall"].append(oracle.max_chsh(value) - s)
            return checks.check_budget(value, s, bits)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# --- score ------------------------------------------------------------------

@dataclass
class _ModelInput:
    space: object
    marginal: np.ndarray
    lgs: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    uniform: bool


class Score(Workload):
    """Build an LhvModel in memory, then predict, chsh_value and cmd on it."""

    name = "score"
    POOL = 2048

    def setup(self, bm) -> None:
        self.bm = bm
        rng = np.random.default_rng([self.seed, 1])
        uniform_space = bm.lhv.SettingSpace()
        self.inputs = []
        for _ in range(self.POOL):
            lam = int(round(math.exp(rng.uniform(math.log(2), math.log(64)))))
            lgs = rng.dirichlet(np.full(lam, 10.0 ** rng.uniform(-1.0, 0.5)), size=4)
            if rng.random() < 0.5:
                ra = rng.integers(0, 2, (2, lam)).astype(float)
                rb = rng.integers(0, 2, (2, lam)).astype(float)
            else:
                ra, rb = rng.random((2, lam)), rng.random((2, lam))
            if rng.random() < 0.25:
                marginal = rng.dirichlet(np.full(4, 4.0))
                space = bm.lhv.SettingSpace(marginal=marginal)
            else:
                marginal, space = np.full(4, 0.25), uniform_space
            self.inputs.append(_ModelInput(space, marginal, lgs, ra, rb, space is uniform_space))
        self.references: dict[int, dict] = {}

    def op(self, i: int):
        x = self.inputs[i % self.POOL]
        model = self.bm.lhv.LhvModel(x.space, x.lgs, x.ra, x.rb)
        table = self.bm.lhv.predict(model)
        return table, self.bm.inequalities.chsh_value(table), self.bm.infotheory.cmd(model)

    def check(self, i: int, result) -> list[str]:
        k = i % self.POOL
        x = self.inputs[k]
        if k not in self.references:
            self.references[k] = checks.lhv_reference(x.marginal, x.lgs, x.ra, x.rb)
        return checks.check_score(self.references[k], x.uniform, *result)


# --- scenarios --------------------------------------------------------------

def _bloch_observable(rng) -> np.ndarray:
    n = rng.normal(size=3)
    x, y, z = n / np.linalg.norm(n)
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]])


def _random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _pentagram() -> np.ndarray:
    cos_sq = math.cos(math.pi / 5.0) / (1.0 + math.cos(math.pi / 5.0))
    ct, st = math.sqrt(cos_sq), math.sqrt(1.0 - cos_sq)
    return np.array([[st * math.cos(4.0 * math.pi * k / 5.0),
                      st * math.sin(4.0 * math.pi * k / 5.0), ct] for k in range(5)])


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


class Scenarios(Workload):
    """Read a CHSH or KCBS scenario file and evaluate it; 3 CHSH ops to 1 KCBS op."""

    name = "scenarios"
    cycle = 4
    CHSH_FILES = 96
    KCBS_FILES = 32

    def setup(self, bm) -> None:
        self.bm = bm
        rng = np.random.default_rng([self.seed, 2])
        folder = self.workdir / "scenarios"
        folder.mkdir(parents=True, exist_ok=True)
        self.chsh, self.kcbs = [], []
        for k in range(self.CHSH_FILES):
            alice = [_bloch_observable(rng) for _ in range(2)]
            bob = [_bloch_observable(rng) for _ in range(2)]
            state = _random_state(rng, 4)
            path = folder / f"chsh-{k}.json"
            path.write_text(json.dumps({
                "alice_observables": [_pairs(a) for a in alice],
                "bob_observables": [_pairs(b) for b in bob],
                "state": _pairs(state)}, indent=2) + "\n", encoding="utf-8")
            self.chsh.append((str(path), (alice, bob, state)))
        pentagram = _pentagram()
        for k in range(self.KCBS_FILES):
            vectors = pentagram @ _random_rotation(rng).T
            state = _random_state(rng, 3)
            path = folder / f"kcbs-{k}.json"
            path.write_text(json.dumps({"vectors": vectors.tolist(), "state": _pairs(state)},
                                       indent=2) + "\n", encoding="utf-8")
            self.kcbs.append((str(path), (vectors, state)))
        self.references: dict[tuple[str, int], object] = {}

    def _spec(self, i: int) -> tuple[str, int]:
        if i % 4 == 3:
            return "kcbs", (i // 4) % self.KCBS_FILES
        return "chsh", (i - i // 4) % self.CHSH_FILES

    def op(self, i: int):
        kind, k = self._spec(i)
        bm = self.bm
        if kind == "chsh":
            table = bm.inequalities.chsh_quantum(bm.serialize.read_chsh_scenario(self.chsh[k][0]))
            return table, bm.inequalities.chsh_value(table)
        return bm.inequalities.kcbs_value(bm.serialize.read_kcbs_scenario(self.kcbs[k][0]))

    def check(self, i: int, result) -> list[str]:
        kind, k = self._spec(i)
        if (kind, k) not in self.references:
            self.references[kind, k] = (checks.chsh_quantum_reference(*self.chsh[k][1])
                                        if kind == "chsh"
                                        else checks.kcbs_reference(*self.kcbs[k][1]))
        ref = self.references[kind, k]
        if kind == "chsh":
            return checks.check_chsh_scenario(ref, *result)
        return checks.check_kcbs_scenario(ref, result)


# --- teleport ---------------------------------------------------------------

class Teleport(Workload):
    """``bellmd teleport --random --trials 100000 --out``, the README example, in process."""

    name = "teleport"
    collect_before_op = True

    def setup(self, bm) -> None:
        self.bm = bm
        self.first_seed = int(np.random.default_rng([self.seed, 3]).integers(0, 2**30))
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _path(self, i: int) -> str:
        return str(self.workdir / f"teleport-{i}.json")

    def op(self, i: int):
        return _run_cli(self.bm, ["teleport", "--random", "--seed", str(self.first_seed + i),
                                  "--trials", str(checks.TELEPORT_TRIALS),
                                  "--out", self._path(i)])

    def check(self, i: int, result) -> list[str]:
        rc, stdout = result
        out = Path(self._path(i))
        manifest_path = Path(str(out) + ".manifest.json")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if rc == 0 else None
            if rc == 0:
                self.output_bytes.append(out.stat().st_size + manifest_path.stat().st_size)
            return checks.check_teleport(rc, stdout, str(out), manifest)
        finally:
            out.unlink(missing_ok=True)
            manifest_path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Optimize, Score, Scenarios, Teleport)}
