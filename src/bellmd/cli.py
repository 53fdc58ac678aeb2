"""Command-line front end.

One subcommand per capability: ``teleport`` runs the protocol, ``chsh`` and
``kcbs`` evaluate inequalities, ``mi`` computes mutual information, and
``optimize`` drives the dependence/CHSH search.  Data outputs are
byte-reproducible under a fixed seed; every run that writes data files also
writes a manifest referencing them (the manifest itself carries wall-clock
timing and is the one file excluded from byte reproducibility).

Exit codes: 0 success, 2 usage or input error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, InvariantError
from .infotheory import _mutual_information_bits, cmd
from .inequalities import (
    KCBS_QUANTUM_OPTIMAL,
    chsh_quantum,
    chsh_value,
    kcbs_classical_min,
    kcbs_pentagram,
    kcbs_value,
    lhv_chsh_max,
)
from .lhv import _distribution_rows, predict
from .mdsearch import max_chsh_under_budget, min_cmd_for_chsh, tradeoff_curve
from .serialize import (
    _read_bytes,
    chsh_scenario_from_doc,
    dump_json,
    dumps_json,
    model_from_doc,
    parse_json,
    read_kcbs_scenario,
    read_model,
    write_curve_csv,
    write_model,
)
from .teleport import (
    OUTCOME_DRAW,
    TeleportInput,
    branch_transcripts,
    outcome_counts,
    verify_no_setting_choice,
)
# the benchmark tracer (bench/workloads.py) wraps these two names in this module
from .teleport import branch_decomposition, run_teleportation  # noqa: F401


class _Manifest:
    """Collects inputs/outputs of one subcommand run and writes the manifest file."""

    def __init__(self, subcommand: str, config: dict, seed: int | None):
        self.subcommand = subcommand
        self.config = config
        self.seed = seed
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self._started = time.monotonic()

    def add_input(self, path: Path | str) -> bytes:
        """Record the sha256 of ``path`` and return the bytes it digests, read once."""
        import hashlib  # here, not at the top: only runs that digest pay its ~3 ms (OpenSSL)

        data = _read_bytes(path)
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        return data

    def write(self, path: Path | str) -> None:
        doc = {
            "subcommand": self.subcommand,
            "configuration": self.config,
            "input_digests": self.inputs,
            "output_files": self.outputs,
            "seed": self.seed,
            "tool_version": __version__,
            "duration_seconds": time.monotonic() - self._started,
        }
        dump_json(path, doc)


def _write_out(files, manifest: _Manifest, manifest_path: Path) -> None:
    """Write each (path, writer, value) data file, then the manifest beside them.

    The directory is created first.  A run prints its summary only after this
    returns, so a failed write leaves stdout empty.
    """
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    for path, write, value in files:
        write(path, value)
        manifest.outputs.append(str(path))
    manifest.write(manifest_path)


def _resolve_input(inp_args) -> TeleportInput:
    if inp_args.random:
        rng = np.random.default_rng(inp_args.seed)
        raw = rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        return TeleportInput(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
    return TeleportInput(
        complex(inp_args.a_re, inp_args.a_im), complex(inp_args.b_re, inp_args.b_im)
    )


def cmd_teleport(args) -> int:
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    manifest = _Manifest(
        "teleport",
        {
            "a_re": args.a_re, "a_im": args.a_im, "b_re": args.b_re, "b_im": args.b_im,
            "random": args.random, "trials": args.trials,
            "force_outcome": args.force_outcome,
        },
        args.seed,
    )
    inp = _resolve_input(args)
    if args.trials <= 0:
        raise InputError("--trials must be positive")

    # the four possible transcripts are fixed by the input; trials only
    # resample which branch occurred, so the file stores each transcript once
    canonical = branch_transcripts(inp)
    if args.force_outcome is None:
        counts = outcome_counts([t.outcome_probability for t in canonical], args.trials,
                                args.seed)
    else:
        counts = [0, 0, 0, 0]
        counts[args.force_outcome] = args.trials
    summary = {
        "input": [[inp.a.real, inp.a.imag], [inp.b.real, inp.b.imag]],
        "trials": args.trials,
        "outcome_counts": counts,
        "outcome_frequencies": [c / args.trials for c in counts],
        "min_fidelity": min(t.fidelity for t in canonical),
        "measurement_report": verify_no_setting_choice(),
    }
    if args.out:
        _write_out([(args.out, dump_json, {
            "summary": summary,
            "transcripts": [t.to_json_dict() for t in canonical],
            # fixes every trial's outcome, at a size that does not grow with --trials
            "sampler": {
                "seed": args.seed,
                "trials": args.trials,
                "forced_outcome": args.force_outcome,
                "draw": OUTCOME_DRAW if args.force_outcome is None else None,
            },
        })], manifest, Path(f"{args.out}.manifest.json"))
    print(dumps_json(summary))
    return 0


def cmd_chsh(args) -> int:
    manifest = _Manifest(
        "chsh",
        {"scenario": args.scenario, "model": args.model,
         "deterministic_max": args.deterministic_max},
        None,
    )
    if args.deterministic_max:
        doc = {"chsh_value": lhv_chsh_max(), "source": "deterministic_enumeration"}
    else:
        path = args.scenario if args.scenario is not None else args.model
        # the digest and the evaluated document come from the same bytes
        source_doc = parse_json(manifest.add_input(path), path)
        if args.scenario is not None:
            table = chsh_quantum(chsh_scenario_from_doc(source_doc, str(path)))
            source = "quantum_scenario"
        else:
            table = predict(model_from_doc(source_doc, str(path)))
            source = "lhv_model"
        doc = {
            "chsh_value": chsh_value(table),
            "source": source,
            "correlators": table.correlators.tolist(),
            "joint_outcome_probabilities": table.joint.tolist(),
        }
    if args.out:
        _write_out([(args.out, dump_json, doc)], manifest, Path(f"{args.out}.manifest.json"))
    print(dumps_json(doc if args.deterministic_max else {"chsh_value": doc["chsh_value"]}))
    return 0


def cmd_mi(args) -> int:
    if args.table is not None:
        try:
            values = [float(v) for v in args.table.split(",")]
        except ValueError as exc:
            raise InputError(f"--table must be comma-separated numbers: {exc}") from exc
        if len(values) != 4:
            raise InputError(f"--table needs 4 entries p00,p01,p10,p11, got {len(values)}")
        row = _distribution_rows("--table", values)  # the one table check, as a 1x4 row
        table = row.reshape(2, 2) / row.sum()
        bits = _mutual_information_bits(table, table.sum(1), table.sum(0))
        print(dumps_json({"mutual_information_bits": bits}))
    else:
        report = cmd(read_model(args.model))
        print(dumps_json(report.to_json_dict()))
    return 0


def cmd_optimize(args) -> int:
    # the solver is exact and reads no seed; it is recorded in the manifest only
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    manifest = _Manifest(
        "optimize",
        {"seed": args.seed, "target_s": args.target_s, "budget": args.budget,
         "curve": args.curve},
        args.seed,
    )

    # solve first: a run that fails on its input leaves no directory behind
    if args.target_s is not None:
        outcome = min_cmd_for_chsh(args.target_s)
        files = [("min_cmd_model.json", write_model, outcome.model),
                 ("min_cmd_report.json", dump_json, {
                     "target_s": args.target_s,
                     "chsh_value": outcome.chsh,
                     "cmd": outcome.cmd_report.to_json_dict(),
                     "feasible": outcome.feasible,
                     "budget_exhausted": not outcome.feasible,
                 })]
        summary = {
            "chsh_value": outcome.chsh,
            "raw_bits": outcome.cmd_report.raw_bits,
            "feasible": outcome.feasible,
        }
    elif args.budget is not None:
        outcome = max_chsh_under_budget(args.budget)
        files = [("budget_model.json", write_model, outcome.model),
                 ("budget_report.json", dump_json, {
                     "budget_bits": args.budget,
                     "best_chsh": outcome.chsh,
                     "cmd": outcome.cmd_report.to_json_dict(),
                 })]
        summary = {"best_chsh": outcome.chsh, "raw_bits": outcome.cmd_report.raw_bits}
    else:
        try:
            budgets = [float(v) for v in args.curve.split(",")]
        except ValueError as exc:
            raise InputError(f"--curve must be comma-separated numbers: {exc}") from exc
        points = tradeoff_curve(budgets)
        files = [(f"curve_model_{k}.json", write_model, p.model) for k, p in enumerate(points)]
        rows = [(p.budget_bits, p.best_chsh, name) for p, (name, _, _) in zip(points, files)]
        files.append(("curve.csv", write_curve_csv, rows))
        summary = {"points": [
            {"budget_bits": p.budget_bits, "best_chsh": p.best_chsh} for p in points
        ]}

    out_dir = Path(args.out_dir)
    _write_out([(out_dir / name, write, value) for name, write, value in files], manifest,
               out_dir / "manifest.json")
    print(dumps_json(summary))
    return 0


def cmd_kcbs(args) -> int:
    if args.classical_min:
        doc = {"kcbs_value": kcbs_classical_min(), "source": "noncontextual_enumeration"}
    elif args.quantum_optimal:
        value = kcbs_value(kcbs_pentagram())
        doc = {"kcbs_value": value, "source": "pentagram_apex_state",
               "closed_form": KCBS_QUANTUM_OPTIMAL}
    else:
        doc = {"kcbs_value": kcbs_value(read_kcbs_scenario(args.scenario)),
               "source": "scenario_file"}
    print(dumps_json(doc))
    return 0


def _teleport_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a-re", type=float, default=1.0)
    p.add_argument("--a-im", type=float, default=0.0)
    p.add_argument("--b-re", type=float, default=0.0)
    p.add_argument("--b-im", type=float, default=0.0)
    p.add_argument("--random", action="store_true", help="draw a random normalized input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--force-outcome", type=int, choices=range(4), default=None)
    p.add_argument("--out", type=Path, default=None)


def _chsh_args(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scenario", type=Path, default=None)
    mode.add_argument("--model", type=Path, default=None)
    mode.add_argument("--deterministic-max", action="store_true")
    p.add_argument("--out", type=Path, default=None)


def _mi_args(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", type=str, default=None, help='"p00,p01,p10,p11"')
    mode.add_argument("--model", type=Path, default=None)


def _optimize_args(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--target-s", type=float, default=None)
    mode.add_argument("--budget", type=float, default=None)
    mode.add_argument("--curve", type=str, default=None, help='"b1,b2,..."')
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
    p.add_argument("--out-dir", type=Path, default=Path("."))


def _kcbs_args(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--classical-min", action="store_true")
    mode.add_argument("--quantum-optimal", action="store_true")
    mode.add_argument("--scenario", type=Path, default=None)


# name -> (help, handler, function adding its arguments)
_SUBCOMMANDS = {
    "teleport": ("run the teleportation protocol", cmd_teleport, _teleport_args),
    "chsh": ("evaluate the CHSH statistic", cmd_chsh, _chsh_args),
    "mi": ("mutual information of a 2x2 table or a model", cmd_mi, _mi_args),
    "optimize": ("search models trading dependence against CHSH", cmd_optimize, _optimize_args),
    "kcbs": ("evaluate the five-cycle contextuality statistic", cmd_kcbs, _kcbs_args),
}


def _top_parser() -> argparse.ArgumentParser:  # -h, --version and usage errors only
    top = argparse.ArgumentParser(
        prog="bellmd",
        description="Measurement-dependence toolkit for Bell-type experiments",
        epilog="subcommands:\n" + "".join(
            f"  {name:<10}{text}\n" for name, (text, _, _) in _SUBCOMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--version", action="version", version=f"bellmd {__version__}")
    top.add_argument("subcommand", choices=_SUBCOMMANDS,
                     help="`bellmd SUBCOMMAND -h` lists its options")
    # the rest of argv goes to the subcommand; optional, so a bare `bellmd` names only one
    top.add_argument("args", nargs=argparse.REMAINDER, help=argparse.SUPPRESS).required = False
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in _SUBCOMMANDS:  # the top parser dropped a `--` right after NAME
            name, rest = argv[0], argv[2:] if argv[1:2] == ["--"] else argv[1:]
        else:  # -h, --version and usage errors exit here; `-- NAME` runs NAME
            first = _top_parser().parse_args(argv)
            name, rest = first.subcommand, first.args
        _, handler, add_arguments = _SUBCOMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"bellmd {name}")
        add_arguments(parser)
        args = parser.parse_args(rest)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this run: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
