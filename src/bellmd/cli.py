"""Command-line front end.

One subcommand per capability: ``teleport`` runs the protocol, ``chsh`` and
``kcbs`` evaluate inequalities, ``mi`` computes mutual information, and
``optimize`` drives the dependence/CHSH search.  A ``cmd_*`` handler returns a
``_Run`` of what only it knows, the digests of its inputs too, and neither
writes nor prints.  ``main`` derives the rest from the parsed arguments, writes
the manifest, then the data files, and only then prints the summary; a failed
write removes all the run created.
Data files are byte-reproducible under a fixed seed; the manifest's timing is not.

Exit codes: 0 success, 2 usage or input error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import suppress
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, InvariantError
from .hilbert import StateVector
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
    complex_pairs,
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
    CORRECTION_LABELS,
    OUTCOME_DRAW,
    outcome_counts,
    run_teleportation,
    verify_no_setting_choice,
)
# only the benchmark tracer (bench/workloads.py) uses this name: no command needs it
from .teleport import branch_decomposition  # noqa: F401


class _Run:
    """A handler's summary, ``(path, writer, value)`` data files and ``digests`` (path -> sha256
    of the bytes read).  All else that a manifest records, ``main`` derives from the arguments."""

    __slots__ = ("summary", "files", "digests")

    def __init__(self, summary: dict, files=(), digests=None):
        self.summary, self.files, self.digests = summary, files, digests or {}


def _write_run(run: _Run, args, subcommand: str, started: float) -> None:
    """Write the manifest, timed before any data file and holding the handler's digests, then the
    data files.  A failure removes what this run made: the manifest, even one it overwrote, and
    the data files written so far."""
    out = getattr(args, "out", None)
    manifest = args.out_dir / "manifest.json" if out is None else Path(f"{out}.manifest.json")
    written, created = [], []  # created: the directories this run makes, deepest first
    try:
        try:  # a new directory, such as a fresh --out-dir, takes one mkdir and no stat
            manifest.parent.mkdir()
            created.append(manifest.parent)
        except OSError:  # it is a directory already, or some ancestors are missing too
            if created := list(takewhile(lambda d: not d.is_dir(), manifest.parents)):
                manifest.parent.mkdir(parents=True, exist_ok=True)
        for path, write, value in [(manifest, dump_json, {
            "subcommand": subcommand,
            "configuration": {k: v for k, v in vars(args).items() if k not in ("out", "out_dir")},
            "input_digests": run.digests,
            "output_files": [str(path) for path, _, _ in run.files],
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
            "duration_seconds": time.monotonic() - started,
        }), *run.files]:
            write(path, value)
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in created:
            with suppress(OSError):  # the write's own error is the one reported
                directory.rmdir()
        raise


def _floats(flag: str, text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{flag} must be comma-separated numbers: {exc}") from exc


def _resolve_input(inp_args) -> StateVector:
    if inp_args.random:
        raw = np.random.default_rng(inp_args.seed).normal(size=4).tolist()
        norm = math.sqrt(math.fsum(x * x for x in raw))
        a_re, a_im, b_re, b_im = (x / norm for x in raw)
    else:
        a_re, a_im, b_re, b_im = inp_args.a_re, inp_args.a_im, inp_args.b_re, inp_args.b_im
    return StateVector([complex(a_re, a_im), complex(b_re, b_im)])


def cmd_teleport(args) -> _Run:
    sent = _resolve_input(args)
    if args.trials <= 0:
        raise InputError("--trials must be positive")

    # every branch's probability, corrected state and fidelity are fixed by the input; trials
    # only resample which branch occurred, each with probability exactly 1/4, so the file
    # stores each branch once and the counts depend on --seed and --trials alone
    probability, bob_final, fidelity = run_teleportation(sent)
    if args.force_outcome is None:
        counts = outcome_counts(args.trials, args.seed)
    else:
        counts = [0, 0, 0, 0]
        counts[args.force_outcome] = args.trials
    summary = {
        "input": complex_pairs(sent),
        "trials": args.trials,
        "outcome_counts": counts,
        "outcome_frequencies": [c / args.trials for c in counts],
        "min_fidelity": fidelity,
        "measurement_report": verify_no_setting_choice(),
    }
    if args.out is None:  # the file's document is built only for a run that writes it
        return _Run(summary)
    return _Run(summary, [(args.out, dump_json, {
        "summary": summary,
        "transcripts": [{"outcome_index": k, "outcome_probability": probability,
                         "correction_applied": label, "bob_final": complex_pairs(bob_final),
                         "fidelity": fidelity} for k, label in enumerate(CORRECTION_LABELS)],
        # fixes every trial's outcome, at a size that does not grow with --trials
        "sampler": {
            "seed": args.seed,
            "trials": args.trials,
            "forced_outcome": args.force_outcome,
            "draw": OUTCOME_DRAW if args.force_outcome is None else None,
        },
    })])


def cmd_chsh(args) -> _Run:
    if args.deterministic_max:
        summary = {"chsh_value": lhv_chsh_max(), "source": "deterministic_enumeration"}
        return _Run(summary, () if args.out is None else [(args.out, dump_json, summary)])
    path = args.scenario if args.scenario is not None else args.model
    data = _read_bytes(path)  # the digest and the evaluated document come from the same bytes
    source_doc = parse_json(data, path)
    if args.scenario is not None:
        table = chsh_quantum(chsh_scenario_from_doc(source_doc, str(path)))
        source = "quantum_scenario"
    else:
        table = predict(model_from_doc(source_doc, str(path)))
        source = "lhv_model"
    summary = {"chsh_value": chsh_value(table)}
    if args.out is None:  # the file's document and the digest only for a run that writes them
        return _Run(summary)
    import hashlib  # here, not at the top: only runs that digest an input pay its ~3 ms (OpenSSL)
    return _Run(summary, [(args.out, dump_json, {
        **summary, "source": source, "correlators": table.correlators.tolist(),
        "joint_outcome_probabilities": table.joint.tolist()})],
        {str(path): hashlib.sha256(data).hexdigest()})


def cmd_mi(args) -> _Run:
    if args.table is None:
        return _Run(cmd(read_model(args.model)).to_json_dict())
    values = _floats("--table", args.table)
    if len(values) != 4:
        raise InputError(f"--table needs 4 entries p00,p01,p10,p11, got {len(values)}")
    row = _distribution_rows("--table", values)  # the one table check, as a 1x4 row
    table = row.reshape(2, 2) / row.sum()
    return _Run({"mutual_information_bits":
                 _mutual_information_bits(table, table.sum(1), table.sum(0))})


def cmd_optimize(args) -> _Run:
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
        summary = {"chsh_value": outcome.chsh, "raw_bits": outcome.cmd_report.raw_bits,
                   "feasible": outcome.feasible}
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
        budgets = _floats("--curve", args.curve)
        points = tradeoff_curve(budgets)
        files = [(f"curve_model_{k}.json", write_model, p.model) for k, p in enumerate(points)]
        rows = [(b, p.chsh, name) for b, p, (name, _, _) in zip(budgets, points, files)]
        files.append(("curve.csv", write_curve_csv, rows))
        summary = {"points": [{"budget_bits": b, "best_chsh": p.chsh}
                              for b, p in zip(budgets, points)]}

    return _Run(summary, [(args.out_dir / name, write, value) for name, write, value in files])


def cmd_kcbs(args) -> _Run:
    if args.classical_min:
        return _Run({"kcbs_value": kcbs_classical_min(), "source": "noncontextual_enumeration"})
    if args.quantum_optimal:
        return _Run({"kcbs_value": kcbs_value(kcbs_pentagram()), "source": "pentagram_apex_state",
                     "closed_form": KCBS_QUANTUM_OPTIMAL})
    return _Run({"kcbs_value": kcbs_value(read_kcbs_scenario(args.scenario)),
                 "source": "scenario_file"})


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
    started = time.monotonic()
    try:
        if getattr(args, "seed", 0) < 0:  # --seed is shared by the writing subcommands
            raise InputError("--seed must be nonnegative")
        run = handler(args)
        if run.files:  # a run that writes data files writes its manifest too
            _write_run(run, args, name, started)
        print(dumps_json(run.summary))
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this run: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
