"""Run one corpus of command lines under two trees and report every difference in what they leave.

    python tests/same_outputs.py TREE_A TREE_B [--expect FILE]

A tree is any checkout that holds ``src/bellmd``, for example
``git archive COMMIT src | tar -x -C DIR``.  Each tree's package is loaded in this
process under its own name, and its ``cli.main`` runs every corpus entry, each
in a fresh temporary directory.  The corpus is this checkout's, from
``cli_inputs.py``: the README commands, ``MALFORMED_CASES`` with their input
files, ``FAILED_WRITE_CASES`` with the files and directories they start from,
``COMMAND_LINE_CASES``, ``FILE_CASES`` with their input files, and the catalogue
of hostile values.

Compared per entry: exit code, stdout, stderr, every directory the run leaves,
and the bytes of every file it leaves, a manifest's without the value of its
``duration_seconds``.  An exception that escapes ``main`` counts as a process
would show it, exit 1 and a traceback, which is recorded by its last line; a
warning is recorded by its category and message.  One line is printed per
difference: the entry's id, the field, and the first line in which the two
sides differ.  The exit status is 1 if an entry whose id is not listed in
``--expect FILE`` (one id a line, ``#`` starts a comment) differs, else 0.
Standard library only; pytest does not collect it.  The whole corpus runs under
both trees in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from cli_inputs import (
    COMMAND_LINE_CASES,
    FAILED_WRITE_CASES,
    FILE_CASES,
    HOSTILE_READERS,
    MALFORMED_CASES,
    MALFORMED_INPUTS,
    hostile_cases,
    readme_commands,
)


def load_cli(tree: Path | str, name: str):
    """The ``cli`` module of ``tree``'s ``src/bellmd``, imported as the package ``name``."""
    package = Path(tree).resolve() / "src" / "bellmd"
    for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
        del sys.modules[module]
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.cli")


def corpus(catalogue: bool = True) -> dict:
    """Entry id -> (argv, {name: bytes, or None for a directory} of what is made before the
    run); the catalogue of hostile values last, and only if ``catalogue``."""
    cases = {line: (argv, {}) for line, argv in readme_commands().items()}
    for argv, kind in MALFORMED_CASES:
        content = MALFORMED_INPUTS[kind][0]
        cases[f"{' '.join(argv)} [{kind}]"] = (
            argv, {"in": content if isinstance(content, bytes) else content.encode()})
    for argv, inputs in FAILED_WRITE_CASES:
        cases[f"{' '.join(argv)} [{', '.join(inputs)} made first]"] = (argv, inputs)
    cases.update({" ".join(argv) or "(no arguments)": (argv, {}) for argv in COMMAND_LINE_CASES})
    cases.update({f"{' '.join(argv)} [{label}]": (argv, {"in": content.encode()})
                  for argv, label, content in FILE_CASES})
    for name, readers in HOSTILE_READERS.items() if catalogue else ():
        for label, content in hostile_cases(name).items():
            cases.update({f"{' '.join(argv)} [{name} {label}]": (argv, {"in": content})
                          for argv in readers})
    return cases


_DURATION = re.compile(rb'("duration_seconds": )[^,\n]*')


def run(cli, argv: list, inputs: dict) -> dict:
    """Field -> value of what one run of ``cli.main(argv)`` leaves: its exit code, stdout, stderr,
    each directory and the bytes of each file, in a fresh directory that holds only ``inputs``
    beforehand."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in inputs.items():
                if data is None:
                    Path(name).mkdir(parents=True)
                else:
                    Path(name).write_bytes(data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(list(argv))
                except Exception as exc:  # a process prints the traceback and exits 1
                    code = 1
                    err.write("Traceback (most recent call last): ...\n"
                              + "".join(traceback.format_exception_only(type(exc), exc)))
            for w in caught:  # its source line names the tree's file, so only these are kept
                err.write(f"warning: {w.category.__name__}: {w.message}\n")
            paths = sorted(Path().rglob("*"))
            files = {f"file {path}": _DURATION.sub(rb"\1...", path.read_bytes())
                     if path.name.endswith("manifest.json") else path.read_bytes()
                     for path in paths if path.is_file()}
            directories = {f"directory {path}": "left" for path in paths if path.is_dir()}
        finally:
            os.chdir(cwd)
    return {"exit code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), **directories,
            **files}


def _first_difference(a, b) -> str:
    if a is None or b is None or isinstance(a, int):  # an exit code, or a file on one side only
        return " -> ".join("(none)" if v is None else f"{v!r:.100}" for v in (a, b))
    lines_a, lines_b = a.splitlines(), b.splitlines()
    k = next((k for k, pair in enumerate(zip(lines_a, lines_b)) if pair[0] != pair[1]),
             min(len(lines_a), len(lines_b)))
    a_line, b_line = (lines[k] if k < len(lines) else None for lines in (lines_a, lines_b))
    return f"line {k + 1}: {a_line!r:.100} -> {b_line!r:.100}"


def compare(cli_a, cli_b, cases: dict) -> list[tuple[str, str]]:
    """(entry id, line) for each field in which the runs of an entry under the two trees differ."""
    found = []
    for case, (argv, inputs) in cases.items():
        a, b = run(cli_a, argv, inputs), run(cli_b, argv, inputs)
        found += [(case, f"{case}: {field}: {_first_difference(a.get(field), b.get(field))}")
                  for field in dict.fromkeys([*a, *b]) if a.get(field) != b.get(field)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--expect", type=Path, help="ids of the entries expected to differ")
    args = parser.parse_args(argv)
    expected = set()
    if args.expect is not None:
        expected = {line.strip() for line in args.expect.read_text(encoding="utf-8").splitlines()
                    if line.strip() and not line.startswith("#")}
    cases = corpus()
    found = compare(load_cli(args.tree_a, "bellmd_tree_a"), load_cli(args.tree_b, "bellmd_tree_b"),
                    cases)
    for _, line in found:
        print(line)
    unexpected = {case for case, _ in found} - expected
    print(f"{len(cases)} entries, {len({case for case, _ in found})} differ, "
          f"{len(unexpected)} not expected", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
