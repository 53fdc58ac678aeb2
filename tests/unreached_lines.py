"""List every line of a tree's ``src/bellmd`` that no corpus entry runs.

    python tests/unreached_lines.py TREE

The tree's package is loaded in this process by ``same_outputs.load_cli``, and
``same_outputs.run`` runs every entry of ``same_outputs.corpus()`` under it, with
``sys.settrace`` recording each line event in the package's files (and each call
event, whose line is a function's first).  The loading is traced too, so a
module's own top-level lines count.  A file's executable lines are those that
``co_lines()`` of its compiled code objects name.  One line is printed per
executable line with no event, as ``FILE:LINE:`` and its source, and a last
line, on stderr, counts the entries and those lines.  ``__main__.py`` is listed
whole, since no entry starts a process.  Standard library only; pytest does not
collect it.  The full corpus takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import same_outputs


def code_lines(code) -> set[int]:
    """The line numbers that ``co_lines()`` names in ``code`` and the code objects it holds;
    a module's line 0, its set-up, is not a line of its file."""
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def unreached(tree: Path | str, cases: dict) -> dict:
    """File path -> sorted line numbers of ``tree``'s ``src/bellmd`` that no run of ``cases``
    (entry id -> (argv, inputs), as ``same_outputs.corpus`` gives them) reaches."""
    package = Path(tree).resolve() / "src" / "bellmd"
    files = {str(path): code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
             for path in sorted(package.glob("*.py"))}
    reached = {path: set() for path in files}

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename in reached:
            return local(frame, event, arg)
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        cli = same_outputs.load_cli(tree, "bellmd_unreached")
        for argv, inputs in cases.values():
            same_outputs.run(cli, argv, inputs)
    finally:
        sys.settrace(previous)
    return {path: sorted(lines - reached[path]) for path, lines in files.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("tree", type=Path)
    args = parser.parse_args(argv)
    cases = same_outputs.corpus()
    found = unreached(args.tree, cases)
    for path, lines in found.items():
        source = Path(path).read_text(encoding="utf-8").splitlines()
        for line in lines:
            print(f"{Path(path).name}:{line}: {source[line - 1].strip()}")
    print(f"{len(cases)} entries, {sum(map(len, found.values()))} lines unreached",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
