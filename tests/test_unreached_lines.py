"""``unreached_lines.py`` lists the lines that no run reaches, and only those."""

import time
from pathlib import Path

import unreached_lines
from bellmd import serialize, teleport
from cli_inputs import readme_commands

ROOT = Path(__file__).resolve().parents[1]


def _body(function) -> set[int]:
    """The executable lines of ``function`` past its ``def`` line."""
    return unreached_lines.code_lines(function.__code__) - {function.__code__.co_firstlineno}


def test_the_readme_commands_leave_branch_decomposition_unreached():
    cases = {line: (argv, {}) for line, argv in readme_commands().items()}
    started = time.perf_counter()
    found = unreached_lines.unreached(ROOT, cases)
    assert time.perf_counter() - started < 1.0
    package = ROOT / "src" / "bellmd"
    listed = {Path(path).name: set(lines) for path, lines in found.items()}
    assert _body(teleport.branch_decomposition) <= listed["teleport.py"]
    assert not _body(serialize.write_curve_csv) & listed["serialize.py"]
    assert set(listed) == {path.name for path in package.glob("*.py")}
