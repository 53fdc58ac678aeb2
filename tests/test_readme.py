"""The README's commands run, and the figures it quotes are the ones the code computes.

The command block under "Command line" runs line by line through ``main`` on
the canned assets, in a temporary directory.  Each quoted figure is read from
the README text and compared, at the digits quoted, with the output of the
run that computes it, so a drifted number or a renamed option fails here.
Each quoted tolerance is compared with the expression its check uses.
"""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bellmd import lhv
from bellmd.cli import main
from bellmd.tolerances import ARITHMETIC, NORMALIZATION, OPERATOR
from oracles import asset_path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, language: str) -> str:
    """The first fenced ``language`` block after the heading or phrase ``after``."""
    rest = README.split(after, 1)[1]
    return rest.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _quoted(pattern: str) -> str:
    """The one figure ``pattern`` (a regex with one group) finds in the README text."""
    found = re.findall(pattern, README)
    assert len(found) == 1, (pattern, found)
    return found[0]


def _as_quoted(value: float, quoted: str) -> str:
    """``value`` with as many decimals as ``quoted`` shows."""
    decimals = len(quoted.partition(".")[2])
    return f"{value:.{decimals}f}"


def _run(capsys, argv) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, (argv, captured.err)
    return json.loads(captured.out)


@pytest.fixture
def printed(capsys, tmp_path, monkeypatch) -> dict:
    """The summary each README command prints, keyed by its command line."""
    monkeypatch.chdir(tmp_path)
    summaries = {}
    for line in _block("## Command line", "sh").splitlines():
        if not line.startswith("bellmd "):
            continue
        argv = [str(asset_path(a.rpartition("/")[2])) if a.startswith("src/bellmd/assets/")
                else a for a in shlex.split(line)[1:]]
        summaries[line] = _run(capsys, argv)
    return summaries


def test_every_command_runs_and_every_figure_holds(capsys, printed):
    assert len(printed) == 12

    # least dependence at a CHSH target, from the optimizer
    bits = {target: _run(capsys, ["optimize", "--target-s", target, "--out-dir", "t"])["raw_bits"]
            for target in ("2.05", repr(2 * math.sqrt(2)), "4")}
    quoted = _quoted(r"([0-9.]+) bits at 2\.05")
    assert _as_quoted(bits["2.05"], quoted) == quoted
    quoted = _quoted(r"([0-9.]+) bits at the quantum maximum 2\*sqrt\(2\)")
    assert _as_quoted(bits[repr(2 * math.sqrt(2))], quoted) == quoted
    quoted = _quoted(r"log2\(4/3\) = ([0-9.]+)")
    assert _as_quoted(bits["4"], quoted) == quoted == _as_quoted(math.log2(4 / 3), quoted)

    # the KCBS bounds, from the README's own kcbs commands
    quoted = _quoted(r"noncontextual minimum (-?[0-9]+)")
    assert printed["bellmd kcbs --classical-min"]["kcbs_value"] == int(quoted)
    assert _quoted(r"quantum\s+minimum (5 - 4\*sqrt\(5\))") == "5 - 4*sqrt(5)"
    assert abs(printed["bellmd kcbs --quantum-optimal"]["kcbs_value"]
               - (5 - 4 * math.sqrt(5))) <= 1e-12


def test_teleport_file_size_and_outcome_rebuild(capsys, printed):
    quoted = _quoted(r"A file takes about ([0-9.]+) kB at any\s+`--trials`")
    readme_file = Path("runs/teleport.json")
    assert _as_quoted(readme_file.stat().st_size / 1000, quoted) == quoted
    _run(capsys, ["teleport", "--force-outcome", "1", "--trials", str(10**15), "--out", "f.json"])
    assert _as_quoted(Path("f.json").stat().st_size / 1000, quoted) == quoted

    # the README's snippet rebuilds the per-trial outcomes of the file it names
    snippet = _block("**Teleport JSON**", "python")
    scope = {}
    exec("\n".join(line[2:] for line in snippet.splitlines()), scope)  # noqa: S102
    summary = json.loads(readme_file.read_text())["summary"]
    assert len(scope["outcomes"]) == summary["trials"] == 100_000
    assert np.bincount(scope["outcomes"], minlength=4).tolist() == summary["outcome_counts"]


def test_a_typed_target_prints_as_typed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quoted = _quoted(r"`bellmd optimize\s+--target-s 2\.8` prints `(\"chsh_value\": [0-9.]+)`")
    assert quoted == '"chsh_value": 2.8'
    assert main(["optimize", "--target-s", "2.8", "--out-dir", "t"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"  {quoted},"


NUMBER = r"(-?[0-9.]+(?:e-[0-9]+)?)"
# (the README text around a quoted tolerance, the value the check compares with)
TOLERANCES = [
    # the mi table comment in the command block
    (rf"at least {NUMBER} \(then clipped to 0\)", -ARITHMETIC),
    (rf"summing to 1 within {NUMBER}, and is then divided", ARITHMETIC),
    # File formats: model, CHSH scenario and KCBS scenario files
    (rf"must be finite and at least {NUMBER}, and every response", -ARITHMETIC),
    (rf"every response at\s+most 1 \+ {NUMBER};", ARITHMETIC),
    (rf"sum to 1 within {NUMBER} \(a quarter of the 1e-12 tolerance\)", lhv._ROW_ATOL),
    (rf"outcome rows stay within {NUMBER} of 1", ARITHMETIC),
    (rf"above the {NUMBER}\s+float-residue clamp", -ARITHMETIC),
    (rf"hermitian within {NUMBER} \(it is stored", ARITHMETIC),
    (rf"square to the identity within\s+{NUMBER} \(a quarter of that tolerance\)",
     ARITHMETIC / 4.0),
    (rf"squared norm 1 within {NUMBER}\.", NORMALIZATION),
    (rf"unit length within {NUMBER},", OPERATOR),
    (rf"orthogonal within {NUMBER} \(an eighth of the 1e-12", ARITHMETIC / 8.0),
    (rf"product hermitian within {NUMBER}, so evaluation", ARITHMETIC / 2.0),
    # the module table: the bellmd.tolerances and bellmd.hilbert rows
    (rf"`NORMALIZATION` \({NUMBER}\)", NORMALIZATION),
    (rf"`OPERATOR` \({NUMBER}\)", OPERATOR),
    (rf"`ARITHMETIC` \({NUMBER}\)", ARITHMETIC),
    (rf"max \\\|A - A\^dagger\\\| <= {NUMBER}, compared", ARITHMETIC),
    (rf"\\\|A/2 - A\^dagger/2\\\| <= {NUMBER} so that", ARITHMETIC / 2.0),
]


def test_quoted_tolerances_are_the_ones_the_checks_use():
    drifted = [(pattern, quoted, value) for pattern, value in TOLERANCES
               if float(quoted := _quoted(pattern)) != value]
    assert not drifted
