"""Property test: every bellmd invocation ends in exit code 0 (success) or 2 (bad input).

Exit code 1 (an uncaught exception) or 3 (an internal invariant breach) on
any argument list drawn here is a bug.  Input files are the canned assets,
garbage, or a canned asset with one number replaced by a drawn one, so
drawn numbers reach the file readers too.  Half the examples are ``optimize``
with an edge budget as its only mode, so the edges are solved, not only
rejected as a clash of modes.  All files are written below the test's
temporary directory, and ``--trials`` stays at most 10,000.  The examples are
derandomized so the suite stays deterministic; raise ``max_examples`` or drop
``derandomize`` locally to search further.  Each edge budget is also run once
on its own, as ``--budget`` and as ``--curve``.
"""

import copy
import json
import math

import pytest

from bellmd.cli import main
from oracles import asset_path

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(["0", "0.5", "2.5", "1e308", "-1e308", "1e-320", "", "x"]),
)
NUMBER_LIST = st.one_of(
    st.lists(NUMBER, max_size=5).map(",".join),
    st.sampled_from(["0.25,0.25,0.25,0.25", "0.5,0,0,0.5", "0,0.1,0.3", ","]),
)
ASSETS = {name: json.loads(asset_path(name).read_text())
          for name in ("bell-optimal.json", "brans.json", "kcbs-pentagram.json")}
# JSON's spelling of the non-finite floats whose repr NUMBER draws
JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
PLACEHOLDER = "@number@"


def _number_paths(doc, path=()):
    """The key path of every number in a parsed JSON document."""
    if isinstance(doc, dict | list):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in _number_paths(value, path + (key,))]
    return [path] if isinstance(doc, int | float) and not isinstance(doc, bool) else []


NUMBER_PATHS = {name: _number_paths(doc) for name, doc in ASSETS.items()}


@st.composite
def edited_assets(draw) -> tuple[str, str]:
    """("edited.json", the text of a canned asset with one number replaced by a drawn NUMBER)."""
    name = draw(st.sampled_from(sorted(ASSETS)))
    *parents, last = draw(st.sampled_from(NUMBER_PATHS[name]))
    doc = copy.deepcopy(ASSETS[name])
    container = doc
    for key in parents:
        container = container[key]
    container[last] = PLACEHOLDER
    number = draw(NUMBER)
    text = json.dumps(doc).replace(f'"{PLACEHOLDER}"', JSON_TOKENS.get(number, number))
    return "edited.json", text


INPUT_FILE = st.one_of(st.sampled_from([
    str(asset_path("bell-optimal.json")), str(asset_path("brans.json")),
    str(asset_path("kcbs-pentagram.json")), "garbage.json", "list.json",
    "missing.json", ".",
]), edited_assets())
OUTPUT_FILE = st.sampled_from(["out.json", "no-such-dir/out.json", ".", "garbage.json"])
# 0 and log2(4/3), the full budget, each with its two float neighbours
EDGE_BUDGETS = [math.nextafter(edge, to) for edge in (0.0, math.log2(4.0 / 3.0))
                for to in (-math.inf, edge, math.inf)]
BUDGET_EDGES = st.sampled_from(EDGE_BUDGETS).map(repr)

VALUES = {
    "--a-re": NUMBER, "--a-im": NUMBER, "--b-re": NUMBER, "--b-im": NUMBER,
    "--seed": st.one_of(st.integers(-3, 2**70).map(str), NUMBER),
    "--trials": st.integers(-3, 10_000).map(str),
    "--force-outcome": st.integers(-2, 5).map(str),
    "--out": OUTPUT_FILE,
    "--scenario": INPUT_FILE, "--model": INPUT_FILE,
    "--table": NUMBER_LIST, "--curve": NUMBER_LIST,
    "--target-s": st.one_of(st.floats(1.5, 4.5).map(repr), NUMBER),
    "--budget": st.one_of(st.floats(-0.1, 2.5).map(repr), NUMBER, BUDGET_EDGES),
    "--out-dir": st.sampled_from(["run", "run/nested", ".", "garbage.json"]),
}
SWITCHES = {"--random", "--deterministic-max", "--classical-min", "--quantum-optimal"}
# (mutually exclusive modes, other options) per subcommand
FLAGS = {
    "teleport": ([], ["--a-re", "--a-im", "--b-re", "--b-im", "--random", "--seed",
                      "--trials", "--force-outcome", "--out"]),
    "chsh": (["--scenario", "--model", "--deterministic-max"], ["--out"]),
    "mi": (["--table", "--model"], []),
    "optimize": (["--target-s", "--budget", "--curve"], ["--seed", "--out-dir"]),
    "kcbs": (["--classical-min", "--quantum-optimal", "--scenario"], []),
}


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """An argument list, and the text of each edited input file it names."""
    subcommand = draw(st.sampled_from(sorted(FLAGS)))
    modes, options = FLAGS[subcommand]
    # one mode, then up to four more flags that may repeat or clash with it
    chosen = [draw(st.sampled_from(modes))] if modes else []
    chosen += draw(st.lists(st.sampled_from(modes + options + ["--bogus"]), max_size=4))
    argv, files = [subcommand], {}
    for flag in chosen:
        value = None if flag in SWITCHES else draw(VALUES.get(flag, NUMBER))
        if isinstance(value, tuple):  # an edited asset: (file name, text)
            files[value[0]] = value[1]
            value = value[0]
        # "--flag=value" keeps values such as "-inf" from reading as options
        argv.append(flag if value is None else f"{flag}={value}")
    return argv, files


@st.composite
def edge_budget_invocations(draw) -> tuple[list[str], dict[str, str]]:
    """``optimize`` with an edge budget as ``--budget`` or a one-point ``--curve``, its one mode."""
    argv = ["optimize", f"{draw(st.sampled_from(['--budget', '--curve']))}={draw(BUDGET_EDGES)}"]
    for flag in draw(st.lists(st.sampled_from(["--seed", "--out-dir"]), max_size=2, unique=True)):
        argv.append(f"{flag}={draw(VALUES[flag])}")
    return argv, {}


@pytest.mark.parametrize("flag", ["--budget", "--curve"])
@pytest.mark.parametrize("edge", EDGE_BUDGETS, ids=repr)
def test_each_edge_budget_is_solved_or_rejected_leaving_no_files(tmp_path, monkeypatch, capsys,
                                                                 flag, edge):
    monkeypatch.chdir(tmp_path)
    code = main(["optimize", f"{flag}={edge!r}", "--out-dir=run"])
    err = capsys.readouterr().err
    if edge >= 0.0:
        assert code == 0, err
        assert (tmp_path / "run" / "manifest.json").is_file()
    else:
        assert code == 2, err
        assert list(tmp_path.iterdir()) == []


# 400 examples: about 200 of each strategy, the 200 that the mixed invocations had alone
@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(invocation=st.one_of(invocations(), edge_budget_invocations()))
def test_every_invocation_exits_0_or_2(tmp_path, monkeypatch, capsys, invocation):
    argv, files = invocation
    monkeypatch.chdir(tmp_path)
    (tmp_path / "garbage.json").write_text("not json {")
    (tmp_path / "list.json").write_text("[1, 2]")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), (argv, code, captured.err)
