"""Property test: every bellmd invocation ends in exit code 0 (success) or 2 (bad input).

Exit code 1 (an uncaught exception) or 3 (an internal invariant breach) on
any argument list drawn here is a bug.  Input files are the canned assets,
garbage, or a canned asset with one number replaced by a drawn one, so
drawn numbers reach the file readers too.  All files are written below the
test's temporary directory, and ``--trials`` stays at most 10,000.  The
examples are derandomized so the suite stays deterministic; raise
``max_examples`` or drop ``derandomize`` locally to search further.
"""

import copy
import json

import pytest

from bellmd.cli import asset_path, main

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

VALUES = {
    "--a-re": NUMBER, "--a-im": NUMBER, "--b-re": NUMBER, "--b-im": NUMBER,
    "--seed": st.one_of(st.integers(-3, 2**70).map(str), NUMBER),
    "--trials": st.integers(-3, 10_000).map(str),
    "--force-outcome": st.integers(-2, 5).map(str),
    "--out": OUTPUT_FILE,
    "--scenario": INPUT_FILE, "--model": INPUT_FILE,
    "--table": NUMBER_LIST, "--curve": NUMBER_LIST,
    "--target-s": st.one_of(st.floats(1.5, 4.5).map(repr), NUMBER),
    "--budget": st.one_of(st.floats(-0.1, 2.5).map(repr), NUMBER),
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


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(invocation=invocations())
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
