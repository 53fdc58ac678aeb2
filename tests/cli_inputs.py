"""Input files and argument lists that the CLI tests and ``same_outputs.py`` share.

Standard library only, so that ``same_outputs.py`` can run the same corpus under any tree.
Every input file is written as ``in`` in a fresh working directory.

- ``readme_commands``: the README's command lines, with the canned assets of this checkout.
- ``MALFORMED_CASES``: argument lists, each with a kind of ``MALFORMED_INPUTS``, a bad file and
  what its one-line error must name.
- ``FAILED_WRITE_CASES``: argument lists, each with the files and directories that stand in the
  working directory before the run, where a directory in an output's place makes a write fail.
- ``COMMAND_LINE_CASES``: argument lists that reach the CLI's own checks: the top-level parser,
  argparse's errors, forced teleport outcomes, a teleport run with no file, a teleport input of
  signed zeros, teleport runs whose trials end just past, well past and exactly at a chunk of the
  sampler's uniforms, and each bound on ``--trials``, ``--seed``, ``mi --table`` and the three
  ``optimize`` modes.
- ``FILE_CASES``: argument lists, each with a label and an input file that reaches a line no
  canned asset does: the shape, sign, orthogonality and clip gates, CRLF line ends, and a
  product of marginals that underflows.
- ``hostile_cases``: a catalogue of hostile values, each tried at one path per distinct field of
  a canned asset (every key, and index 0 of every list): an integer past ``int()``'s 4300-digit
  limit, +/-1e400, ``NaN``, ``Infinity``, ``-0``, 1e-400, ``true``, ``false``, ``null``, ``""``,
  ``[]``, ``{}``, the value wrapped in one more list and its key given twice; and whole files:
  empty, behind a UTF-8 BOM, followed by text, and an array nested 10^5 deep.  This is
  structure-aware fuzzing of valid inputs (Godefroid, Kiezun & Levin, PLDI 2008), written out.
"""

from __future__ import annotations

import json
import math
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ASSETS = ROOT / "src" / "bellmd" / "assets"
LONG_INTEGER = "1" + "0" * 4300  # 4301 digits


def readme_commands() -> dict:
    """Each command line of the README's "Command line" block, mapped to its argv, with the
    canned assets at their paths in this checkout."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return {line: [str(ASSETS / a.rpartition("/")[2]) if a.startswith("src/bellmd/assets/")
                   else a for a in shlex.split(line)[1:]]
            for line in block.splitlines() if line.startswith("bellmd ")}


def asset_with(name: str, edit) -> str:
    """The canned asset ``name`` as JSON text, after ``edit`` changed its document in place."""
    doc = json.loads((ASSETS / name).read_text(encoding="utf-8"))
    edit(doc)
    return json.dumps(doc)


def asset_with_text(name: str, path: tuple, text: str) -> str:
    """The canned asset ``name`` as JSON text, with the value at ``path`` (its keys and indices)
    written as the raw JSON ``text``, which may be one that ``json.dumps`` cannot write."""
    slot = "@@slot@@"  # a string no asset holds
    return asset_with(name, lambda doc: _at(doc, path[:-1]).__setitem__(path[-1], slot)).replace(
        json.dumps(slot), text)


def asset_with_key_twice(name: str, path: tuple, first: str | None = None) -> str:
    """The canned asset ``name`` as JSON text, with the key at ``path`` given twice: first with
    the raw JSON ``first`` (by default its own value), then with its own value."""
    original = json.dumps(_at(json.loads((ASSETS / name).read_text(encoding="utf-8")), path))
    return asset_with_text(name, path, f"{first or original}, {json.dumps(path[-1])}: {original}")


def _at(doc, path: tuple):
    for step in path:
        doc = doc[step]
    return doc


# name -> (file contents as bytes or text, what the error message must name)
MALFORMED_INPUTS = {
    "non-utf8": (b'{"state": "\xff\xfe"}', "UTF-8"),
    "deep": ("[" * 100_000, "nested"),
    "alice-abc": (asset_with("brans.json", lambda d: d["settings"].update(alice="abc")),
                  "'alice'"),
    "alice-null": (asset_with("brans.json", lambda d: d["settings"].update(alice=None)),
                   "'alice'"),
    "alice-fraction": (asset_with("brans.json", lambda d: d["settings"].update(alice=2.7)),
                       "'alice'"),
    "lambda-count-list": (asset_with("brans.json", lambda d: d.update(lambda_count=[1])),
                          "'lambda_count'"),
    "lambda-count-fraction": (asset_with("brans.json", lambda d: d.update(lambda_count=16.9)),
                              "'lambda_count'"),
    # a boolean in an array is read as its JSON text, which the message echoes
    "lambda-count-true-list": (asset_with("brans.json", lambda d: d.update(lambda_count=[True])),
                               "error: in: field 'lambda_count' must be an integer, got ['true']"),
    "alice-false-list": (asset_with("brans.json", lambda d: d["settings"].update(alice=[False])),
                         "error: in.settings: field 'alice' must be an integer, got ['false']"),
    "lambda-given-settings-text": (asset_with(
        "brans.json", lambda d: d["lambda_given_settings"][0].__setitem__(0, "x")),
        "'lambda_given_settings'"),
    "marginal-text": (asset_with(
        "brans.json", lambda d: d["settings"]["marginal"].__setitem__(0, "0.25")),
        "settings: field 'marginal' must be a regular array of numbers"),
    "marginal-bool": (asset_with(
        "brans.json", lambda d: d["settings"].update(marginal=[True, False, False, False])),
        "settings: field 'marginal' must be a regular array of numbers"),
    # a boolean among numbers used to read as 1 or 0
    "marginal-true-among-numbers": (asset_with(
        "brans.json", lambda d: d["settings"].update(marginal=[True, 0, 0, 0])),
        "settings: field 'marginal' must be a regular array of numbers"),
    # a marginal is one flat row: a table of rows used to load as its row 0
    "marginal-rows": (asset_with(
        "brans.json", lambda d: d["settings"].update(marginal=[[0.25] * 4, [0.7, 0.1, 0.1, 0.1]])),
        "error: setting marginal must be a flat list of 4 entries, got shape (2, 4)"),
    "marginal-one-row-table": (asset_with(
        "brans.json", lambda d: d["settings"].update(marginal=[[0.25] * 4])),
        "error: setting marginal must be a flat list of 4 entries, got shape (1, 4)"),
    "alice-response-text": (asset_with(
        "brans.json", lambda d: d["alice_response"][0].__setitem__(0, "1")),
        "field 'alice_response' must be a regular array of numbers"),
    "observable-text": (asset_with(
        "bell-optimal.json", lambda d: d["bob_observables"][1][0][0].__setitem__(0, "0.5")),
        "in.bob_observables[1]: expected numeric [re, im] pairs"),
    "observable-bool": (asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"][0][0].__setitem__(0, [True, 0])),
        "error: in.alice_observables[0]: expected numeric [re, im] pairs"),
    "state-text": (asset_with(
        "bell-optimal.json", lambda d: d["state"][0].__setitem__(0, "0.7071067811865476")),
        "in.state: expected numeric [re, im] pairs"),
    "vector-text": (asset_with(
        "kcbs-pentagram.json", lambda d: d["vectors"][2].__setitem__(1, "0.5")),
        "field 'vectors' must be a regular array of numbers"),
    "vector-bool": (asset_with(
        "kcbs-pentagram.json", lambda d: d["vectors"][0].__setitem__(0, False)),
        "error: in: field 'vectors' must be a regular array of numbers"),
    "kcbs-state-null": (asset_with(
        "kcbs-pentagram.json", lambda d: d["state"][1].__setitem__(1, None)),
        "in.state: expected numeric [re, im] pairs"),
    "observable-non-hermitian": (asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"][0][0].__setitem__(1, [1.0, 0.0])),
        "must be hermitian"),
    "observable-square": (asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"].__setitem__(
            0, [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])),
        "alice observable 0 must square to the identity"),
    "observable-3x3": (asset_with(
        "bell-optimal.json", lambda d: d["bob_observables"].__setitem__(
            1, [[[float(i == j), 0.0] for j in range(3)] for i in range(3)])),
        "bob observable 1 must act on a qubit"),
    "observable-inf": (asset_with(
        "bell-optimal.json", lambda d: d["bob_observables"][0][1][0].__setitem__(1, math.inf)),
        "operator entries must be finite"),
    "state-inf": (asset_with(
        "bell-optimal.json", lambda d: d["state"][0].__setitem__(1, -math.inf)),
        "state vector amplitudes must be finite"),
    "state-3": (asset_with(
        "bell-optimal.json", lambda d: d.update(state=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])),
        "4-dimensional"),
    # numbers whose squares, differences or sums overflow, one per gate
    "state-huge": (asset_with("bell-optimal.json", lambda d: d["state"][0].__setitem__(0, 1e200)),
                   "error: amplitudes have squared norm inf, expected 1"),
    "vector-huge": (asset_with(
        "kcbs-pentagram.json", lambda d: d["vectors"][2].__setitem__(1, 1e200)),
        "error: all five vectors must be unit length"),
    "observable-huge-square": (asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"].__setitem__(
            0, [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]])),
        "error: alice observable 0 must square to the identity: max |A^2 - 1| = inf"),
    "observable-huge-residue": (asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"].__setitem__(
            0, [[[0.0, 0.0], [1.7e308, 0.0]], [[-1.7e308, 0.0], [0.0, 0.0]]])),
        "error: alice observable 0: operator must be hermitian: max |A - A^dagger| = inf"),
    "lambda-row-huge": (asset_with(
        "brans.json", lambda d: d["lambda_given_settings"][0].__setitem__(slice(2), [1e308] * 2)),
        "error: lambda_given_settings rows must each sum to 1 within 2.5e-13"),
    "marginal-huge": (asset_with(
        "brans.json", lambda d: d["settings"].update(marginal=[1e308, 1e308, 0.0, 0.0])),
        "error: setting marginal sums to inf, expected 1"),
    "teleport-huge": ("", "squared norm inf, expected 1"),
    # every table's shape is checked before any table's entries
    "alice-response-above-1": (asset_with(
        "brans.json", lambda d: d["alice_response"][0].__setitem__(0, 2.0)),
        "error: alice_response entries must lie in [0, 1]"),
    "lambda-3-rows": (asset_with(
        "brans.json", lambda d: d.update(lambda_given_settings=d["lambda_given_settings"][:3])),
        "error: lambda_given_settings needs 4 rows, got 3"),
    "alice-response-short": (asset_with(
        "brans.json", lambda d: d.update(alice_response=[r[:-1] for r in d["alice_response"]])),
        "error: alice_response must have shape (2, 16), got (2, 15)"),
    "lambda-count-15": (asset_with("brans.json", lambda d: d.update(lambda_count=15)),
                        "error: in: lambda_given_settings shape (4, 16) does not match "
                        "lambda_count 15"),
    "lambda-negative-and-alice-short": (asset_with(
        "brans.json", lambda d: (d["lambda_given_settings"][0].__setitem__(0, -0.5),
                                 d.update(alice_response=[r[:-1] for r in d["alice_response"]]))),
        "error: alice_response must have shape (2, 16), got (2, 15)"),
    "observable-2x3": (asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"].__setitem__(
            0, [[[float(i == j), 0.0] for j in range(3)] for i in range(2)])),
        "error: operator must be a nonempty square matrix, got shape (2, 3)"),
    "state-nested": (asset_with("bell-optimal.json",
                                 lambda d: d.update(state=[[pair] for pair in d["state"]])),
                     "error: in.state: state must be a flat list of [re, im] pairs"),
    "four-vectors": (asset_with("kcbs-pentagram.json",
                                 lambda d: d.update(vectors=d["vectors"][:4])),
                     "error: need five 3-vectors, got shape (4, 3)"),
    "vector-nan": (asset_with(
        "kcbs-pentagram.json", lambda d: d["vectors"][1].__setitem__(0, math.nan)),
        "error: vectors must be finite"),
    "kcbs-state-2": (asset_with("kcbs-pentagram.json",
                                 lambda d: d.update(state=[[1.0, 0.0], [0.0, 0.0]])),
                     "error: state must be a qutrit"),
    "kcbs-state-nested": (asset_with("kcbs-pentagram.json",
                                      lambda d: d.update(state=[[pair] for pair in d["state"]])),
                          "error: in.state: state must be a flat list of [re, im] pairs"),
    # an integer literal past int()'s digit limit, and a key given twice
    "lambda-count-long": (asset_with_text("brans.json", ("lambda_count",), LONG_INTEGER),
                          "error: in: an integer has more than 4300 digits, too many to read"),
    "observable-long": (asset_with_text("bell-optimal.json", ("alice_observables", 1, 0, 1, 0),
                                        LONG_INTEGER),
                        "error: in: an integer has more than 4300 digits, too many to read"),
    "vector-long": (asset_with_text("kcbs-pentagram.json", ("vectors", 4, 2), LONG_INTEGER),
                    "error: in: an integer has more than 4300 digits, too many to read"),
    "lambda-count-twice": (asset_with_key_twice("brans.json", ("lambda_count",), "15"),
                           "error: in: key 'lambda_count' appears more than once in one object"),
    "marginal-twice": (asset_with_key_twice("brans.json", ("settings", "marginal"), "[1, 0, 0, 0]"),
                       "error: in: key 'marginal' appears more than once in one object"),
    "state-twice": (asset_with_key_twice("bell-optimal.json", ("state",)),
                    "error: in: key 'state' appears more than once in one object"),
}
JSON_READERS = (
    ["chsh", "--scenario", "in", "--out", "o.json"],
    ["chsh", "--model", "in", "--out", "o.json"],
    ["mi", "--model", "in"],
    ["kcbs", "--scenario", "in"],
)
MODEL_READERS = (JSON_READERS[1], JSON_READERS[2])
MALFORMED_CASES = (
    [(argv, "non-utf8") for argv in JSON_READERS]
    + [(argv, "deep") for argv in JSON_READERS]
    + [(argv, kind) for argv in MODEL_READERS
       for kind in ("alice-abc", "alice-null", "alice-fraction", "lambda-count-list",
                    "lambda-count-fraction", "lambda-count-true-list", "alice-false-list",
                    "lambda-given-settings-text", "marginal-text",
                    "marginal-bool", "marginal-true-among-numbers", "marginal-rows",
                    "marginal-one-row-table",
                    "alice-response-text")]
    + [(JSON_READERS[0], kind) for kind in ("observable-non-hermitian", "observable-square",
                                            "observable-3x3", "observable-inf", "state-inf",
                                            "state-3", "observable-text", "state-text",
                                            "observable-bool")]
    + [(JSON_READERS[3], kind) for kind in ("vector-text", "kcbs-state-null", "vector-bool")]
    + [(JSON_READERS[0], kind) for kind in ("state-huge", "observable-huge-square",
                                            "observable-huge-residue")]
    + [(JSON_READERS[3], "vector-huge")]
    + [(argv, kind) for argv in MODEL_READERS for kind in ("lambda-row-huge", "marginal-huge")]
    + [(["teleport", "--a-re", "1e200", "--out", "o.json"], "teleport-huge")]
    + [(argv, kind) for argv in MODEL_READERS
       for kind in ("alice-response-above-1", "lambda-3-rows", "alice-response-short",
                    "lambda-count-15", "lambda-negative-and-alice-short")]
    + [(JSON_READERS[0], kind) for kind in ("observable-2x3", "state-nested")]
    + [(JSON_READERS[3], kind) for kind in ("four-vectors", "vector-nan", "kcbs-state-2",
                                            "kcbs-state-nested")]
    + [(argv, "lambda-count-long") for argv in MODEL_READERS]
    + [(JSON_READERS[0], "observable-long"), (JSON_READERS[3], "vector-long")]
    + [(argv, kind) for argv in MODEL_READERS for kind in ("lambda-count-twice", "marginal-twice")]
    + [(JSON_READERS[0], "state-twice")]
)

LONG_NAME = "x" * 300  # past the 255-byte name limit of common file systems
EARLIER = b"earlier run\n"  # a data file from an earlier run, which a failed manifest write keeps
# (argv, {path: file bytes, or None for a directory made with its parents}), in making order;
# the failures that need a patched writer (a write cut short, a data file that fails with no
# directory in its place) stay in test_cli.py
FAILED_WRITE_CASES = (
    [(argv, {manifest: None, **keep}) for argv, manifest, keep in (
        (["optimize", "--budget", "0.1", "--out-dir", "od"], "od/manifest.json", {}),
        (["chsh", "--deterministic-max", "--out", "o.json"], "o.json.manifest.json", {}),
        (["teleport", "--trials", "3", "--out", "o.json"], "o.json.manifest.json", {}),
        (["optimize", "--target-s", "2.5", "--out-dir", "od"], "od/manifest.json",
         {"od/min_cmd_model.json": EARLIER}),
        (["chsh", "--deterministic-max", "--out", "o.json"], "o.json.manifest.json",
         {"o.json": EARLIER}),
        (["teleport", "--trials", "3", "--out", "o.json"], "o.json.manifest.json",
         {"o.json": EARLIER}))]
    + [(argv, {"keep": None}) for argv in (
        ["teleport", "--trials", "3", "--out", f"keep/new/{LONG_NAME}.json"],
        ["optimize", "--target-s", "2.5", "--out-dir", f"keep/deep/er/{LONG_NAME}"])]
    + [(JSON_READERS[1], {"in": (ASSETS / "brans.json").read_bytes(),
                          "o.json.manifest.json": None})]
    # the manifest is written, then the data file fails: the cleanup removes the manifest
    + [(["optimize", "--target-s", "2.5", "--out-dir", "d"], {"d/min_cmd_model.json": None})]
)

COMMAND_LINE_CASES = (
    [], ["--version"], ["-h"], ["nosuch"], ["--", "chsh", "--deterministic-max"],
    ["teleport", "--force-outcome", "2", "--trials", "5", "--out", "o.json"],
    ["teleport", "--trials", "3"],
    ["teleport", "--trials", "0"],
    ["teleport", "--trials", "abc"],
    ["teleport", "--seed", "-1", "--out", "o.json"],
    # trial counts at the sampler's chunks of 2^18 uniforms: one past a chunk, 3 chunks and 5,
    # and exactly one chunk
    ["teleport", "--random", "--seed", "3", "--trials", "262145", "--out", "o.json"],
    ["teleport", "--random", "--seed", "4", "--trials", "786437", "--out", "o.json"],
    ["teleport", "--a-re", "0.6", "--b-re", "0.8", "--trials", "262144", "--out", "o.json"],
    # signed zeros in the summary's and the file's input, as the sent state holds them
    ["teleport", "--a-re", "-1", "--a-im", "-0.0", "--b-re", "0", "--b-im", "-0.0", "--trials", "1",
     "--out", "o.json"],
    ["optimize", "--budget", "0.1", "--seed", "-1", "--out-dir", "od"],
    ["mi", "--table", "0.5,0.5"],
    ["mi", "--table", "0.5,x,0.25,0.25"],
    ["optimize", "--target-s", "2", "--out-dir", "od"],
    ["optimize", "--budget", "-1", "--out-dir", "od"],
    ["optimize", "--curve", "0.5,0.1", "--out-dir", "od"],
    ["optimize", "--curve", "nan", "--out-dir", "od"],
)


def model_text(lambda_given_settings: list, alice_response: list, bob_response: list,
               marginal: list) -> str:
    """A model file's JSON text, with as many settings per party as response rows."""
    return json.dumps({
        "lambda_count": len(lambda_given_settings[0]),
        "settings": {"alice": len(alice_response), "bob": len(bob_response),
                     "marginal": marginal},
        "lambda_given_settings": lambda_given_settings,
        "alice_response": alice_response, "bob_response": bob_response})


def _tilted(doc: dict) -> None:
    """Vector 1 tilted by 5e-11 towards vector 0: unit length still, no longer orthogonal."""
    v0, v1 = doc["vectors"][0], doc["vectors"][1]
    doc["vectors"][1] = [b + 5e-11 * a for a, b in zip(v0, v1)]


# (argv, label, input file contents)
FILE_CASES = (
    [(JSON_READERS[1], "3x2 settings",
      model_text([[1.0]] * 6, [[1.0]] * 3, [[1.0]] * 2, [0.25, 0.25] + [0.125] * 4))]
    + [(JSON_READERS[3], "neighbours not orthogonal", asset_with("kcbs-pentagram.json", _tilted))]
    + [(argv, label, content) for argv in MODEL_READERS for label, content in (
        ("response 1 + 1e-13, clipped", asset_with(
            "brans.json", lambda d: d["alice_response"][0].__setitem__(0, 1.0 + 1e-13))),
        ("marginal entry -0.1", asset_with(
            "brans.json", lambda d: d["settings"].update(marginal=[-0.1, 0.35, 0.5, 0.25]))),
        ("CRLF", (ASSETS / "brans.json").read_text(encoding="utf-8").replace("\n", "\r\n")))]
    # p(lambda) p(s) = 6.25e-309 is below the smallest normal where p(lambda, s) = 2.5e-308 is not
    + [(JSON_READERS[2], "one entry of 1e-307", model_text(
        [[1.0, 0.0]] * 3 + [[1.0, 1e-307]], [[1.0, 0.0]] * 2, [[0.0, 1.0]] * 2, [0.25] * 4))]
)


HOSTILE_VALUES = {
    "4301-digit integer": LONG_INTEGER, "1e400": "1e400", "-1e400": "-1e400", "NaN": "NaN",
    "Infinity": "Infinity", "-0": "-0", "1e-400": "1e-400", "true": "true", "false": "false",
    "null": "null", '""': '""', "[]": "[]", "{}": "{}",
}
# the asset each JSON reader takes
HOSTILE_READERS = {
    "brans.json": MODEL_READERS,
    "bell-optimal.json": (JSON_READERS[0],),
    "kcbs-pentagram.json": (JSON_READERS[3],),
}


def _paths(value, path=()):
    """One path per distinct field under ``value``: every key, and index 0 of every list."""
    steps = list(value) if isinstance(value, dict) else [0] if isinstance(value, list) else []
    for step in steps:
        yield path + (step,)
        yield from _paths(value[step], path + (step,))


def hostile_cases(name: str) -> dict:
    """Label -> file bytes, for each catalogue case of the canned asset ``name``."""
    text = (ASSETS / name).read_text(encoding="utf-8")
    cases = {"empty file": b"", "UTF-8 BOM": b"\xef\xbb\xbf" + text.encode(),
             "trailing text": (text + " x").encode(), "10^5-deep array": b"[" * 100_000}
    for path in _paths(json.loads(text)):
        label = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]
        values = {**HOSTILE_VALUES, "wrapped": f"[{json.dumps(_at(json.loads(text), path))}]"}
        cases.update({f"{label} = {value}": asset_with_text(name, path, literal).encode()
                      for value, literal in values.items()})
        if isinstance(path[-1], str):
            cases[f"{label} = key twice"] = asset_with_key_twice(name, path).encode()
    return cases
