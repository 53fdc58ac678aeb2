"""``same_outputs.py`` finds no difference between a tree and itself, and finds a planted one.

Both run the README and malformed-input entries; the catalogue of hostile values runs under
this tree in ``test_cli.py``.
"""

import importlib
from pathlib import Path

import same_outputs
from cli_inputs import MODEL_READERS

ROOT = Path(__file__).resolve().parents[1]


def test_the_tree_against_itself_differs_nowhere():
    cases = same_outputs.corpus(catalogue=False)
    found = same_outputs.compare(same_outputs.load_cli(ROOT, "bellmd_same_a"),
                                 same_outputs.load_cli(ROOT, "bellmd_same_b"), cases)
    assert len(cases) > 90 and found == []


def test_a_planted_message_change_is_reported(monkeypatch, tmp_path, capsys):
    load, corpus = same_outputs.load_cli, same_outputs.corpus

    def load_planted(tree, name):  # tree B says "is not an integer" where A says "must be one"
        cli = load(tree, name)
        if name.endswith("_b"):
            serialize = importlib.import_module(f"{name}.serialize")
            checked, error = serialize._int_field, cli.InputError

            def int_field(doc, field, context):
                try:
                    return checked(doc, field, context)
                except error as exc:
                    raise error(str(exc).replace("must be an integer", "is not an integer"))
            monkeypatch.setattr(serialize, "_int_field", int_field)
        return cli
    monkeypatch.setattr(same_outputs, "load_cli", load_planted)
    monkeypatch.setattr(same_outputs, "corpus", lambda: corpus(catalogue=False))

    assert same_outputs.main([str(ROOT), str(ROOT)]) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = {line.split(": stderr: ")[0] for line in lines}
    assert len(differing) == len(lines)  # one line each, all on stderr
    assert differing == {f"{' '.join(argv)} [{kind}]" for argv in MODEL_READERS for kind in (
        "alice-abc", "alice-null", "alice-fraction", "lambda-count-list", "lambda-count-fraction",
        "lambda-count-true-list", "alice-false-list")}
    assert all("must be an integer" in line and "is not an integer" in line for line in lines)

    expect = tmp_path / "expected.txt"
    expect.write_text("# the planted message\n" + "\n".join(sorted(differing)) + "\n")
    assert same_outputs.main([str(ROOT), str(ROOT), "--expect", str(expect)]) == 0
