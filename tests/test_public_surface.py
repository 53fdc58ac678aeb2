"""The package's public names are pinned, so the surface cannot regrow silently.

A name added to ``bellmd/__init__.py`` must be added here too, on purpose.
Names the benchmark tracer wraps stay module attributes, checked below, and every
one of them but ``cli.branch_decomposition`` is called by a benchmark workload.
The package uses no private name of another module, the standard library's
included: no ``from X import _name`` and no ``X._name``.  Nor does it import
``dataclasses``: each decorator execs its generated methods on every import of
bellmd, which every CLI run pays for.  No module calls ``.read_bytes()`` or
``.read_text()``: every input file is read by ``serialize._read_bytes``.
No module calls ``json.dump`` or ``json.dumps``: ``serialize.dumps_json`` writes every
JSON text.  No module imports from ``json.encoder``, ``json.decoder`` or ``json.scanner``, which
the ``json`` documentation does not list.  The ``bellmd`` console script is ``cli.main``.  ``import bellmd.cli`` loads neither ``hashlib`` nor ``importlib.resources``: only a
run that digests an input imports ``hashlib``, and nothing uses the other.  Each
module imports first in a fresh interpreter: ``lhv`` takes ``entropy_bits`` from
``infotheory``, which names ``LhvModel`` in annotations only.
"""

import ast
import importlib
import json
import os
import sys
import types
from pathlib import Path

import pytest

import bellmd
import bellmd.cli
from children import run_all

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = sorted(Path(bellmd.__file__).parent.glob("*.py"))
MODULES = [p.stem for p in SOURCES if not p.stem.startswith("__")]

PUBLIC_NAMES = [
    "ChshScenario",
    "CmdReport",
    "CorrelationTable",
    "InputError",
    "InvariantError",
    "KCBS_QUANTUM_OPTIMAL",
    "KcbsScenario",
    "LhvModel",
    "SearchOutcome",
    "SettingSpace",
    "StateVector",
    "bell_optimal_scenario",
    "brans_construct",
    "chsh_quantum",
    "chsh_value",
    "cmd",
    "entropy_bits",
    "kcbs_classical_min",
    "kcbs_pentagram",
    "kcbs_value",
    "lhv_chsh_max",
    "max_chsh_under_budget",
    "measurement_independent",
    "min_cmd_for_chsh",
    "outcome_counts",
    "predict",
    "tradeoff_curve",
    "verify_no_setting_choice",
]


def test_public_names_are_pinned():
    public = sorted(
        name for name, value in vars(bellmd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_every_traced_call_resolves(monkeypatch):
    # bench/workloads.py wraps each (module, attribute) with getattr; a cut name breaks it
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("workloads").TRACED_CALLS
    missing = [f"bellmd.{module}.{attr}" for module, attr, *_ in traced
               if not hasattr(importlib.import_module(f"bellmd.{module}"), attr)]
    assert traced and not missing


# no command needs the receiver's states before their corrections, so no workload reaches it
NEVER_CALLED = {"cli.branch_decomposition"}


def test_every_traced_call_is_called_by_a_workload(monkeypatch, tmp_path):
    # two cycles of ops of each workload, in process, under bench/tracing.py's Tracer, with
    # each TRACED_CALLS entry wrapped under its own span name; two, so that optimize runs
    # a --target-s op and a --budget op
    monkeypatch.syspath_prepend(str(BENCH))
    tracing, workloads = (importlib.import_module(name) for name in ("tracing", "workloads"))
    bm = types.SimpleNamespace(**{path.stem: importlib.import_module(f"bellmd.{path.stem}")
                                  for path in SOURCES if not path.stem.startswith("__")})
    runs = [cls(1, tmp_path / name) for name, cls in workloads.WORKLOADS.items()]
    for workload in runs:
        workload.setup(bm)
    tracer, problems = tracing.Tracer(), []
    for module, attr, *_ in workloads.TRACED_CALLS:
        tracer.wrap(getattr(bm, module), attr, f"{module}.{attr}")
    try:
        for workload in runs:
            for i in range(2 * workload.cycle):
                with tracer.op(i):
                    result = workload.op(i)
                problems += workload.check(i, result)
    finally:
        tracer.unwrap_all()
    calls = tracer.self_times()[1]
    uncalled = {f"{module}.{attr}" for module, attr, *_ in workloads.TRACED_CALLS
                if not calls.get(f"{module}.{attr}")}
    assert not problems and uncalled == NEVER_CALLED


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_names(source: str) -> list[str]:
    """``X._name`` and ``from X import _name`` in ``source``, for any X imported from outside."""
    tree = ast.parse(source)
    foreign, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] != "bellmd")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] != "bellmd":
            foreign.update(a.asname or a.name for a in node.names)
            found += [f"from {node.module} import {a.name}" for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in foreign:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def _dataclasses_imports(source: str) -> list[int]:
    """Lines of ``source`` that import ``dataclasses`` or a name from it."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "dataclasses"]


def _whole_file_reads(source: str) -> list[int]:
    """Lines of ``source`` that call a ``.read_bytes()`` or ``.read_text()`` method."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("read_bytes", "read_text")]


def _json_writer_calls(source: str) -> list[int]:
    """Lines of ``source`` that call ``json.dump`` or ``json.dumps``, by any name bound to them."""
    tree = ast.parse(source)
    modules, writers = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "json":
            writers.update(a.asname or a.name for a in node.names if a.name in ("dump", "dumps"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
        or isinstance(node.func, ast.Name) and node.func.id in writers)]


_JSON_INTERNALS = ("encoder", "decoder", "scanner")


def _json_internal_uses(source: str) -> list[int]:
    """Lines of ``source`` that import from, or reach into, ``json.encoder``, ``json.decoder``
    or ``json.scanner``: modules the ``json`` documentation does not list."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[:2] in (["json", m] for m in _JSON_INTERNALS) for name in names):
            found.append(node.lineno)
    return sorted(set(found))


# rule -> (its scanner, a planted source, what the scanner finds in it)
SOURCE_RULES = {
    "private names": (_foreign_private_names, (
        "import json\nimport numpy as np\nfrom json.encoder import _make_iterencode\n"
        "from . import lhv\nfrom .hilbert import _hermitian_parts\n"
        "json.encoder._make_iterencode, np._x, np.__version__, lhv._ROW_ATOL, self._y\n"),
        ["from json.encoder import _make_iterencode", "json.encoder._make_iterencode", "np._x"]),
    "dataclasses": (_dataclasses_imports, (
        "import json\nfrom dataclasses import dataclass\nimport dataclasses as dc\n"
        "from .errors import Frozen\n"), [2, 3]),
    # serialize._read_bytes is the one reader: one unbuffered read, no pathlib reader
    "whole-file reads": (_whole_file_reads, (
        "from pathlib import Path\nPath(p).read_bytes()\nread_bytes(p)\n"
        "data = path.read_text(encoding='utf-8')\nreader = path.read_bytes\n"
        "_read_bytes(p)\n"), [2, 4]),
    "JSON writers": (_json_writer_calls, (
        "import json\nimport json as js\nfrom json import dumps as d, loads\n"
        "json.dumps(doc)\njs.dump(doc, f)\nd(doc)\njson.loads(text)\nloads(text)\n"
        "text.dumps(doc)\ndumps_json(doc)\nwriter = json.dumps\n"), [4, 5, 6]),
    "JSON internals": (_json_internal_uses, (
        "import json\nfrom json.encoder import encode_basestring_ascii\n"
        "from json import decoder, JSONDecoder\nimport json.scanner\n"
        "json.encoder.INFINITY\njson.JSONEncoder().encode('x')\njson.JSONDecodeError\n"),
        [2, 3, 4, 5]),
}


@pytest.mark.parametrize("rule", SOURCE_RULES)
def test_the_scan_sees_its_planted_cases(rule):
    scan, source, expected = SOURCE_RULES[rule]
    assert scan(source) == expected


@pytest.mark.parametrize("rule", SOURCE_RULES)
def test_no_module_breaks_the_rule(rule):
    scan = SOURCE_RULES[rule][0]
    found = {path.name: hits for path in SOURCES
             if (hits := scan(path.read_text(encoding="utf-8")))}
    assert SOURCES and not found


def test_the_console_script_is_main(capsys):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'bellmd = "bellmd.cli:main"'
    # the generated wrapper runs sys.exit(main()), so main returns the exit code
    assert bellmd.cli.main(["--version"]) == 0
    assert capsys.readouterr().out == f"bellmd {bellmd.__version__}\n"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("runs")


@pytest.fixture(scope="module")
def fresh(run_dir) -> dict:
    """name -> the run of its script in a fresh interpreter, all at once.  -S skips site,
    whose .pth files may preload importlib.resources; this process's path stands in for its
    paths, after ``src``."""
    assets = Path(bellmd.__file__).parent / "assets"
    # chsh reads its input either way; only with --out does a manifest digest it
    chsh_runs = [["chsh", "--scenario", str(assets / "bell-optimal.json")],
                 ["chsh", "--model", str(assets / "brans.json")]]
    # these write a manifest, but only the last reads an input for it to digest
    manifest_runs = [["optimize", "--target-s", "2.8", "--out-dir", "d"],
                     ["optimize", "--budget", "0.05", "--out-dir", "d2"],
                     ["chsh", "--deterministic-max", "--out", "o.json"],
                     ["chsh", "--model", str(assets / "brans.json"), "--out", "m.json"]]
    scripts = {module: f"import bellmd.{module}" for module in MODULES}
    # this interpreter has hashlib loaded already; only the modules new after a step count
    scripts["cli import"] = ("import sys\nbefore = set(sys.modules)\nimport bellmd.cli\n"
                             "print(sorted({'hashlib', '_hashlib', 'importlib.resources'}"
                             " & (set(sys.modules) - before)))")
    scripts["chsh runs"] = ("import contextlib, io, sys\nimport bellmd.cli\n"
                            "before = set(sys.modules)\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            f"    codes = [bellmd.cli.main(argv) for argv in {chsh_runs!r}]\n"
                            "print(codes, sorted({'hashlib', '_hashlib'}"
                            " & (set(sys.modules) - before)))")
    scripts["manifest runs"] = (f"import contextlib, io, os, sys\nos.chdir({str(run_dir)!r})\n"
                                "import bellmd.cli\nbefore = set(sys.modules)\nseen = []\n"
                                f"for argv in {manifest_runs!r}:\n"
                                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                                "        code = bellmd.cli.main(argv)\n"
                                "    seen.append((code, sorted({'hashlib', '_hashlib'}"
                                " & (set(sys.modules) - before))))\n"
                                "print(seen)")
    path = {"PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    return run_all({name: (["-S", "-c", script], path) for name, script in scripts.items()})


def test_importing_the_cli_leaves_hashlib_unloaded(fresh):
    proc = fresh["cli import"]
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_on_its_own(fresh, module):
    # lhv and infotheory import each other's names: only one of them may do so at run time
    assert fresh[module].returncode == 0, fresh[module].stderr


def test_a_run_without_a_manifest_leaves_hashlib_unloaded(fresh):
    proc = fresh["chsh runs"]
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] []\n"


def test_a_run_that_digests_no_input_leaves_hashlib_unloaded(fresh, run_dir):
    proc = fresh["manifest runs"]
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[(0, []), (0, []), (0, []), (0, ['_hashlib', 'hashlib'])]\n"
    digested = [bool(json.loads((run_dir / m).read_text())["input_digests"]) for m in (
        "d/manifest.json", "d2/manifest.json", "o.json.manifest.json", "m.json.manifest.json")]
    assert digested == [False, False, False, True]
