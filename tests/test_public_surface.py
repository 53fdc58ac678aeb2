"""The package's public names are pinned, so the surface cannot regrow silently.

A name added to ``bellmd/__init__.py`` must be added here too, on purpose.
Names the benchmark tracer wraps stay module attributes, checked below.
The package uses no private name of another module, the standard library's
included: no ``from X import _name`` and no ``X._name``.  Nor does it import
``dataclasses``: each decorator execs its generated methods on every import of
bellmd, which every CLI run pays for.  No module calls ``.read_bytes()`` or
``.read_text()``: every input file is read by ``serialize._read_bytes``.
``import bellmd.cli`` loads neither ``hashlib`` nor ``importlib.resources``: only a
run that digests an input imports ``hashlib``, and nothing uses the other.  Each
module imports first in a fresh interpreter: ``lhv`` takes ``entropy_bits`` from
``infotheory``, which names ``LhvModel`` in annotations only.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bellmd

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = sorted(Path(bellmd.__file__).parent.glob("*.py"))

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
    "TeleportInput",
    "TeleportTranscript",
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


def test_the_scan_sees_private_names_of_other_modules():
    source = ("import json\nimport numpy as np\nfrom json.encoder import _make_iterencode\n"
              "from . import lhv\nfrom .hilbert import _hermitian_parts\n"
              "json.encoder._make_iterencode, np._x, np.__version__, lhv._ROW_ATOL, self._y\n")
    assert _foreign_private_names(source) == ["from json.encoder import _make_iterencode",
                                              "json.encoder._make_iterencode", "np._x"]


def test_no_private_names_of_other_modules():
    found = {path.name: names for path in SOURCES
             if (names := _foreign_private_names(path.read_text(encoding="utf-8")))}
    assert SOURCES and not found


def _dataclasses_imports(source: str) -> list[int]:
    """Lines of ``source`` that import ``dataclasses`` or a name from it."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "dataclasses"]


def test_the_scan_sees_dataclasses_imports():
    source = ("import json\nfrom dataclasses import dataclass\nimport dataclasses as dc\n"
              "from .errors import Frozen\n")
    assert _dataclasses_imports(source) == [2, 3]


def test_no_dataclasses_import():
    found = {path.name: lines for path in SOURCES
             if (lines := _dataclasses_imports(path.read_text(encoding="utf-8")))}
    assert SOURCES and not found


def _whole_file_reads(source: str) -> list[int]:
    """Lines of ``source`` that call a ``.read_bytes()`` or ``.read_text()`` method."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("read_bytes", "read_text")]


def test_the_scan_sees_whole_file_reads():
    source = ("from pathlib import Path\nPath(p).read_bytes()\nread_bytes(p)\n"
              "data = path.read_text(encoding='utf-8')\nreader = path.read_bytes\n"
              "_read_bytes(p)\n")
    assert _whole_file_reads(source) == [2, 4]


def test_every_input_file_is_read_by_read_bytes():
    # serialize._read_bytes is the one reader: one unbuffered read, no pathlib reader
    found = {path.name: lines for path in SOURCES
             if (lines := _whole_file_reads(path.read_text(encoding="utf-8")))}
    assert SOURCES and not found


def _fresh_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter.  -S skips site, whose .pth files may preload
    importlib.resources; this process's path stands in for its paths."""
    src = str(Path(bellmd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, *sys.path) if p)}
    return subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def test_importing_the_cli_leaves_hashlib_unloaded():
    # a fresh interpreter: this one has hashlib loaded already; only the modules new after
    # the import count
    proc = _fresh_python("import sys\nbefore = set(sys.modules)\nimport bellmd.cli\n"
                         "print(sorted({'hashlib', '_hashlib', 'importlib.resources'}"
                         " & (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", [p.stem for p in SOURCES if not p.stem.startswith("__")])
def test_each_module_imports_first_on_its_own(module):
    # lhv and infotheory import each other's names: only one of them may do so at run time
    proc = _fresh_python(f"import bellmd.{module}")
    assert proc.returncode == 0, proc.stderr
