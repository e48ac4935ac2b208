"""Every module imports only names it uses, and start-up loads only what
a stage runs.

An AST scan, standard library only: a name bound by an import must be
read somewhere in the same module, in code, in an annotation (string
annotations included) or in ``__all__``.  Package ``__init__.py`` files
re-export names and are skipped.

The package depends on numpy alone: importing the CLI and running any
stage, the calibration fit included, must leave scipy unloaded.  These
checks run in a fresh interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    p
    for folder in ("src/hubmodal", "tests", "demos")
    for p in (ROOT / folder).rglob("*.py")
    if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            try:
                used |= _used(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('import os\nfrom typing import Mapping, Sequence\n\ndef f(x: "Sequence[int]"):\n    return x\n')
    assert unused_imports(module) == ["os (line 1)", "Mapping (line 2)"]


def _fresh_python(code: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


SCIPY_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy(tmp_path):
    out = _fresh_python(f"import sys, hubmodal.cli; print({SCIPY_LOADED})", tmp_path)
    assert out.strip() == "[]"


# Runs each stage in process through main() and records the scipy
# modules loaded after it.
STAGE_SCRIPT = f"""
import contextlib, io, json, sys
from hubmodal.choice import Segment
from hubmodal.cli import main

params = {{"beta_hub": 0.5, "asc_by_segment": {{s.value: -4.0 for s in Segment}}}}
with open("params.json", "w") as fh:
    json.dump(params, fh)
fx = ["--manifest", "fx/manifest.json", "--out-dir", "run"]
stages = {{
    "gen-fixture": ["gen-fixture", "--seed", "3", "--od-pairs", "12", "--stops", "6", "--out-dir", "fx"],
    "derive-threshold": ["derive-threshold", *fx],
    "identify-trips": ["identify-trips", *fx],
    "assess --params": ["assess", *fx, "--params", "params.json"],
    "rank --params": ["rank", *fx, "--params", "params.json"],
    "calibrate": ["calibrate", *fx],
}}
loaded = {{}}
for name, argv in stages.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, name
    loaded[name] = {SCIPY_LOADED}
print(json.dumps(loaded))
"""


def test_no_stage_loads_scipy(tmp_path):
    loaded = json.loads(_fresh_python(STAGE_SCRIPT, tmp_path).splitlines()[-1])
    assert "calibrate" in loaded
    assert loaded == {stage: [] for stage in loaded}
