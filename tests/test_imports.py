"""Every module imports only names it uses, and start-up loads only what
a stage runs.

An AST scan, standard library only: a name bound by an import must be
read somewhere in the same module, in code, in an annotation (string
annotations included) or in ``__all__``.  Package ``__init__.py`` files
are skipped; the package's lazy names are checked here instead: each
resolves to the object in its home module.

Start-up: a bare ``import hubmodal`` loads no submodule, and each CLI
stage loads only the modules it runs.  The package depends on numpy
alone: importing the CLI and running any stage, the calibration fit
included, must leave scipy unloaded.  These checks run in a fresh
interpreter.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hubmodal
from hubmodal.cli import main

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


def test_every_package_name_is_its_home_module_object():
    assert len(set(hubmodal.__all__)) == len(hubmodal.__all__)
    for name in hubmodal.__all__:
        home = importlib.import_module(f"hubmodal.{hubmodal._HOME[name]}")
        assert getattr(hubmodal, name) is getattr(home, name), name
    assert set(hubmodal.__all__) <= set(dir(hubmodal))


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hubmodal.no_such_name
    assert not hasattr(hubmodal, "no_such_name")


def test_star_import_binds_every_package_name():
    namespace: dict = {}
    exec("from hubmodal import *", namespace)
    assert {name: namespace.get(name) for name in hubmodal.__all__} == {
        name: getattr(hubmodal, name) for name in hubmodal.__all__
    }


# The hubmodal modules a process has run.  cli binds the modules that only
# some stages use lazily: each sits in sys.modules as an unrun LazyLoader
# module, not a plain module, until its first attribute access.
HUBMODAL_LOADED = (
    "sorted(n.partition('.')[2] for n, m in sys.modules.items()"
    " if n.startswith('hubmodal.') and type(m) is types.ModuleType)"
)


def test_bare_package_import_loads_no_submodule(tmp_path):
    out = _fresh_python(f"import sys, types, hubmodal; print({HUBMODAL_LOADED})", tmp_path)
    assert out.strip() == "[]"


GEN_FIXTURE = ["gen-fixture", "--seed", "3", "--od-pairs", "12", "--stops", "6"]
FX = ["--manifest", "fx/manifest.json"]
PARAMS = ["--params", "params.json"]
COMMON = ["cli", "config", "geo", "choice", "hubs", "io"]
# stage -> (argv, the hubmodal modules it loads)
STAGES = {
    "derive-threshold": (["derive-threshold", *FX], COMMON),
    "identify-trips": (["identify-trips", *FX], COMMON),
    "calibrate": (["calibrate", *FX], [*COMMON, "calibration"]),
    "assess --params": (["assess", *FX, *PARAMS], [*COMMON, "calibration", "impacts"]),
    "rank --params": (["rank", *FX, *PARAMS], [*COMMON, "calibration", "impacts", "siting"]),
    "gen-fixture": (GEN_FIXTURE, [*COMMON, "siting", "fixtures"]),
}


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory):
    """A small fixture and a params file for the stages to read."""
    root = tmp_path_factory.mktemp("stages")
    assert main([*GEN_FIXTURE, "--out-dir", str(root / "fx")]) == 0
    params = {"beta_hub": 0.5, "asc_by_segment": {s.value: -4.0 for s in hubmodal.Segment}}
    (root / "params.json").write_text(json.dumps(params), encoding="utf-8")
    return root


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_loads_only_its_modules(stage, stage_dir):
    argv, modules = STAGES[stage]
    code = f"""
import contextlib, io, sys, types
from hubmodal.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main({[*argv, "--out-dir", "out"]!r}) == 0
print({HUBMODAL_LOADED})
"""
    assert _fresh_python(code, stage_dir).strip() == str(sorted(modules))
