"""Every module imports only names it uses, and start-up loads only what
a stage runs.

An AST scan, standard library only: a name bound by an import must be
read somewhere in the same module, in code, in an annotation (string
annotations included) or in ``__all__``.  Package ``__init__.py`` files
are skipped; the package's lazy names are checked here instead: each
resolves to the object in its home module.  The same scan holds the
demos to public names: each ``from hubmodal import X`` names an entry of
``hubmodal.__all__``, and no demo imports a ``_``-prefixed name or a test
module.  No package module names a row-at-a-time market builder
(``Market``, ``ModeAttr``, ``TasteVector``, ``from_markets``): those live
in the tests' scalar oracle.

Start-up: a bare ``import hubmodal`` loads no submodule, and each CLI
stage loads only the modules it runs.  The package depends on numpy
alone: importing the CLI and running any stage, the calibration fit
included, must leave scipy unloaded, and a stage that warns of nothing
leaves ``logging`` unloaded.  These checks run in a fresh interpreter.
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


# The row-at-a-time market builders live in the tests' scalar oracle
# (reference_model); the package reads and builds markets only as columns.
ROW_BUILDERS = frozenset({"Market", "ModeAttr", "TasteVector", "from_markets"})
PACKAGE = sorted((ROOT / "src/hubmodal").rglob("*.py"))


def _names(node: ast.AST) -> list[str]:
    """The names ``node`` reads, binds, imports or defines, and those of a
    string that parses as code (an annotation or an ``__all__`` entry)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rpartition(".")[2], *([node.asname] if node.asname else [])]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return [n for sub in ast.walk(ast.parse(node.value, mode="eval")) for n in _names(sub)]
        except SyntaxError:
            pass
    return []


def row_builder_names(path: Path) -> list[str]:
    """Each use of a ``ROW_BUILDERS`` name in ``path``, with its line."""
    return [
        f"{name} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _names(node)
        if name in ROW_BUILDERS
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_names_no_row_builder(path):
    assert row_builder_names(path) == []


def test_scan_flags_a_row_builder(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from reference_model import Market as M\n"
        "def f(t: 'TasteVector', table):\n"
        "    return table.from_markets([ModeAttr()])\n"
        "__all__ = ['MarketTable', 'f']\n"
    )
    assert row_builder_names(module) == [
        "Market (line 1)",
        "TasteVector (line 2)",
        "from_markets (line 3)",
        "ModeAttr (line 3)",
    ]


# Demos use the package as a reader would: names from ``hubmodal.__all__``
# or a public module, never a private name or a test module (the tests'
# row-at-a-time builders live in reference_model).
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TEST_MODULES = {"tests", *(p.stem for p in (ROOT / "tests").glob("*.py"))}


def demo_import_faults(path: Path) -> list[str]:
    """The imports of ``path`` that a demo must not make."""
    faults = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imports = [(node.module or "", alias.name) for alias in node.names]
        else:
            continue
        for module, name in imports:
            where = f"{module}{'' if name is None else '.' + name} (line {node.lineno})"
            if module.partition(".")[0] in TEST_MODULES:
                faults.append(f"test module: {where}")
            elif any(part.startswith("_") for part in [*module.split("."), name or ""]):
                faults.append(f"private name: {where}")
            elif module == "hubmodal" and name not in hubmodal.__all__:
                faults.append(f"not in hubmodal.__all__: {where}")
    return faults


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_only_public_names(path):
    assert demo_import_faults(path) == []


def test_demo_import_scan_flags_each_rule(tmp_path):
    demo = tmp_path / "demo.py"
    demo.write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from hubmodal import Market, MarketTable\n"
        "from hubmodal.hubs import _SEGMENT_CODE, LEG_MODE_ORDER\n"
        "from reference_model import add_leg\n"
    )
    assert demo_import_faults(demo) == [
        "not in hubmodal.__all__: hubmodal.Market (line 3)",
        "private name: hubmodal.hubs._SEGMENT_CODE (line 4)",
        "test module: reference_model.add_leg (line 5)",
    ]


def _fresh_python(code: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


SCIPY_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy(tmp_path):
    out = _fresh_python(f"import sys, hubmodal.cli; print({SCIPY_LOADED})", tmp_path)
    assert out.strip() == "[]"


# Runs each stage in process through main() and records, after it, the
# scipy modules loaded and whether logging is.
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
    "assess": ["assess", *fx],
    "rank": ["rank", *fx],
}}
loaded = {{}}
for name, argv in stages.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, name
    loaded[name] = {{"scipy": {SCIPY_LOADED}, "logging": "logging" in sys.modules}}
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def stage_loads(tmp_path_factory) -> dict:
    """What each stage, run in turn in one fresh interpreter, has loaded
    once it returns."""
    loaded = json.loads(_fresh_python(STAGE_SCRIPT, tmp_path_factory.mktemp("loads")).splitlines()[-1])
    assert list(loaded)[-3:] == ["calibrate", "assess", "rank"]
    return loaded


def test_no_stage_loads_scipy(stage_loads):
    assert {stage: loaded["scipy"] for stage, loaded in stage_loads.items()} == {stage: [] for stage in stage_loads}


def test_no_stage_loads_logging_on_a_clean_fixture(stage_loads):
    # logging is imported at a stage's first warning, and these warn of nothing
    assert {stage: loaded["logging"] for stage, loaded in stage_loads.items()} == {stage: False for stage in stage_loads}


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


def test_hub_params_resolve_without_the_calibration_module(tmp_path):
    # the params a --params stage reads live beside the kernels that read them
    code = f"import sys, types, hubmodal; hubmodal.HubParams; print({HUBMODAL_LOADED})"
    assert _fresh_python(code, tmp_path).strip() == str(["choice", "geo", "hubs", "legs", "records"])


GEN_FIXTURE = ["gen-fixture", "--seed", "3", "--od-pairs", "12", "--stops", "6"]
FX = ["--manifest", "fx/manifest.json"]
PARAMS = ["--params", "params.json"]
COMMON = ["cli", "config", "geo", "choice", "hubs", "io", "legs", "records"]
# stage -> (argv, the hubmodal modules it loads)
STAGES = {
    "derive-threshold": (["derive-threshold", *FX], COMMON),
    "identify-trips": (["identify-trips", *FX], [*COMMON, "writers"]),
    "calibrate": (["calibrate", *FX], [*COMMON, "calibration"]),
    "assess --params": (["assess", *FX, *PARAMS], [*COMMON, "impacts"]),
    "rank --params": (["rank", *FX, *PARAMS], [*COMMON, "impacts", "siting", "writers"]),
    "gen-fixture": (GEN_FIXTURE, [*COMMON, "siting", "fixtures", "writers"]),
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
