"""``records.record`` against the standard library's ``dataclass``.

Each record class here has a twin built from the same class body by
``dataclasses.dataclass``; both share a qualified name, so reprs and
error messages compare as text.  The start-up guard runs in a fresh
interpreter: loading every hubmodal module, the lazily bound ones too,
must generate no method source, and no ``@dataclass`` may be left in
``src/``.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from hubmodal.hubs import HubShares
from hubmodal.records import record

ROOT = Path(__file__).resolve().parent.parent


def _point(decorate):
    class Point:
        """A labelled point."""

        x: float
        y: float = 0.0
        tags: tuple = field(default_factory=tuple)
        label: str = field(default="", compare=False, repr=False)

        def __post_init__(self) -> None:
            if self.x < 0:
                raise ValueError(f"negative x: {self.x}")

    return decorate(Point)


def _settings(decorate):
    class Settings:
        name: str
        sizes: list = field(default_factory=list)
        flag: bool = False

    return decorate(Settings)


TWINS = {
    "frozen": (_point(record(frozen=True)), _point(dataclass(frozen=True))),
    "mutable": (_point(record), _point(dataclass)),
}
SETTINGS = (_settings(record), _settings(dataclass))

CALLS = [
    ((1.0,), {}),
    ((1.0, 2.0), {}),
    ((1.0, 2.0, ("a",), "p"), {}),
    ((), {"x": 1.0, "y": 2.0, "tags": ("b",), "label": "q"}),
    ((), {"label": "r", "x": 3.0}),
    ((1.0,), {"tags": ("c",)}),
    ((-1.0,), {}),  # __post_init__ raises
    ((), {"x": -1.0}),
    ((), {}),  # missing x
    ((), {"y": 1.0}),  # missing x
    ((1.0,), {"z": 1}),  # unexpected keyword
    ((1.0,), {"x": 2.0}),  # x twice
    ((1.0, 2.0, (), "", 5), {}),  # one positional too many
]


def _outcome(cls, args, kwargs):
    try:
        made = cls(*args, **kwargs)
    except (TypeError, ValueError) as err:
        return type(err).__name__, str(err)
    return repr(made), vars(made)


@pytest.mark.parametrize("kind", TWINS)
@pytest.mark.parametrize("args, kwargs", CALLS)
def test_construction_and_its_errors_match_dataclass(kind, args, kwargs):
    rec, std = TWINS[kind]
    assert _outcome(rec, args, kwargs) == _outcome(std, args, kwargs)


@pytest.mark.parametrize("args", [(), ("n", [1], True, 4)])
def test_errors_without_defaults_or_with_too_many_arguments_match(args):
    assert _outcome(SETTINGS[0], args, {}) == _outcome(SETTINGS[1], args, {})


def test_missing_arguments_are_listed_as_the_interpreter_lists_them():
    def three(decorate):
        class Three:
            a: int
            b: int
            c: int

        return decorate(Three)

    rec, std = three(record), three(dataclass)
    for args in [(), (1,), (1, 2)]:
        assert _outcome(rec, args, {}) == _outcome(std, args, {})
    assert _outcome(rec, (), {})[1].endswith("missing 3 required positional arguments: 'a', 'b', and 'c'")


def test_default_factory_gives_each_object_its_own_value():
    rec, std = SETTINGS
    for cls in (rec, std):
        a, b = cls("a"), cls("b")
        a.sizes.append(1)
        assert (a.sizes, b.sizes) == ([1], [])


@pytest.mark.parametrize("kind", TWINS)
def test_equality_hash_and_repr_match_dataclass(kind):
    rec, std = TWINS[kind]
    pairs = [((1.0, 2.0), (1.0, 2.0)), ((1.0, 2.0, (), "a"), (1.0, 2.0, (), "b")), ((1.0,), (2.0,))]
    for left, right in pairs:
        assert (rec(*left) == rec(*right)) == (std(*left) == std(*right))
        assert (rec(*left) != rec(*right)) == (std(*left) != std(*right))
        assert repr(rec(*left)) == repr(std(*left))
        if kind == "frozen":
            assert hash(rec(*left)) == hash(std(*left))
    assert rec(1.0) != std(1.0)  # another class, as with two dataclasses
    for cls in (rec, std):  # a subclass too
        assert (cls(1.0) == type("Sub", (cls,), {})(1.0)) is False
    assert rec(1.0).__eq__(1.0) is NotImplemented
    assert (rec.__hash__ is None) == (std.__hash__ is None) == (kind == "mutable")


def test_equality_compares_field_tuples():
    # a tuple compares items by identity first, so one NaN object equals itself
    rec, std = TWINS["frozen"]
    nan = float("nan")
    assert (rec(1.0, nan) == rec(1.0, nan)) == (std(1.0, nan) == std(1.0, nan)) is True
    assert (rec(1.0, nan) == rec(1.0, float("nan"))) == (std(1.0, nan) == std(1.0, float("nan"))) is False


def test_recursive_repr_matches_dataclass():
    looped = [cls("loop") for cls in SETTINGS]
    for s in looped:
        s.sizes.append(s)
    assert repr(looped[0]) == repr(looped[1]) == f"{SETTINGS[1].__qualname__}(name='loop', sizes=[...], flag=False)"


def test_frozen_record_refuses_assignment_and_deletion_as_dataclass_does():
    rec, std = TWINS["frozen"]
    raised = []
    for obj in (rec(1.0), std(1.0)):
        with pytest.raises(FrozenInstanceError) as assigned:
            obj.x = 2.0
        with pytest.raises(FrozenInstanceError) as added:
            obj.other = 2.0
        with pytest.raises(FrozenInstanceError) as deleted:
            del obj.y
        raised.append((str(assigned.value), str(added.value), str(deleted.value)))
    assert raised[0] == raised[1] == ("cannot assign to field 'x'", "cannot assign to field 'other'", "cannot delete field 'y'")


def test_mutable_record_takes_assignment():
    rec, _ = TWINS["mutable"]
    obj = rec(1.0)
    obj.x = 5.0
    del obj.label
    assert obj == rec(5.0) and obj.label == ""  # the class default shows through


@pytest.mark.parametrize("kind", TWINS)
def test_replace_asdict_fields_and_signature_match_dataclass(kind):
    rec, std = TWINS[kind]
    assert dataclasses.is_dataclass(rec) and dataclasses.is_dataclass(rec(1.0))
    assert [(f.name, f.type, f.default, f.compare) for f in fields(rec)] == [
        (f.name, f.type, f.default, f.compare) for f in fields(std)
    ]
    a, b = rec(1.0, 2.0, ("t",), "l"), std(1.0, 2.0, ("t",), "l")
    assert repr(replace(a, y=3.0)) == repr(replace(b, y=3.0))
    assert vars(replace(a, label="m")) == vars(replace(b, label="m"))
    assert asdict(a) == asdict(b) == {"x": 1.0, "y": 2.0, "tags": ("t",), "label": "l"}
    with pytest.raises(ValueError, match="negative x"):
        replace(a, x=-1.0)
    assert str(inspect.signature(rec)) == str(inspect.signature(std))
    assert str(inspect.signature(rec)) == "(x: 'float', y: 'float' = 0.0, tags: 'tuple' = <factory>, label: 'str' = '') -> None"
    assert rec.__doc__ == std.__doc__ == "A labelled point."
    assert rec.__match_args__ == std.__match_args__ == ("x", "y", "tags", "label")


def test_docstring_less_record_gets_the_dataclass_docstring():
    rec, std = SETTINGS
    assert rec.__doc__ == std.__doc__ == "Settings(name: 'str', sizes: 'list' = <factory>, flag: 'bool' = False)"


def test_methods_the_class_defines_are_kept():
    def own(decorate):
        class Own:
            a: int

            def __repr__(self) -> str:
                return "own"

            def __eq__(self, other) -> bool:
                return True

            def __hash__(self) -> int:
                return 7

        return decorate(Own)

    for cls in (own(record(frozen=True)), own(dataclass(frozen=True))):
        assert (repr(cls(1)), cls(1) == cls(2), hash(cls(1))) == ("own", True, 7)

    def explicit_setattr(decorate):
        class Bad:
            a: int

            def __setattr__(self, name, value):
                pass

        return decorate(Bad)

    errors = []
    for decorate in (record(frozen=True), dataclass(frozen=True)):
        with pytest.raises(TypeError) as err:
            explicit_setattr(decorate)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_non_default_field_after_a_default_is_an_error_as_in_dataclass():
    def bad(decorate):
        class Bad:
            a: int = 0
            b: int

        return decorate(Bad)

    errors = []
    for decorate in (record, dataclass):
        with pytest.raises(TypeError) as err:
            bad(decorate)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "non-default argument 'b' follows default argument"


# module level, so pickle finds them by name
@record(frozen=True)
class PickledPoint:
    x: float
    tags: tuple = ()


@record
class PickledSettings:
    name: str
    sizes: list = field(default_factory=list)


@pytest.mark.parametrize("obj", [PickledPoint(1.5, ("a",)), PickledSettings("s", [1, [2]])], ids=["frozen", "mutable"])
def test_pickle_and_copy_round_trip(obj):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert back == obj and type(back) is type(obj) and vars(back) == vars(obj)
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
    if isinstance(obj, PickledSettings):
        assert copy.copy(obj).sizes is obj.sizes and copy.deepcopy(obj).sizes is not obj.sizes


def test_cached_property_on_a_frozen_record():
    rng = np.random.default_rng(0)
    arrays = {name: rng.random((3, 2)) for name in ("before", "upper", "lower", "logsum_j", "v_hub", "cs_gain_util")}
    shares = HubShares(hub=rng.random(3), live=np.arange(3), **arrays)
    joint = shares.joint
    assert joint is shares.joint  # computed once
    np.testing.assert_array_equal(joint, shares.hub[shares.live, None] * shares.lower)
    assert "joint" in vars(shares)
    with pytest.raises(FrozenInstanceError):
        shares.hub = None

    @dataclass(frozen=True)
    class Twin:
        hub: np.ndarray
        lower: np.ndarray

        @cached_property
        def joint(self):
            return self.hub[:, None] * self.lower

    np.testing.assert_array_equal(Twin(shares.hub, shares.lower).joint, joint)


GUARD = """
import dataclasses, importlib, json, pkgutil, sys, types

made = []
create = dataclasses._create_fn


def counting(name, *args, **kwargs):
    made.append(name)
    return create(name, *args, **kwargs)


dataclasses._create_fn = counting
import hubmodal
import hubmodal.cli  # binds the modules some stages use lazily

for info in pkgutil.iter_modules(hubmodal.__path__):
    module = importlib.import_module(f"hubmodal.{info.name}")
    module.__name__  # runs a lazily bound module
loaded = sorted(n for n, m in sys.modules.items() if n.startswith("hubmodal.") and type(m) is types.ModuleType)
at_start = list(made)


@dataclasses.dataclass
class Probe:  # shows the count sees a dataclass
    a: int


print(json.dumps({"loaded": loaded, "at_start": at_start, "probe": len(made) - len(at_start)}))
"""


@pytest.mark.skipif(not hasattr(dataclasses, "_create_fn"), reason="dataclasses builds methods another way here")
def test_loading_every_module_generates_no_method_source(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", GUARD], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    modules = sorted(f"hubmodal.{p.stem}" for p in (ROOT / "src" / "hubmodal").glob("*.py") if p.stem != "__init__")
    assert out["loaded"] == modules
    assert out["probe"] > 0
    assert out["at_start"] == []


def _dataclass_decorators(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_no_dataclass_decorator_is_left_in_src():
    sources = sorted((ROOT / "src" / "hubmodal").glob("*.py"))
    assert len(sources) > 5
    assert [hit for path in sources for hit in _dataclass_decorators(path)] == []
    assert _dataclass_decorators(Path(__file__)) != []  # the scan finds them
