"""The package namespace resolves each public name from its home module, and
no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import regimecast
from regimecast import energy


def test_every_public_name_is_its_home_modules_object():
    for name in regimecast.__all__:
        if name == "__version__":
            continue
        obj = getattr(regimecast, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name), name


def test_dir_and_star_import_cover_the_public_names():
    assert set(regimecast.__all__) <= set(dir(regimecast))
    namespace = {}
    exec("from regimecast import *", namespace)
    assert set(regimecast.__all__) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'regimecast' has no attribute 'no_such_name'"):
        regimecast.no_such_name  # noqa: B018


def test_names_are_resolved_on_every_access(monkeypatch):
    original = energy.fit
    assert regimecast.fit is original

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(energy, "fit", patched)
    assert regimecast.fit is patched
    monkeypatch.undo()
    assert regimecast.fit is original


def test_the_model_format_number_has_one_definition():
    assert energy.FORMAT_VERSION is regimecast.MODEL_FORMAT_VERSION


def test_no_module_imports_a_name_it_never_uses():
    # a linter's unused-import rule, from the standard library alone
    unused = []
    for path in sorted(Path(regimecast.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
