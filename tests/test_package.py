"""The package namespace resolves each public name from its home module."""

import importlib

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
