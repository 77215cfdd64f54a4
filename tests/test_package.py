"""The package's public names: each is imported from the module that binds it
on first use, and then held by the package."""

import sys

import pytest

import gibbstopics


def test_each_public_name_resolves_to_its_module_object(monkeypatch):
    for name in gibbstopics.__all__:
        monkeypatch.delitem(vars(gibbstopics), name, raising=False)
        value = getattr(gibbstopics, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert vars(gibbstopics)[name] is value


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'gibbstopics' has no attribute 'nope'"):
        gibbstopics.nope
    assert "nope" not in vars(gibbstopics)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gibbstopics import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == gibbstopics.__all__
    assert len(gibbstopics.__all__) == 22
